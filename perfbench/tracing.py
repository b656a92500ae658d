"""Outside-in layer tracing for the stieltjes-spec benchmark.

The tracer wraps public functions of the package from outside: no source
file changes. Each wrapped call records one span (id, parent id, name,
start, end); a layer's self time is its span minus its child spans. Counts
are taken at the same boundaries and must repeat exactly for one seed.

Rules that keep the numbers honest:

- A name imported with ``from .x import name`` is a second binding. Every
  loaded module of the package that holds the original object gets the
  wrapper, and ``uninstall`` puts every original back.
- ``Workspace.geometry`` calls itself for level > 0. Only the outermost
  call is an engine run; nested calls are seen only to detect builds.
- A geometry build is a ``_Geometry`` object not seen before. Objects are
  remembered by weak reference: ``id()`` values are reused once a
  workspace is collected, which would turn later builds into false hits.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import weakref
from collections import Counter, defaultdict

PACKAGE = "stieltjes_spec"

# (module, function) pairs that get one span per call
SPANNED = (
    ("measure", "ls_integral"),
    ("ivp", "solve_value"),
    ("ivp", "solve_picard"),
    ("charfn", "real_split"),
    ("spectrum", "count_zeros_disc"),
    ("spectrum", "eigenfunction"),
    ("spectrum", "find_eigenvalue"),
    ("spectrum", "spectrum_scan"),
    ("sens", "eigenvalue_gradient_p"),
    ("sens", "eigenvalue_gradient_q"),
    ("sens", "fundamental_gradient_p"),
    ("sens", "fundamental_gradient_q"),
    ("sens", "fd_check"),
    ("sens", "fundamental_fd_check"),
    ("lab", "solution_continuity"),
    ("cli", "main"),
)

# per-layer metrics in the order they are reported: name -> unit
METRICS = {
    "measure.ls_integral.calls": "count",
    "measure.ls_integral.self_s": "s",
    "ivp.engine_runs": "count",
    "ivp.refined_levels": "count",
    "ivp.geometry_builds": "count",
    "ivp.geometry_hit_ratio": "ratio",
    "ivp.geometry.self_s": "s",
    "ivp.cells_per_engine_run": "cells",
    "ivp.solve_value.unverified_calls": "count",
    "ivp.solve_value.verified_calls": "count",
    "ivp.solve_value.self_s": "s",
    "ivp.picard_terms": "count",
    "charfn.real_split.calls": "count",
    "charfn.real_split.self_s": "s",
    "spectrum.find_eigenvalue.calls": "count",
    "spectrum.find_eigenvalue.self_s": "s",
    "spectrum.engine_runs_per_eigenpair": "count",
    "spectrum.count_zeros_disc.calls": "count",
    "spectrum.count_zeros_disc.self_s": "s",
    "spectrum.contour_engine_runs": "count",
    "spectrum.eigenfunction.calls": "count",
    "spectrum.eigenfunction.self_s": "s",
    "spectrum.spectrum_scan.self_s": "s",
    "sens.fd_check.self_s": "s",
    "sens.eigenvalue_gradient_p.self_s": "s",
    "sens.eigenvalue_gradient_q.self_s": "s",
    "sens.fundamental_gradient_p.self_s": "s",
    "sens.fundamental_gradient_q.self_s": "s",
    "sens.fundamental_fd_check.self_s": "s",
    "lab.solution_continuity.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_out": "bytes",
    "trace.overhead_s": "s",
}

# metrics that are counts of work: they must repeat exactly for one seed
EXACT = tuple(m for m, unit in METRICS.items() if unit in ("count", "cells", "ratio", "bytes"))


class _Span:
    __slots__ = ("sid", "parent", "name", "start", "end", "engine_runs")

    def __init__(self, sid, parent, name, start):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.engine_runs = 0


class Tracer:
    """Spans and counts for one traced batch; install, run, uninstall."""

    def __init__(self):
        self.spans: list[_Span] = []
        self.counts: Counter = Counter()
        self._open: list[_Span] = []
        self._seen = weakref.WeakSet()
        self._geo_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _rebind(self, original, wrapper):
        """Point every package binding of ``original`` at ``wrapper``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        pkg = sys.modules[PACKAGE]
        for mod_name, fn_name in SPANNED:
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            original = getattr(module, fn_name)
            self._rebind(original, self._spanned(f"{mod_name}.{fn_name}", original))
        ivp = pkg.ivp
        for cls, attr, wrapper in (
            (ivp.Workspace, "geometry", self._geometry(ivp.Workspace.geometry)),
            (ivp.FundamentalPath, "__init__",
             self._fundamental_init(ivp.FundamentalPath.__init__)),
        ):
            self._patches.append((cls, attr, vars(cls)[attr]))
            setattr(cls, attr, wrapper)
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- spans -----------------------------------------------------------

    def _begin(self, name):
        parent = self._open[-1].sid if self._open else None
        span = _Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _finish(self, span):
        span.end = time.perf_counter()
        self._open.pop()

    def count(self, name, amount=1):
        self.counts[name] += amount

    def _spanned(self, name, fn):
        tracer = self
        sig = inspect.signature(fn)
        per_call = {
            "ivp.solve_value": self._after_solve_value,
            "ivp.solve_picard": self._after_solve_picard,
            "spectrum.eigenfunction": self._after_eigenfunction,
        }.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._finish(span)
            if per_call is not None:
                per_call(sig.bind(*args, **kwargs), result)
            return result

        return wrapper

    def _after_solve_value(self, bound, result):
        verify = bound.arguments.get("verify", True)
        self.count("ivp.solve_value.verified_calls" if verify
                   else "ivp.solve_value.unverified_calls")

    def _after_solve_picard(self, bound, path):
        self.count("ivp.picard_terms", path.n_terms)

    def _after_eigenfunction(self, bound, pair):
        paths = [pair.E] if pair.E is not None else list(pair.basis)
        self.count("ivp.picard_terms", sum(p.n_terms for p in paths))

    def _fundamental_init(self, original):
        tracer = self

        @functools.wraps(original)
        def __init__(fp, *args, **kwargs):
            original(fp, *args, **kwargs)
            tracer.count("ivp.picard_terms", sum(c.n_terms for c in fp.columns))

        return __init__

    def _geometry(self, original):
        tracer = self

        @functools.wraps(original)
        def geometry(ws, shift_c, n_uniform, level):
            outer = tracer._geo_depth == 0
            span = tracer._begin("ivp.geometry") if outer else None
            tracer._geo_depth += 1
            try:
                geo = original(ws, shift_c, n_uniform, level)
            finally:
                tracer._geo_depth -= 1
                if span is not None:
                    tracer._finish(span)
            fresh = geo not in tracer._seen
            if fresh:
                tracer._seen.add(geo)
                tracer.count("ivp.geometry_builds")
            if outer:
                tracer.count("ivp.engine_runs")
                tracer.count("ivp.geometry_hits", 0 if fresh else 1)
                tracer.count("ivp.cells", len(geo.edges) - 1)
                if level > 0:
                    tracer.count("ivp.refined_levels")
                for open_span in tracer._open:
                    open_span.engine_runs += 1
            return geo

        return geometry

    # -- reduction -------------------------------------------------------

    def summary(self, extra_counts=None) -> dict:
        """Per-layer metrics of everything recorded so far.

        trace.overhead_s needs an untraced run and is filled in by the
        caller.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        self_s = defaultdict(float)
        calls = Counter()
        runs_in = Counter()
        for span in self.spans:
            self_s[span.name] += span.end - span.start - child_time[span.sid]
            calls[span.name] += 1
            runs_in[span.name] += span.engine_runs
        counts = Counter(self.counts)
        counts.update(extra_counts or {})
        runs = counts["ivp.engine_runs"]
        n_find = calls["spectrum.find_eigenvalue"]
        out = {
            "measure.ls_integral.calls": calls["measure.ls_integral"],
            "ivp.engine_runs": runs,
            "ivp.refined_levels": counts["ivp.refined_levels"],
            "ivp.geometry_builds": counts["ivp.geometry_builds"],
            "ivp.geometry_hit_ratio": counts["ivp.geometry_hits"] / runs if runs else 0.0,
            "ivp.cells_per_engine_run": counts["ivp.cells"] / runs if runs else 0.0,
            "ivp.solve_value.unverified_calls": counts["ivp.solve_value.unverified_calls"],
            "ivp.solve_value.verified_calls": counts["ivp.solve_value.verified_calls"],
            "ivp.picard_terms": counts["ivp.picard_terms"],
            "charfn.real_split.calls": calls["charfn.real_split"],
            "spectrum.find_eigenvalue.calls": n_find,
            "spectrum.engine_runs_per_eigenpair":
                runs_in["spectrum.find_eigenvalue"] / n_find if n_find else 0.0,
            "spectrum.count_zeros_disc.calls": calls["spectrum.count_zeros_disc"],
            "spectrum.contour_engine_runs": runs_in["spectrum.count_zeros_disc"],
            "spectrum.eigenfunction.calls": calls["spectrum.eigenfunction"],
            "cli.bytes_out": counts["cli.bytes_out"],
        }
        for metric in METRICS:
            if metric.endswith(".self_s"):
                out[metric] = self_s[metric[: -len(".self_s")]]
        return out
