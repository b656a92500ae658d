"""Checks of the benchmark itself: tracing changes no result, counts are exact.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import gc
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import pytest  # noqa: E402

import stieltjes_spec as ss  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import EXACT, SPANNED, Tracer  # noqa: E402

# cheap operations that still cross every wrapped layer kind: the CLI, a
# verified real_split, a root search, quadrature (one that fails) and the
# matrix drivers
SAMPLE = {
    "eig_search": ("eig atomic xi=2 n=4",),
    "charfn_sweep": ("real_split zero", "real_split atomic", "real_split roadmap"),
    "sens_fd": ("find roadmap", "grad_p roadmap xi=1 n=4 nu=lebesgue",
                "grad_p roadmap xi=1 n=4 nu=density[0.1,1)",
                "fundamental_fd_check roadmap p", "solution_continuity"),
}


def _sample_ops(workload, inputs):
    wanted = SAMPLE[workload]
    ops, taken = [], set()
    for op in wl.build_batch(workload, inputs):
        short = op.label.split("/", 1)[1]
        prefix = next((w for w in wanted if short.startswith(w)), None)
        if prefix is not None and prefix not in taken:
            taken.add(prefix)
            ops.append(op)
    assert len(ops) == len(wanted)
    return ops


def _digests(workload, inputs, tracer=None):
    ops = _sample_ops(workload, inputs)
    out = []
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            try:
                out.append(op.digest(op.run()))
            except ss.StieltjesSpecError as exc:
                out.append(f"error {exc.code}: {exc}")
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out


@pytest.mark.parametrize("workload", sorted(SAMPLE))
def test_traced_results_are_bit_identical(workload, tmp_path):
    inputs = wl.make_inputs(workload, 5, str(tmp_path))
    plain = _digests(workload, inputs)
    first, second = Tracer(), Tracer()
    assert _digests(workload, inputs, first) == plain
    assert _digests(workload, inputs, second) == plain
    counts = [{m: t.summary()[m] for m in EXACT} for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["ivp.engine_runs"] > 0


def test_uninstall_restores_every_binding():
    def bindings():
        return {(name, attr): value
                for name, module in sorted(sys.modules.items())
                if name == "stieltjes_spec" or name.startswith("stieltjes_spec.")
                for attr, value in vars(module).items() if callable(value)}

    before = bindings()
    geometry = ss.ivp.Workspace.geometry
    with Tracer():
        assert ss.spectrum.solve_value is ss.charfn.solve_value
        assert ss.spectrum.solve_value is not before[("stieltjes_spec.ivp", "solve_value")]
        assert ss.cli.find_eigenvalue is ss.spectrum.find_eigenvalue
    assert bindings() == before
    assert ss.ivp.Workspace.geometry is geometry
    wrapped = {f"{m}.{f}" for m, f in SPANNED}
    assert "ivp.solve_value" in wrapped and "cli.main" in wrapped


def test_builds_are_not_confused_by_reused_ids():
    """Fresh workspaces that die at once: every geometry is a new build."""
    p, q = wl.roadmap_pair()
    tracer = Tracer()
    with tracer:
        for lam in (10.0, 20.0, 30.0, 40.0, 50.0):
            ss.solve_value(p, q, lam, wl.E1, verify=False)
            gc.collect()
    layers = tracer.summary()
    assert layers["ivp.engine_runs"] == 5
    assert layers["ivp.geometry_builds"] == 5
    assert layers["ivp.geometry_hit_ratio"] == 0.0
    assert layers["ivp.solve_value.unverified_calls"] == 5


def test_only_outer_geometry_calls_are_engine_runs():
    """A verified solve asks for level 1, which recurses into level 0."""
    p, q = wl.roadmap_pair()
    ws = ss.Workspace(p, q)
    tracer = Tracer()
    with tracer:
        ss.solve_value(p, q, 10.0, wl.E1, workspace=ws)
        ss.solve_value(p, q, 10.0, wl.E1, workspace=ws)
    layers = tracer.summary()
    assert layers["ivp.engine_runs"] == 4  # levels 0 and 1, twice
    assert layers["ivp.refined_levels"] == 2
    assert layers["ivp.geometry_builds"] == 2
    assert layers["ivp.geometry_hit_ratio"] == 0.5
    assert layers["ivp.solve_value.verified_calls"] == 2


def test_refuses_a_checkout_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sens_fd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
