"""Seeded benchmark of stieltjes-spec: three workloads, oracle-checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N            # every workload, one process each

Workloads (see workloads.py): ``eig_search`` drives ``stieltjes-spec eig``
through ``cli.main`` in-process; ``charfn_sweep`` tabulates ``real_split``
rows; ``sens_fd`` runs the sensitivity and continuity drivers. A single
caller issues one operation at a time (closed loop). The fixed batch of a
workload is repeated over fresh workspaces until ``--seconds`` would be
exceeded; the first batch is checked against the oracles and every later
batch must reproduce its results bit for bit.

Times in seconds, printed with their sample counts before the final JSON
line:

- setup_s: import, seeded input generation and Workspace construction,
  timed in fresh processes, median of several;
- wall_s: time to complete the batch (sum over its operations of the
  median latency of that operation across batches);
- op_p50_s, op_p90_s: latency of one operation; p90 only where a run has
  at least 100 operations, so that ten lie beyond it;
- ref_s: median time of a fixed numpy kernel shaped like one engine setup
  at 1024 cells, timed after every operation.

The machine this was written on is a shared 2-vCPU VM whose speed drifts
by up to 2x over minutes: a fixed np.exp loop spreads 28% (quartile
distance over median) within 40 s, and a batch of identical work varies
as much from run to run. Dividing by ref_s, measured alongside, halves
that spread. So ``--trace 0`` reports as its end-to-end metrics
setup_s, wall_ref = wall_s / ref_s, op_p50_ref = op_p50_s / ref_s, and
peak_rss_mb, the peak resident memory through the first pass over the batch.
failed_frac, the OpenBLAS thread count and the sha256 digests that must
repeat between runs of one seed are printed too.

``--trace 1`` alternates untraced and traced batches and reports the
per-layer metrics of tracing.py, with trace.overhead_s the traced minus the
untraced batch time.

Exit codes: 0 with a result, 2 when the checkout has no sources, 3 when a
batch or a traced count does not reproduce the first one (a benchmark
error, not a failed operation).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("eig_search", "charfn_sweep", "sens_fd")
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """The benchmark cannot vouch for its own numbers."""


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    """Import the package from this checkout's sources, never an installed copy."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import stieltjes_spec

    where = os.path.dirname(os.path.abspath(stieltjes_spec.__file__))
    if os.path.commonpath([where, SRC]) != SRC:
        raise BenchmarkError(f"stieltjes_spec imported from {where}, not from the checkout")
    import workloads

    return workloads


def _openblas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib_path in glob.glob(pattern):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def _reference_kernel():
    """A fixed numpy workload: exp, one engine einsum and a prefix sum."""
    import numpy as np

    rng = np.random.default_rng(0)
    phase = 1j * rng.standard_normal((3, 1024, 6, 8))
    weight = rng.standard_normal((1024, 6, 8)) + 0j
    basis = rng.standard_normal((6, 8, 6))

    def timed():
        t0 = time.perf_counter()
        np.cumsum(np.einsum("ibs,jibs,bsa->jiba", weight, np.exp(phase), basis), axis=1)
        return time.perf_counter() - t0

    return timed


def _scratch_dir():
    return tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)


# ---------------------------------------------------------------------------
# set-up time


def _setup_probe(workload, seed):
    """One set-up as a fresh process pays it; prints its seconds."""
    start = time.perf_counter()
    wl = _import_package()
    tmp = _scratch_dir()
    try:
        wl.make_workspaces(wl.make_inputs(workload, seed, tmp))
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(repr(elapsed))


def _setup_times(workload, seed):
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# batches


class Batch:
    """Latencies, outcomes and result digests of one pass over the batch."""

    def __init__(self, traced):
        self.traced = traced
        self.latency = []
        self.reference = []  # reference kernel time after each operation
        self.failed = []  # (label, error code or EXIT or ORACLE, detail)
        self.unexpected = []
        self.digests = []
        self.bytes_out = 0
        self.tables = hashlib.sha256()  # every CLI table, in batch order
        self.layers = None
        self.rss_mb = None  # peak resident memory when the timed pass ended

    @property
    def wall(self):
        return sum(self.latency)


def run_batch(wl, workload, inputs, check, reference, tracer=None):
    """One pass over the batch; oracles run after it, outside the timed region."""
    from stieltjes_spec import StieltjesSpecError

    batch = Batch(tracer is not None)
    ops = wl.build_batch(workload, inputs)
    outcomes = []
    with tracer or contextlib.nullcontext():
        for op in ops:
            t0 = time.perf_counter()
            try:
                outcomes.append((op, op.run(), None))
            except StieltjesSpecError as exc:
                outcomes.append((op, None, exc))
            batch.latency.append(time.perf_counter() - t0)
            batch.reference.append(reference())
    batch.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for op, result, error in outcomes:
        if error is not None:
            batch.digests.append(f"error {error.code}: {error}")
            batch.failed.append((op.label, error.code, str(error)))
            continue
        batch.digests.append(op.digest(result))
        if isinstance(result, wl.CliResult):
            batch.bytes_out += len(result.stdout.encode("utf-8")) + len(result.table)
            batch.tables.update(result.table)
            if result.code != 0:
                batch.failed.append((op.label, "EXIT", result.stderr.strip()))
                continue
        misses = op.check(result) if check else []
        if misses:
            batch.failed.append((op.label, "ORACLE", "; ".join(misses)))
    if tracer is not None:
        batch.layers = tracer.summary({"cli.bytes_out": batch.bytes_out})
    if check:
        batch.unexpected = [label for label, code, _ in batch.failed
                            if wl.KNOWN_FAILURES.get(label) != code]
    return batch


def measure(workload, seed, seconds, trace):
    setup = _setup_times(workload, seed)
    wl = _import_package()
    from tracing import EXACT, METRICS, Tracer

    reference = _reference_kernel()
    tmp = _scratch_dir()
    try:
        inputs = wl.make_inputs(workload, seed, tmp)
        deadline = time.perf_counter() + seconds
        batches = []
        while True:
            traced = bool(trace) and len(batches) % 2 == 1
            batch = run_batch(wl, workload, inputs, not batches, reference,
                              Tracer() if traced else None)
            if batches and batch.digests != batches[0].digests:
                diff = next(i for i, (a, b) in enumerate(zip(batch.digests, batches[0].digests))
                            if a != b)
                raise BenchmarkError(f"batch {len(batches)} differs from batch 0 at "
                                     f"operation {diff}: {batches[0].digests[diff]!r} "
                                     f"then {batch.digests[diff]!r}")
            batches.append(batch)
            kinds = {b.traced for b in batches}
            if trace and len(kinds) < 2:
                continue
            typical = statistics.median(b.wall for b in batches)
            if time.perf_counter() + typical > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    plain = [b for b in batches if not b.traced]
    traced = [b for b in batches if b.traced]
    per_op = list(zip(*(b.latency for b in plain)))
    latencies = sorted(t for b in plain for t in b.latency)
    first = batches[0]
    attempted = sum(len(b.latency) for b in batches)
    # later batches reproduce the first bit for bit, so they fail alike
    failed = len(first.failed) * len(batches)
    report = {
        "workload": workload,
        "seed": seed,
        "batches": len(plain),
        "traced_batches": len(traced),
        "ops_per_batch": len(first.latency),
        "batch_walls_s": [round(b.wall, 4) for b in batches],
        "openblas_threads": _openblas_threads(),
        "result_sha256": hashlib.sha256("\n".join(first.digests).encode()).hexdigest(),
        "cli_tables_sha256": first.tables.hexdigest() if first.bytes_out else None,
        "failures": [f"{label} [{code}] {detail[:100]}" for label, code, detail in first.failed],
        "unexpected_failures": first.unexpected,
    }
    wall = sum(statistics.median(ts) for ts in per_op)
    op_p50 = statistics.median(latencies)
    refs = [t for b in plain for t in b.reference]
    ref = statistics.median(refs)
    e2e = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "wall_ref": (wall / ref, "ref", len(plain)),
        "op_p50_ref": (op_p50 / ref, "ref", len(latencies)),
        # through the first pass only: later passes add allocator growth
        # that depends on how many batches fit in the run
        "peak_rss_mb": (first.rss_mb, "MB", 1),
    }
    extra = {
        "wall_s": (wall, "s", len(plain)),
        "op_p50_s": (op_p50, "s", len(latencies)),
        "ref_s": (ref, "s", len(refs)),
        "failed_frac": (failed / attempted, "1", attempted),
    }
    if len(latencies) >= 100:
        extra["op_p90_s"] = (statistics.quantiles(latencies, n=10)[-1], "s", len(latencies))
    if trace:
        counts = [{m: b.layers[m] for m in EXACT} for b in traced]
        if any(c != counts[0] for c in counts):
            raise BenchmarkError("per-layer counts differ between traced batches")
        layers = {}
        for metric, unit in METRICS.items():
            if metric == "trace.overhead_s":
                value = (statistics.median(b.wall for b in traced)
                         - statistics.median(b.wall for b in plain))
            elif metric in EXACT:
                value = traced[0].layers[metric]
            else:
                value = statistics.median(b.layers[metric] for b in traced)
            layers[metric] = (value, unit, len(traced))
        shown, metrics = {**e2e, **extra, **layers}, layers
    else:
        shown, metrics = {**e2e, **extra}, e2e
    return report, shown, metrics, attempted, failed, not first.unexpected


def run_one(args):
    report, shown, metrics, attempted, failed, correct = measure(
        args.workload, args.seed, args.seconds, args.trace)
    for key, value in report.items():
        print(f"# {key}: {value}")
    for name, (value, unit, samples) in shown.items():
        print(f"{args.workload:13s} {name:40s} {value:14.6g} {unit:6s} n={samples}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process, so caches and peak RSS are per workload."""
    results = {}
    for workload in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None):
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "stieltjes_spec", "__init__.py")):
        print(f"perfbench: no stieltjes_spec sources under {SRC}", file=sys.stderr)
        return 2
    # numpy's OpenBLAS may use every core this process may run on, no more
    os.environ.setdefault("OPENBLAS_NUM_THREADS", str(len(os.sched_getaffinity(0))))
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
