"""Command line front end.

Five subcommands: solve, charfn, eig, sens, lab. Tables land in a file
when --out is given (csv or json); a short human summary always goes to
standard output. Failures print one machine-readable JSON object on
standard error and exit with the taxonomy code: 2 input, 3 numerical,
4 internal inconsistency. A number inside a measure literal, or a measure
file, that cannot be read reports MEASURE_PARSE; a bad number in any other
flag (--lambda, --epsilons, --tol, ...) reports BAD_ARGUMENT.

Output is deterministic byte for byte: floats are printed with repr,
headers carry the tool version, a sha256 over the resolved run
configuration, and the tolerances in effect. Sweeps run in input order;
STIELTJES_SPEC_THREADS is validated as a positive integer cap but sweeps
are evaluated serially, which trivially satisfies the ordering rule.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .charfn import _one_solve, _real_lambda, real_split
from .errors import BadArgumentError, MeasureParseError, StieltjesSpecError, _positive
from .ivp import InitialTriple, SolverConfig, Workspace, cube_root, solve_picard
from .lab import (
    asymptotic_residuals,
    bound_audit,
    solution_continuity,
    weakstar_eig,
)
from .measure import Measure, oscillation_sequence, ramp_sequence
from .sens import fd_check
from .spectrum import _BISECT_TOL, find_eigenvalue, spectrum_scan

_TOOL = "stieltjes-spec"

# ---------------------------------------------------------------------------
# parsing helpers


def parse_measure(text: str) -> Measure:
    """Measure from a shorthand literal or a JSON file path.

    Literals: zero | lebesgue | atom:x:w | density:[c0,c1,...]. The
    density shorthand spans all of [0, 1). Anything else is a file path.
    """
    token = text.strip()
    if token == "zero":
        return Measure.zero()
    if token == "lebesgue":
        return Measure.lebesgue()
    if token.startswith("atom:"):
        parts = token.split(":")
        if len(parts) != 3:
            raise MeasureParseError(f"atom literal needs atom:x:w, got {text!r}")
        return Measure.point(_parse_float(parts[1], MeasureParseError),
                             _parse_float(parts[2], MeasureParseError))
    if token.startswith("density:"):
        body = token[len("density:"):]
        if not (body.startswith("[") and body.endswith("]")):
            raise MeasureParseError(
                f"density literal needs density:[c0,c1,...], got {text!r}")
        items = [s for s in body[1:-1].split(",") if s.strip()]
        if not items:
            raise MeasureParseError("density literal needs coefficients")
        return Measure.from_density(
            0.0, 1.0, tuple(_parse_float(s, MeasureParseError) for s in items))
    if not os.path.exists(token):
        raise MeasureParseError(f"measure file not found: {token}")
    with open(token, encoding="utf-8") as fh:
        return Measure.from_json(fh.read())


def _parse_float(text: str, error=BadArgumentError) -> float:
    """A finite float; measure literals pass error=MeasureParseError."""
    try:
        value = float(text)
    except ValueError as exc:
        raise error(f"cannot parse number {text!r}") from exc
    if not math.isfinite(value):
        raise error(f"number must be finite, got {text!r}")
    return value


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as exc:
        raise BadArgumentError(f"cannot parse complex number {text!r}") from exc


def _parse_init(text: str) -> InitialTriple:
    parts = text.split(",")
    if len(parts) != 3:
        raise BadArgumentError(f"--init needs three comma-separated values, got {text!r}")
    return InitialTriple(*(_parse_complex(s) for s in parts))


def _parse_lambda_list(text: str) -> tuple[complex, ...]:
    values = tuple(_parse_complex(s) for s in text.split(",") if s.strip())
    if not values:
        raise BadArgumentError("need at least one lambda")
    return values


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(s) for s in text.split(",") if s.strip())
    except ValueError as exc:
        raise BadArgumentError(f"cannot parse integer list {text!r}") from exc
    if not values:
        raise BadArgumentError("need at least one entry")
    return values


def _parse_float_list(text: str) -> tuple[float, ...]:
    values = tuple(_parse_float(s) for s in text.split(",") if s.strip())
    if not values:
        raise BadArgumentError("need at least one entry")
    return values


def thread_cap() -> int:
    raw = os.environ.get("STIELTJES_SPEC_THREADS")
    if raw is None:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise BadArgumentError(
            f"STIELTJES_SPEC_THREADS must be an integer, got {raw!r}") from exc
    if n < 1:
        raise BadArgumentError("STIELTJES_SPEC_THREADS must be positive")
    return n


# ---------------------------------------------------------------------------
# deterministic emission


def _cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (complex, np.complexfloating)):
        z = complex(value)
        if z.imag == 0.0:
            return repr(z.real)
        sign = "+" if z.imag >= 0 else "-"
        return f"{z.real!r}{sign}{abs(z.imag)!r}i"
    return str(value)


def _human(z: complex) -> str:
    # summary lines chop parts swamped by the other component; files keep
    # every bit
    z = complex(z)
    re, im = z.real, z.imag
    scale = max(abs(re), abs(im))
    if scale > 0.0:
        if abs(im) < 1e-12 * scale:
            im = 0.0
        if abs(re) < 1e-12 * scale:
            re = 0.0
    if im == 0.0:
        return f"{re:g}"
    return f"{re:g}{im:+g}i"


def _config_sha(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _document(fmt: str, schema: str, sha: str, tolerances: dict,
              columns: tuple, rows: list) -> str:
    if fmt == "json":
        doc = {
            "tool": _TOOL,
            "version": __version__,
            "schema": schema,
            "config_sha256": sha,
            "tolerances": tolerances,
            "columns": list(columns),
            "rows": [[_cell(v) for v in row] for row in rows],
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    lines = [
        f"# {_TOOL} {__version__}",
        f"# schema: {schema}",
        f"# config-sha256: {sha}",
        "# tolerances: " + " ".join(
            f"{k}={_cell(v)}" for k, v in sorted(tolerances.items())),
        ",".join(columns),
    ]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit(args, schema: str, sha: str, tolerances: dict,
          columns: tuple, rows: list) -> None:
    if args.out is None:
        return
    text = _document(args.format, schema, sha, tolerances, columns, rows)
    with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    p = parse_measure(args.p)
    q = parse_measure(args.q)
    lam = _parse_complex(args.lam)
    init = _parse_init(args.init)
    cfg = SolverConfig(mesh_size=args.grid, tol=args.tol)
    sha = _config_sha({
        "command": "solve", "p": p.to_json(), "q": q.to_json(),
        "lambda": _cell(lam),
        "init": [_cell(init.y0), _cell(init.z0), _cell(init.w0)],
        "grid": args.grid, "tol": args.tol, "format": args.format,
    })
    path = solve_picard(p, q, lam, init, cfg)
    rows = [
        (x, y.real, y.imag, yp.real, yp.imag, w.real, w.imag, flag)
        for x, y, yp, w, flag in path.to_rows()
    ]
    _emit(args, "solve-v1", sha, {"solver_tol": args.tol},
          ("x", "re_y", "im_y", "re_yprime", "im_yprime", "re_w", "im_w",
           "is_atom"), rows)
    print(f"y(1)={_human(path.y_at_one)} y'(1)={_human(path.yprime_at_one)} "
          f"w(1)={_human(path.w_at_one)}")
    return 0


def cmd_charfn(args) -> int:
    p = parse_measure(args.p)
    q = parse_measure(args.q)
    cfg = SolverConfig(mesh_size=args.grid_mesh, tol=args.tol)
    if args.grid < 1:
        raise BadArgumentError("--grid needs at least one scan point")
    if ":" in args.lam:
        lo, hi = (_parse_float(s) for s in args.lam.split(":", 1))
        if not lo < hi:
            raise BadArgumentError("lambda range needs lo < hi")
        lams = np.linspace(lo, hi, args.grid)
    else:
        lams = np.array([_real_lambda(_parse_complex(args.lam), "charfn")])
    sha = _config_sha({
        "command": "charfn", "p": p.to_json(), "q": q.to_json(),
        "bc": args.bc, "lambda": args.lam, "grid": args.grid,
        "tol": args.tol, "format": args.format,
    })
    ws = Workspace(p, q)
    rows = []
    for lam in lams:
        lam = float(lam)
        split = real_split(p, q, lam, cfg, ws)
        y1 = complex(split.Y1, split.Z1)
        delta = _one_solve(y1, y1, args.bc)
        rows.append((lam, cube_root(lam), delta.real, delta.imag,
                     split.Y1, split.Z1))
    _emit(args, "charfn-v1", sha, {"solver_tol": args.tol},
          ("lambda", "k", "re_delta", "im_delta", "y1", "z1"), rows)
    print(f"rows={len(rows)}")
    return 0


def cmd_eig(args) -> int:
    p = parse_measure(args.p)
    q = parse_measure(args.q)
    if args.n_min > args.n_max:
        raise BadArgumentError("need --n-min <= --n-max")
    _positive(args.c_pi, "c_pi")
    cfg = SolverConfig(tol=args.tol)
    sha = _config_sha({
        "command": "eig", "p": p.to_json(), "q": q.to_json(), "bc": args.bc,
        "n_min": args.n_min, "n_max": args.n_max, "tol": args.tol,
        "c_pi": args.c_pi, "verify_count": args.verify_count,
        "format": args.format,
    })
    if args.verify_count:
        pairs = spectrum_scan(p, q, args.bc, args.n_min, args.n_max, cfg)
    else:
        ws = Workspace(p, q)
        pairs = [find_eigenvalue(p, q, args.bc, n, cfg, ws)
                 for n in range(args.n_min, args.n_max + 1)]
    rows = [
        (pr.xi, pr.n, pr.lam, pr.k, pr.a_simple, pr.g_mult,
         pr.bc_residual, pr.norm_residual)
        for pr in pairs
    ]
    _emit(args, "eig-v1", sha,
          {"solver_tol": args.tol, "bisect_tol": _BISECT_TOL,
           "c_pi": args.c_pi},
          ("xi", "n", "lambda", "k", "a_simple", "g_mult", "bc_residual",
           "norm_residual"), rows)
    print(f"eigenvalues={len(rows)}")
    if args.verify_count:
        print("counts consistent")
    return 0


def cmd_sens(args) -> int:
    p = parse_measure(args.p)
    q = parse_measure(args.q)
    nu = parse_measure(args.nu)
    if args.n_min > args.n_max:
        raise BadArgumentError("need --n-min <= --n-max")
    epsilons = _parse_float_list(args.epsilons)
    cfg = SolverConfig(tol=args.tol)
    sha = _config_sha({
        "command": "sens", "p": p.to_json(), "q": q.to_json(),
        "nu": nu.to_json(), "bc": args.bc, "n_min": args.n_min,
        "n_max": args.n_max, "channel": args.channel,
        "epsilons": list(epsilons), "tol": args.tol, "format": args.format,
    })
    rows = []
    for n in range(args.n_min, args.n_max + 1):
        for fr in fd_check(p, q, args.bc, n, nu, channel=args.channel,
                           epsilons=epsilons, cfg=cfg):
            rows.append((args.bc, n, args.channel, fr.epsilon, fr.fd_value,
                         fr.formula_value, fr.abs_error))
    _emit(args, "sens-v1", sha, {"solver_tol": args.tol},
          ("xi", "n", "channel", "epsilon", "fd", "formula", "abs_error"),
          rows)
    print(f"rows={len(rows)}")
    return 0


# the four lab experiments share the emission plumbing but differ in
# flags, so each gets its own small driver

_BUILDERS = {"ramp": ramp_sequence, "oscillation": oscillation_sequence}
_WEAKSTAR_LIMIT = {"ramp": "atom:0.5:1", "oscillation": "zero"}


def _lab_weakstar(args, cfg, sha_base) -> int:
    if args.family not in _BUILDERS:
        raise BadArgumentError(
            f"weakstar needs --family ramp or oscillation, got {args.family!r}")
    builder = _BUILDERS[args.family]
    limit = parse_measure(args.limit if args.limit is not None
                          else _WEAKSTAR_LIMIT[args.family])
    fixed = parse_measure(args.fixed)
    ms = _parse_int_list(args.m)
    rep = weakstar_eig(builder, ms, limit, fixed, args.bc, args.n_min,
                       cfg, channel=args.channel)
    sha = _config_sha(dict(sha_base, family=args.family, m=list(ms),
                           limit=limit.to_json(), fixed=fixed.to_json(),
                           channel=args.channel, bc=args.bc, n=args.n_min))
    rows = list(zip(rep.params, rep.values, rep.errors))
    _emit(args, "lab-weakstar-v1", sha, {"solver_tol": args.tol},
          ("m", "value", "error"), rows)
    print(f"reference={rep.reference!r}")
    print(f"verdict: {'true' if rep.verdict else 'false'}")
    return 0


def _lab_solcont(args, cfg, sha_base) -> int:
    p = parse_measure(args.p)
    q = parse_measure(args.q)
    lams = _parse_lambda_list(args.lam)
    if args.family == "lebesgue":
        seq = [Measure.lebesgue(eps) for eps in _parse_float_list(args.epsilons)]
    elif args.family == "oscillation":
        seq = [oscillation_sequence(m) for m in _parse_int_list(args.m)]
    elif args.family == "ramp":
        seq = [ramp_sequence(m) for m in _parse_int_list(args.m)]
    else:
        # smear an atom the base is expected to carry; keeps the total
        # mass fixed so only the jump location is being tested
        seq = [ramp_sequence(m).plus(Measure.point(0.5, -1.0))
               for m in _parse_int_list(args.m)]
    perturbations = [(d, None) if args.channel == "p" else (None, d)
                     for d in seq]
    rep = solution_continuity(p, q, perturbations, lams, cfg=cfg)
    sha = _config_sha(dict(sha_base, p=p.to_json(), q=q.to_json(),
                           family=args.family, channel=args.channel,
                           lams=[_cell(l) for l in lams]))
    chan = dict(rep.channels)
    rows = list(zip(rep.params, chan["y"], chan["yprime"], chan["w"],
                    rep.values))
    _emit(args, "lab-solcont-v1", sha, {"solver_tol": args.tol},
          ("size", "sup_y", "sup_yprime", "sup_w", "sup_all"), rows)
    print(f"verdict: {'true' if rep.verdict else 'false'}")
    return 0


def _lab_bounds(args, cfg, sha_base) -> int:
    lams = _parse_lambda_list(args.lam)
    if args.seed is not None:
        if args.samples < 1:
            raise BadArgumentError("--samples needs at least one case")
        rng = np.random.default_rng(args.seed)
        cases = []
        for _ in range(args.samples):
            pr = Measure.zero()
            qr = Measure.zero()
            for _ in range(2):
                pr = pr.plus(Measure.point(float(rng.uniform(0.05, 1.0)),
                                           float(rng.uniform(-0.5, 0.5))))
                qr = qr.plus(Measure.point(float(rng.uniform(0.05, 1.0)),
                                           float(rng.uniform(-0.5, 0.5))))
            cases.append((pr, qr))
    else:
        cases = [(parse_measure(args.p), parse_measure(args.q))]
    sha = _config_sha(dict(sha_base, seed=args.seed, samples=args.samples,
                           cases=[(pc.to_json(), qc.to_json()) for pc, qc in cases],
                           lams=[_cell(l) for l in lams]))
    rows = []
    ok = True
    points = 0
    for idx, (pc, qc) in enumerate(cases):
        rep = bound_audit(pc, qc, lams, cfg)
        ok = ok and rep.ok
        points += rep.points
        for lam, km, sr, cr in zip(rep.lams, rep.k_mags, rep.solution_ratios,
                                   rep.comparison_ratios):
            nviol = sum(1 for v in rep.violations if v[0] == lam)
            rows.append((idx, lam, km, sr, cr, nviol))
    _emit(args, "lab-bounds-v1", sha, {"solver_tol": args.tol},
          ("sample", "lambda", "k_mag", "solution_ratio", "comparison_ratio",
           "violations"), rows)
    print(f"ok: {'true' if ok else 'false'} points={points}")
    return 0


def _lab_asym(args, cfg, sha_base) -> int:
    p = parse_measure(args.p)
    q = parse_measure(args.q)
    rep = asymptotic_residuals(p, q, args.bc, args.n_min, args.n_max, cfg)
    sha = _config_sha(dict(sha_base, p=p.to_json(), q=q.to_json(),
                           bc=args.bc, n_min=args.n_min, n_max=args.n_max))
    rows = list(zip(rep.ns, rep.lams, rep.leading, rep.residuals))
    _emit(args, "lab-asym-v1", sha, {"solver_tol": args.tol},
          ("n", "lambda", "leading", "residual"), rows)
    print(f"bounded: {'true' if rep.bounded else 'false'} "
          f"upper_max={rep.upper_max!r} lower_max={rep.lower_max!r} "
          f"q_integral={rep.q_integral!r}")
    return 0


def cmd_lab(args) -> int:
    cfg = SolverConfig(tol=args.tol)
    sha_base = {"command": f"lab-{args.experiment}", "tol": args.tol,
                "format": args.format}
    driver = {
        "weakstar": _lab_weakstar,
        "solcont": _lab_solcont,
        "bounds": _lab_bounds,
        "asym": _lab_asym,
    }[args.experiment]
    return driver(args, cfg, sha_base)


# ---------------------------------------------------------------------------
# parser wiring


class _Parser(argparse.ArgumentParser):
    """argparse that reports errors through the taxonomy instead of exiting."""

    def error(self, message):
        raise BadArgumentError(message)


def _add_common(sub, with_init=False):
    sub.add_argument("--p", default="zero", help="p measure literal or file")
    sub.add_argument("--q", default="zero", help="q measure literal or file")
    sub.add_argument("--tol", type=float, default=1e-9,
                     help="solver sup-norm tolerance")
    sub.add_argument("--out", default=None, help="output file path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    if with_init:
        sub.add_argument("--init", default="1,0,0",
                         help="initial (y, y', w) as comma list")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog=_TOOL, description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"{_TOOL} {__version__}")
    subs = parser.add_subparsers(dest="command", required=True,
                                 parser_class=_Parser)

    s = subs.add_parser("solve", help="integrate one initial value problem")
    _add_common(s, with_init=True)
    s.add_argument("--lambda", dest="lam", required=True,
                   help="spectral parameter, complex accepted")
    s.add_argument("--grid", type=int, default=256,
                   help="unit of the level-0 mesh ladder")
    s.set_defaults(func=cmd_solve)

    s = subs.add_parser("charfn", help="tabulate the characteristic function")
    _add_common(s)
    s.add_argument("--lambda", dest="lam", required=True,
                   help="real value or lo:hi scan range")
    s.add_argument("--bc", type=int, choices=(1, 2), required=True)
    s.add_argument("--grid", type=int, default=200, help="scan point count")
    s.add_argument("--grid-mesh", type=int, default=256,
                   help="unit of the level-0 mesh ladder")
    s.set_defaults(func=cmd_charfn)

    s = subs.add_parser("eig", help="locate eigenvalues by lattice index")
    _add_common(s)
    s.add_argument("--bc", type=int, choices=(1, 2), required=True)
    s.add_argument("--n-min", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--c-pi", type=float, default=1e4,
                   help="lattice constant for the counting threshold")
    s.add_argument("--verify-count", action="store_true",
                   help="index through one central winding count (each "
                        "window is counted either way)")
    s.set_defaults(func=cmd_eig)

    s = subs.add_parser("sens", help="finite-difference table for eigenvalue derivatives")
    _add_common(s)
    s.add_argument("--bc", type=int, choices=(1, 2), required=True)
    s.add_argument("--n-min", type=int, required=True)
    s.add_argument("--n-max", type=int, required=True)
    s.add_argument("--nu", default="lebesgue",
                   help="direction measure literal or file")
    s.add_argument("--channel", choices=("p", "q"), default="p")
    s.add_argument("--epsilons", default="1e-2,1e-3,1e-4",
                   help="comma list of step sizes")
    s.set_defaults(func=cmd_sens)

    s = subs.add_parser("lab", help="batch experiments")
    s.add_argument("experiment",
                   choices=("weakstar", "solcont", "bounds", "asym"))
    _add_common(s)
    s.add_argument("--lambda", dest="lam", default="64",
                   help="comma list of lambda values (solcont, bounds)")
    s.add_argument("--bc", type=int, choices=(1, 2), default=1)
    s.add_argument("--n-min", type=int, default=1)
    s.add_argument("--n-max", type=int, default=4)
    s.add_argument("--family", choices=("ramp", "oscillation", "lebesgue",
                                        "ramp-vs-atom"), default="ramp")
    s.add_argument("--m", default="10,100", help="comma list of sequence indices")
    s.add_argument("--epsilons", default="1e-1,1e-2,1e-3",
                   help="comma list of scales (lebesgue family)")
    s.add_argument("--limit", default=None,
                   help="weak-star limit measure (weakstar)")
    s.add_argument("--fixed", default="zero",
                   help="measure held fixed in the other slot (weakstar)")
    s.add_argument("--channel", choices=("p", "q"), default="p")
    s.add_argument("--seed", type=int, default=None,
                   help="randomize audited measures (bounds)")
    s.add_argument("--samples", type=int, default=5,
                   help="number of random cases when --seed is set")
    s.set_defaults(func=cmd_lab)

    return parser


def main(argv=None) -> int:
    try:
        thread_cap()
        args = build_parser().parse_args(argv)
        return args.func(args)
    except StieltjesSpecError as exc:
        payload = {"error": exc.code, "exit": exc.exit_code,
                   "message": str(exc)}
        sys.stderr.write(json.dumps(payload, sort_keys=True) + "\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
