"""First-order response of eigenvalues and of the fundamental matrix.

Directional derivatives against a perturbing measure nu:

  eigenvalue, p channel:  integral of |E|^2 d(nu)
  eigenvalue, q channel:  integral of -2 Im(conj(E) E') nu(t) dt,
      nu(t) the induced function.  The same quantity can be written as a
      Stieltjes pairing plus the boundary term nu(1)|E(1)|^2, which dies
      because every eigenfunction has E(1) = 0.

  fundamental matrix, p channel:
      i N(x) . integral over [0, x] of col3(N^{-1}) (x) (y-row) d(nu)
  fundamental matrix, q channel:
      -N(x) . [ same integral + 2 . integral of col3(N^{-1}) (x) (y'-row)
                with weight nu(t) dt ]

col3(N^{-1}) is the adjugate column built from the continuous rows, so every
integrand above is continuous and the atom contributions are unambiguous.
The integrals run over [0, x], except that a point mass sitting exactly at
0 is dropped everywhere. The evolution integrates over a right-open window,
so an origin atom reaches neither the jump channel nor the drift; it cannot
move N or the spectrum, and every derivative along such a direction is 0.

All four integrals use one fixed rule: the cells of the solution mesh up to
x, cut at the breakpoints of nu, carry the mesh's 6-point Gauss rule, and
the atoms of nu in (0, x] are added as point values.  Each integrand is
smooth on every such cell, so no adaptive refinement is needed; where nu
adds no cut, the Gauss points are the solver's own nodes and the rule reads
the stored node values.

fd_check compares each formula with centered finite differences, tracking
the perturbed eigenvalue inside its own lattice window.

Working range of the matrix formulas: they agree with finite differences to
about 1e-10 (relative to the largest entry) for |lambda| <= 300, and are
validated only there.  Above it they drift, for reasons not yet verified.
On the ROADMAP problem (p = atom(0.4, 0.3), q = atom(0.5, 0.7) + 0.5 dx)
in the q channel along atom-plus-density directions, the relative error is
about 1.5e-5 at lambda = 2000 and 8e-4 to 3e-3 at 3000.  It is the same for solver
tol 1e-9 and 1e-11 and for finite-difference steps 1e-3 to 1e-5.  Under
mesh doubling (256, 512, 1024 cells) it falls for some directions (2.7e-3,
9.8e-4, 5.8e-4) and stays flat for others (1.2e-3, 9.7e-4, 1.0e-3), and a
1e-15 relative change in the rows (interpolated instead of stored node
values) moves it by a third.  Nor do the recovered y' rows cause it: taking
y' = z0 + int w, 2-5x closer to the exact atomic solution, moved the error
along atom(0.3, 1) plus density 1 on [0.2, 0.7) only from 3.7e-6 to 3.5e-6
at lambda = 2000 and from 7.1e-4 to 4.8e-4 at 3000.  The p channel at
lambda = 3000 stays at 3e-9 to 6e-9 along an atom at 0.3 and density 1 on
[0.2, 0.7), and reaches 1e-7 along an atom at 0.6.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadArgumentError, UnsupportedMultiplicityError, _finite, _positive
from .ivp import (
    FundamentalPath,
    SolverConfig,
    Workspace,
    _adjugate_column3,
    _gauss_cells,
)
from .measure import Measure
from .spectrum import (
    Eigenpair,
    _root_fn,
    _track_root,
    find_eigenvalue,
)


class FdRow(NamedTuple):
    epsilon: float
    fd_value: float
    formula_value: float
    abs_error: float


def _check_channel(channel):
    if channel not in ("p", "q"):
        raise BadArgumentError(f"channel must be 'p' or 'q', got {channel!r}")


def _check_steps(steps) -> list[float]:
    """The finite difference steps as floats, at least one, each positive."""
    steps = [_positive(eps, "finite difference steps") for eps in steps]
    if not steps:
        raise BadArgumentError("need at least one finite difference step")
    return steps


def _perturbed(p, q, nu, channel, s):
    """(p, q) with s * nu added to the given channel."""
    return (p.plus(nu.scaled(s)), q) if channel == "p" else (p, q.plus(nu.scaled(s)))


def _require_simple(pair: Eigenpair):
    if pair.g_mult != 1 or pair.E is None:
        raise UnsupportedMultiplicityError(
            "sensitivity formulas cover simple eigenvalues only",
            n=pair.n, xi=pair.xi, g_mult=pair.g_mult,
        )


def _rule(nodes: np.ndarray, nu: Measure, x: float):
    """Points and weights of the one quadrature every formula uses.

    The path's cells up to x, cut at the breakpoints of nu, each carry the
    mesh's 6-point Gauss rule; the atoms of nu in (0, x] follow as points of
    their own (an origin atom never enters).  Returns the points, their
    weights against d(nu), and their weights against nu(t) dt, which the
    atoms do not carry.
    """
    inner = [b for b in nu.breakpoints() if 0.0 < b < x]
    _, tg, gw = _gauss_cells(np.union1d(nodes[nodes < x], inner + [x]))
    tg, gw = tg.ravel(), gw.ravel()
    atoms = [a for a in nu.atoms if 0.0 < a.x <= x]
    t = np.concatenate([tg, [a.x for a in atoms]])
    w_nu = np.concatenate([gw * nu.density_many(tg), [a.w for a in atoms]])
    w_drift = np.concatenate([gw * nu.drift_many(tg), np.zeros(len(atoms))])
    return t, w_nu, w_drift


def _eigenvalue_gradient(pair: Eigenpair, nu: Measure, channel: str) -> float:
    _require_simple(pair)
    e = pair.E
    t, w_nu, w_drift = _rule(e.nodes, nu, 1.0)
    y = e.eval_y(t)
    if channel == "p":
        return float(np.dot(w_nu, np.abs(y) ** 2))
    return float(np.dot(w_drift, -2.0 * (y.conjugate() * e.eval_yprime(t)).imag))


def eigenvalue_gradient_p(pair: Eigenpair, nu: Measure) -> float:
    """Directional derivative of the eigenvalue when nu is added to p."""
    return _eigenvalue_gradient(pair, nu, "p")


def eigenvalue_gradient_q(pair: Eigenpair, nu: Measure) -> float:
    """Directional derivative of the eigenvalue when nu is added to q."""
    return _eigenvalue_gradient(pair, nu, "q")


# ---------------------------------------------------------------------------
# fundamental matrix response


def _nu_workspace(p, q, nu, x):
    extras = list(nu.breakpoints())
    if 0.0 < x < 1.0:
        extras.append(float(x))
    return Workspace(p, q, extra_breakpoints=tuple(extras))


def _fundamental_gradient(p, q, lam, nu, x, cfg, channel) -> np.ndarray:
    x = _finite(x, "evaluation point")
    if not 0.0 < x <= 1.0:
        raise BadArgumentError(f"evaluation point {x} outside (0, 1]")
    fp = FundamentalPath(p, q, lam, cfg, _nu_workspace(p, q, nu, x))
    t, w_nu, w_drift = _rule(fp.columns[0].nodes, nu, x)
    y_rows = np.stack([c.eval_y(t) for c in fp.columns], axis=-1)
    yp_rows = np.stack([c.eval_yprime(t) for c in fp.columns], axis=-1)
    adj = _adjugate_column3(y_rows, yp_rows)
    acc = np.einsum("g,gi,gj->ij", w_nu, adj, y_rows)
    if channel == "p":
        return 1j * (fp.matrix(x) @ acc)
    slide = np.einsum("g,gi,gj->ij", w_drift, adj, yp_rows)
    return -(fp.matrix(x) @ (acc + 2.0 * slide))


def fundamental_gradient_p(p: Measure, q: Measure, lam: complex, nu: Measure,
                           x: float = 1.0,
                           cfg: SolverConfig | None = None) -> np.ndarray:
    """Directional derivative of N(x) when nu is added to p."""
    return _fundamental_gradient(p, q, lam, nu, x, cfg, "p")


def fundamental_gradient_q(p: Measure, q: Measure, lam: complex, nu: Measure,
                           x: float = 1.0,
                           cfg: SolverConfig | None = None) -> np.ndarray:
    """Directional derivative of N(x) when nu is added to q."""
    return _fundamental_gradient(p, q, lam, nu, x, cfg, "q")


# ---------------------------------------------------------------------------
# finite difference cross-checks


def fd_check(p: Measure, q: Measure, xi, n, nu: Measure, channel: str = "p",
             epsilons=(1e-2, 1e-3, 1e-4),
             cfg: SolverConfig | None = None) -> list[FdRow]:
    """Centered differences of the eigenvalue against the pairing formula.

    Each perturbed eigenvalue is tracked from the base root inside its own
    window; a tracking jump raises rather than silently comparing different
    branches.
    """
    _check_channel(channel)
    epsilons = _check_steps(epsilons)
    ws = _nu_workspace(p, q, nu, 1.0)
    base = find_eigenvalue(p, q, xi, n, cfg, ws)
    gradient = eigenvalue_gradient_p if channel == "p" else eigenvalue_gradient_q
    formula = gradient(base, nu)
    rows = []
    for eps in epsilons:
        lams = []
        for side in (eps, -eps):
            pp, qq = _perturbed(p, q, nu, channel, side)
            f = _root_fn(pp, qq, xi, cfg, Workspace(pp, qq))
            lams.append(_track_root(f, base.k) ** 3)
        fd = (lams[0] - lams[1]) / (2.0 * eps)
        rows.append(FdRow(eps, fd, formula, abs(fd - formula)))
    return rows


def fundamental_fd_check(p: Measure, q: Measure, lam: complex, nu: Measure,
                         channel: str = "p", epsilon: float = 1e-4,
                         x: float = 1.0,
                         cfg: SolverConfig | None = None):
    """Centered difference of N(x) against the matrix formula.

    Returns (fd_matrix, formula_matrix, max entrywise abs error).
    """
    _check_channel(channel)
    (epsilon,) = _check_steps([epsilon])
    gradient = fundamental_gradient_p if channel == "p" else fundamental_gradient_q
    formula = gradient(p, q, lam, nu, x, cfg)
    sides = []
    for s in (epsilon, -epsilon):
        pp, qq = _perturbed(p, q, nu, channel, s)
        ws = _nu_workspace(pp, qq, nu, x)
        sides.append(FundamentalPath(pp, qq, lam, cfg, ws).matrix(x))
    fd = (sides[0] - sides[1]) / (2.0 * epsilon)
    err = float(np.max(np.abs(fd - formula)))
    return fd, formula, err
