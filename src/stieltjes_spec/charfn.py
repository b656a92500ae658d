"""Boundary characteristic functions for the two self-adjoint endpoint pairings.

The pairing with index xi in {1, 2} couples the endpoints through

    M_xi(lambda) = [[y1(1),  y2(1)],
                    [y1'(1), y2'(1) + (-1)^xi]],

built from the first two canonical solutions.  Its determinant Delta_xi
vanishes exactly at the eigenvalues.  The same quantity has a one-solve form

    Delta_xi(lambda) = conj(y1(1, conj(lambda))) + (-1)^xi y1(1, lambda),

and delta() evaluates both routes, refusing to answer when they disagree.

For real lambda the split y1(1) = Y1 + i Z1 turns the two pairings into real
root problems: Delta_1 = -2i Z1 and Delta_2 = 2 Y1.

This module is the one home of the pairing: its sign, the (E1, E2) solve
with M_xi, the one-solve Delta and the real characteristic Z1 or Y1.  The
last two take solved values, so spectrum makes its own solves.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadArgumentError, ConjugateMismatchError, _integer
from .ivp import (
    _CANONICAL,
    SolverConfig,
    Workspace,
    _finite_lambda,
    _mirror_value,
    _solve_columns,
    _workspace_for,
    solve_value,
)
from .measure import Measure

# relative agreement demanded between the two Delta routes
_ROUTE_TOL = 1e-8

_E1, _E2 = _CANONICAL[:2]


class RealSplit(NamedTuple):
    """Real and imaginary parts of y1(1, lambda) plus a branch residue.

    residue measures the drift between the direct evaluation and the one
    obtained from the conjugated problem (p -> -p, lambda -> -lambda); it
    stays near roundoff whenever the inputs are genuinely real.
    """

    Y1: float
    Z1: float
    residue: float


def _check_xi(xi) -> int:
    xi = _integer(xi, "boundary index")
    if xi not in (1, 2):
        raise BadArgumentError(f"boundary index must be 1 or 2, got {xi!r}")
    return xi


def _sign(xi: int) -> float:
    """(-1)^xi, the sign the pairing puts on y2'(1)."""
    return (-1.0) ** xi


def _one_solve(y1, y1_mirror, xi: int):
    """Delta_xi from y1(1) at lambda and at conj lambda, scalars or arrays."""
    return y1_mirror.conjugate() + _sign(xi) * y1


def _real_characteristic(y1, xi: int):
    """Z1 (xi = 1) or Y1 (xi = 2) of y1(1), or of conj(Delta_xi) / 2 at real lambda."""
    return y1.imag if xi == 1 else y1.real


def _real_lambda(lam, who: str) -> float:
    """A finite lambda with zero imaginary part, as a float."""
    lam = _finite_lambda(lam)
    if lam.imag != 0.0:
        raise BadArgumentError(f"{who} needs a real spectral parameter, got {lam!r}")
    return lam.real


def real_split(p: Measure, q: Measure, lam, cfg: SolverConfig | None = None,
               workspace: Workspace | None = None) -> RealSplit:
    """Split y1(1, lambda) for real lambda; reports a conjugation residue."""
    lam = _real_lambda(lam, "real_split")
    ws = _workspace_for(p, q, workspace)
    v1 = solve_value(p, q, lam, _E1, cfg, ws)
    residue = _mirror_residue(ws, lam, v1, cfg)
    return RealSplit(Y1=v1.real, Z1=v1.imag, residue=residue)


def _mirror_residue(ws: Workspace, lam_r: float, v1: complex,
                    cfg: SolverConfig | None) -> float:
    """RealSplit.residue of a verified v1 = y1(1, lam_r): one mirror solve."""
    # conjugating the equation flips the signs of p and lambda; evaluating
    # there exercises the other root branch, giving an independent value
    v2 = _mirror_value(ws, lam_r, _E1, cfg)
    return abs(v1 - v2.conjugate()) / max(1.0, abs(v1))


def boundary_matrix(p: Measure, q: Measure, lam, xi,
                    cfg: SolverConfig | None = None,
                    workspace: Workspace | None = None):
    """The 2x2 endpoint pairing matrix M_xi(lambda)."""
    xi = _check_xi(xi)
    return _pairing_solve(_workspace_for(p, q, workspace), lam, xi, cfg)[2]


def _pairing_solve(ws: Workspace, lam, xi: int, cfg: SolverConfig | None):
    """(geometry, (E1, E2) columns, M_xi) of one verified two-column solve."""
    geo, (c1, c2) = _solve_columns(ws, _finite_lambda(lam), (_E1, _E2), cfg)
    m = np.array(
        [
            [c1.y_at_one, c2.y_at_one],
            [c1.yprime_at_one, c2.yprime_at_one + _sign(xi)],
        ]
    )
    return geo, (c1, c2), m


def delta(p: Measure, q: Measure, lam, xi, cfg: SolverConfig | None = None,
          workspace: Workspace | None = None) -> complex:
    """Characteristic determinant Delta_xi, verified against the one-solve form."""
    xi = _check_xi(xi)
    lam = _finite_lambda(lam)
    ws = _workspace_for(p, q, workspace)
    m = boundary_matrix(p, q, lam, xi, cfg, ws)
    d_det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    y1_here = m[0, 0]
    if lam.imag == 0.0:
        y1_mirror = y1_here
    else:
        y1_mirror = solve_value(p, q, lam.conjugate(), _E1, cfg, ws)
    d_one = _one_solve(y1_here, y1_mirror, xi)
    gap = abs(d_det - d_one)
    if gap > _ROUTE_TOL * max(1.0, abs(d_det), abs(d_one)):
        raise ConjugateMismatchError(
            "determinant and one-solve characteristic values disagree",
            lam=lam, xi=xi, det_route=d_det, one_solve_route=d_one, gap=gap,
        )
    return complex(d_det)
