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
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import BadArgumentError, ConjugateMismatchError
from .ivp import (
    _CANONICAL,
    SolverConfig,
    Workspace,
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
    if xi not in (1, 2):
        raise BadArgumentError(f"boundary index must be 1 or 2, got {xi!r}")
    return int(xi)


def real_split(p: Measure, q: Measure, lam, cfg: SolverConfig | None = None,
               workspace: Workspace | None = None) -> RealSplit:
    """Split y1(1, lambda) for real lambda; reports a conjugation residue."""
    lam = complex(lam)
    if lam.imag != 0.0:
        raise BadArgumentError("real_split needs a real spectral parameter")
    ws = _workspace_for(p, q, workspace)
    v1 = solve_value(p, q, lam.real, _E1, cfg, ws)
    residue = _mirror_residue(p, q, lam.real, v1, cfg)
    return RealSplit(Y1=v1.real, Z1=v1.imag, residue=residue)


def _mirror_residue(p: Measure, q: Measure, lam_r: float, v1: complex,
                    cfg: SolverConfig) -> float:
    """RealSplit.residue of a verified v1 = y1(1, lam_r): one mirror solve."""
    # conjugating the equation flips the signs of p and lambda; evaluating
    # there exercises the other root branch, giving an independent value
    v2 = solve_value(p.scaled(-1.0), q, -lam_r, _E1, cfg)
    return abs(v1 - v2.conjugate()) / max(1.0, abs(v1))


def boundary_matrix(p: Measure, q: Measure, lam, xi,
                    cfg: SolverConfig | None = None,
                    workspace: Workspace | None = None):
    """The 2x2 endpoint pairing matrix M_xi(lambda)."""
    xi = _check_xi(xi)
    ws = _workspace_for(p, q, workspace)
    _, cols = _solve_columns(ws, complex(lam), (_E1, _E2), cfg)
    return _pairing_matrix(cols, xi)


def _pairing_matrix(cols, xi) -> np.ndarray:
    """M_xi from the first two canonical columns."""
    c1, c2 = cols
    sign = (-1.0) ** xi
    return np.array(
        [
            [c1.y_at_one, c2.y_at_one],
            [c1.yprime_at_one, c2.yprime_at_one + sign],
        ]
    )


def delta(p: Measure, q: Measure, lam, xi, cfg: SolverConfig | None = None,
          workspace: Workspace | None = None) -> complex:
    """Characteristic determinant Delta_xi, verified against the one-solve form."""
    xi = _check_xi(xi)
    lam = complex(lam)
    ws = _workspace_for(p, q, workspace)
    m = boundary_matrix(p, q, lam, xi, cfg, ws)
    d_det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    sign = (-1.0) ** xi
    y1_here = m[0, 0]
    if lam.imag == 0.0:
        y1_mirror = y1_here
    else:
        y1_mirror = solve_value(p, q, lam.conjugate(), _E1, cfg, ws)
    d_one = y1_mirror.conjugate() + sign * y1_here
    gap = abs(d_det - d_one)
    if gap > _ROUTE_TOL * max(1.0, abs(d_det), abs(d_one)):
        raise ConjugateMismatchError(
            "determinant and one-solve characteristic values disagree",
            lam=lam, xi=xi, det_route=d_det, one_solve_route=d_one, gap=gap,
        )
    return complex(d_det)
