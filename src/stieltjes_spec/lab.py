"""Batch experiment drivers over the solver and spectrum layers.

Four drivers: eigenvalue continuity along a weakly converging coefficient
sequence, sup-norm solution continuity under small perturbations, an audit
of the a priori solution bounds, and eigenvalue asymptotics residuals.

Each driver returns a frozen report. Qualitative claims are restated at a
literally testable level: trend verdicts check that errors are
non-increasing past the first third of a sequence, and the asymptotics
verdict bounds the upper half of the residual range against the lower
half. CSV serialization lives in the command line layer, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import _check_xi
from .errors import BadArgumentError, NumericalError, UnsupportedMultiplicityError
from .ivp import (
    FundamentalPath,
    InitialTriple,
    SolverConfig,
    cube_root,
    solve_picard,
    xi_bound,
    zero_potential_rows,
)
from .measure import Measure, lebesgue_integral_of_induced
from .sens import _check_channel
from .spectrum import _check_index, _lattice_center, find_eigenvalue

# continuity sups are taken over this many uniform points plus every
# measure breakpoint
_GRID_POINTS = 513

# absolute floor for the asymptotics ratio verdict; absorbs root-finder
# noise when the residuals themselves vanish
_ASYM_FLOOR = 1e-6


def _trend_verdict(errors) -> bool:
    errs = [float(e) for e in errors]
    if not errs or any(not math.isfinite(e) for e in errs):
        return False
    start = len(errs) // 3
    return all(errs[i + 1] <= errs[i] for i in range(start, len(errs) - 1))


@dataclass(frozen=True)
class ConvergenceReport:
    """Observable per parameter, a reference value, and a trend verdict.

    verdict is true iff every error is finite and the errors are
    non-increasing after the first third of the sequence. channels
    optionally carries named per-channel error tuples behind the combined
    values.
    """

    params: tuple
    values: tuple
    reference: float
    errors: tuple
    verdict: bool
    channels: tuple = ()


@dataclass(frozen=True)
class ResidualReport:
    """Eigenvalues against their cubic-plus-linear leading term."""

    xi: int
    ns: tuple
    lams: tuple
    leading: tuple
    residuals: tuple
    q_integral: float

    @property
    def lower_max(self) -> float:
        half = (len(self.residuals) + 1) // 2
        return max(abs(r) for r in self.residuals[:half])

    @property
    def upper_max(self) -> float:
        half = len(self.residuals) // 2
        return max(abs(r) for r in self.residuals[half:])

    @property
    def bounded(self) -> bool:
        return self.upper_max <= 2.0 * self.lower_max + _ASYM_FLOOR


@dataclass(frozen=True)
class BoundAuditReport:
    """Per-lambda worst ratios of |value| to its theorem bound.

    A ratio above 1 is recorded as a violation; the bounds are theorems,
    so any violation points at a solver defect rather than at the input.
    """

    lams: tuple
    k_mags: tuple
    solution_ratios: tuple
    comparison_ratios: tuple
    violations: tuple
    points: int

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


# ---------------------------------------------------------------------------
# weak-star eigenvalue continuity


def weakstar_eig(builder, m_values, limit: Measure, fixed: Measure,
                 xi: int, n: int, cfg: SolverConfig | None = None,
                 channel: str = "p") -> ConvergenceReport:
    """Eigenvalue along builder(m) against the limiting measure.

    channel picks which coefficient the sequence occupies; the other one
    stays at `fixed`. A tracking failure at some m is reported as a NaN
    entry (and sinks the verdict) instead of aborting the sweep.
    """
    _check_channel(channel)
    m_values = tuple(m_values)
    if not m_values:
        raise BadArgumentError("need at least one sequence index")

    def eig(moving):
        pair = (moving, fixed) if channel == "p" else (fixed, moving)
        return find_eigenvalue(pair[0], pair[1], xi, n, cfg)

    ref = eig(limit)
    if ref.g_mult != 1:
        raise UnsupportedMultiplicityError(
            "limit eigenvalue must be simple", n=n, xi=xi, g_mult=ref.g_mult)
    values = []
    for m in m_values:
        try:
            values.append(eig(builder(m)).lam)
        except NumericalError:
            values.append(math.nan)
    errors = tuple(abs(v - ref.lam) for v in values)
    return ConvergenceReport(
        params=tuple(float(m) for m in m_values),
        values=tuple(values),
        reference=ref.lam,
        errors=errors,
        verdict=_trend_verdict(errors),
    )


# ---------------------------------------------------------------------------
# sup-norm solution continuity


def _channel_arrays(path, xs):
    return path.eval_y(xs), path.eval_yprime(xs), path.eval_w(xs, "right")


def solution_continuity(p0: Measure, q0: Measure, perturbations, lams,
                        init: InitialTriple = InitialTriple(1.0, 0.0, 0.0),
                        cfg: SolverConfig | None = None) -> ConvergenceReport:
    """Sup distance of perturbed solutions from the base, per perturbation.

    perturbations is a sequence of (dp, dq) pairs (None meaning no change
    in that slot). Sups run over a uniform grid joined with every measure
    breakpoint, over all requested lambdas, with right-limits in the w
    channel. params reports the measured sup-norm size of each
    perturbation's induced functions.
    """
    perturbations = [(dp, dq) for dp, dq in perturbations]
    if not perturbations:
        raise BadArgumentError("need at least one perturbation")
    lams = tuple(lams)
    if not lams:
        raise BadArgumentError("need at least one lambda")
    cuts = set(p0.breakpoints()) | set(q0.breakpoints())
    for dp, dq in perturbations:
        for d in (dp, dq):
            if d is not None:
                cuts |= set(d.breakpoints())
    xs = np.unique(np.concatenate(
        [np.linspace(0.0, 1.0, _GRID_POINTS), np.array(sorted(cuts))]
    )) if cuts else np.linspace(0.0, 1.0, _GRID_POINTS)
    xs = xs[(xs >= 0.0) & (xs <= 1.0)]

    base = {lam: _channel_arrays(solve_picard(p0, q0, lam, init, cfg), xs)
            for lam in lams}
    sizes, sup_y, sup_yp, sup_w = [], [], [], []
    for dp, dq in perturbations:
        p = p0.plus(dp) if dp is not None else p0
        q = q0.plus(dq) if dq is not None else q0
        size = 0.0
        for d in (dp, dq):
            if d is not None:
                size += float(np.max(np.abs(d.eval_many(xs))))
        sizes.append(size)
        worst = [0.0, 0.0, 0.0]
        for lam in lams:
            path = solve_picard(p, q, lam, init, cfg)
            for i, (a, b) in enumerate(zip(_channel_arrays(path, xs),
                                           base[lam])):
                worst[i] = max(worst[i], float(np.max(np.abs(a - b))))
        sup_y.append(worst[0])
        sup_yp.append(worst[1])
        sup_w.append(worst[2])
    values = tuple(max(a, b, c) for a, b, c in zip(sup_y, sup_yp, sup_w))
    return ConvergenceReport(
        params=tuple(sizes),
        values=values,
        reference=0.0,
        errors=values,
        verdict=_trend_verdict(values),
        channels=(("y", tuple(sup_y)), ("yprime", tuple(sup_yp)),
                  ("w", tuple(sup_w))),
    )


# ---------------------------------------------------------------------------
# a priori bound audit


def bound_audit(p: Measure, q: Measure, lams, cfg: SolverConfig | None = None
                ) -> BoundAuditReport:
    """Check the three base solutions against their growth envelopes.

    Two families per lambda: the absolute bound on |y_j| and the bound on
    the distance |y_j - y_j0| from the unperturbed solution, both scaled
    by the running-variation exponential. Needs |k| >= 1.
    """
    lams = tuple(complex(l) for l in lams)
    if not lams:
        raise BadArgumentError("need at least one lambda")
    k_mags, sol_ratios, cmp_ratios, violations = [], [], [], []
    points = 0
    for lam in lams:
        k = cube_root(lam)
        if abs(k) < 1.0:
            raise BadArgumentError(
                f"bound audit needs |lambda|^(1/3) >= 1, got {abs(k):.3g}")
        fp = FundamentalPath(p, q, lam, cfg)
        geo = fp._geo
        xs = np.concatenate([geo.tg.ravel(), geo.edges])
        order = np.argsort(xs)
        xs = xs[order]
        rate = math.log(xi_bound(1.0, lam))
        envelope = np.exp(rate * xs) * np.exp(
            3.0 * (2.0 * q.total_variation()
                   + p.tv_function(xs) + q.tv_function(xs)))
        rows0 = zero_potential_rows(lam, xs)
        worst_sol = 0.0
        worst_cmp = 0.0
        for j, col in enumerate(fp.columns, start=1):
            vals = np.concatenate([col.node[0].ravel(), col.y])[order]
            bound_sol = 3.0 / abs(k) ** (j - 1) * envelope
            bound_cmp = 3.0 / abs(k) ** j * envelope
            r_sol = np.abs(vals) / bound_sol
            r_cmp = np.abs(vals - rows0[j - 1]) / bound_cmp
            worst_sol = max(worst_sol, float(np.max(r_sol)))
            worst_cmp = max(worst_cmp, float(np.max(r_cmp)))
            for kind, ratios in (("solution", r_sol), ("comparison", r_cmp)):
                bad = np.nonzero(ratios > 1.0)[0]
                for idx in bad:
                    violations.append(
                        (lam, kind, j, float(xs[idx]), float(ratios[idx])))
            points += len(xs)
        k_mags.append(abs(k))
        sol_ratios.append(worst_sol)
        cmp_ratios.append(worst_cmp)
    return BoundAuditReport(
        lams=lams,
        k_mags=tuple(k_mags),
        solution_ratios=tuple(sol_ratios),
        comparison_ratios=tuple(cmp_ratios),
        violations=tuple(violations),
        points=points,
    )


# ---------------------------------------------------------------------------
# eigenvalue asymptotics


def asymptotic_residuals(p: Measure, q: Measure, xi: int, n_min: int,
                         n_max: int, cfg: SolverConfig | None = None
                         ) -> ResidualReport:
    """Residual of each eigenvalue against its cubic-plus-linear term.

    The linear correction uses the Lebesgue integral of the induced
    function of q; the lattice base point is (2n + xi - 1) pi.
    """
    xi = _check_xi(xi)
    n_min, n_max = _check_index(n_min), _check_index(n_max)
    if n_min > n_max:
        raise BadArgumentError("need n_min <= n_max")
    iq = lebesgue_integral_of_induced(q)
    ns = tuple(range(n_min, n_max + 1))
    lams, leading, residuals = [], [], []
    for n in ns:
        pair = find_eigenvalue(p, q, xi, n, cfg)
        base = _lattice_center(xi, n)
        lead = base ** 3 - 2.0 * base * iq
        lams.append(pair.lam)
        leading.append(lead)
        residuals.append(pair.lam - lead)
    return ResidualReport(
        xi=xi,
        ns=ns,
        lams=tuple(lams),
        leading=tuple(leading),
        residuals=tuple(residuals),
        q_integral=iq,
    )
