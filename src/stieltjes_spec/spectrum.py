"""Eigenvalue location, counting and refinement for both endpoint pairings.

All spectra here are real.  Roots of the first pairing sit near the even
lattice k = 2 n pi, roots of the second near the odd lattice k = (2n+1) pi,
with k the signed real cube root of the eigenvalue.  The integer n indexes
eigenvalues in sorted order around 0.

Counting works on the characteristic function through the argument principle:
the winding of Delta_xi around a disc equals the number of enclosed zeros.
Contours are conjugate-closed, so each point costs one initial value solve.

counting_threshold turns the a-priori growth bound with constant c_pi into
the tail index N from which every lattice window (center +- pi/3) holds
exactly one root.  The constant is diagnostic: runtime verification is always
done by winding counts, never by trusting the threshold.

A lattice window is certified by its winding count alone, and the Taylor
root of the same contour values predicts its root: two unverified solves
confirm a sign change, Brent bracketing refines any wider bracket to width
_BISECT_TOL (1e-12), and the eigenpair is packaged from verified solves.
Roots of a perturbed problem are tracked from the base root by secant steps.

This module owns the lattice, counting and root location.  It makes its
own solve_value calls and hands the values to charfn, the home of the
boundary pairing, for Delta and the real characteristic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .charfn import (_E1, _check_xi, _mirror_residue, _one_solve, _pairing_solve,
                     _real_characteristic, _real_lambda)
from .errors import (
    BadArgumentError,
    ContourResolutionError,
    RootSearchError,
    SpectrumConsistencyError,
    ThresholdRangeError,
    UnsupportedMultiplicityError,
    _finite,
    _integer,
    _positive,
)
from .ivp import (
    InitialTriple,
    SolutionPath,
    SolverConfig,
    Workspace,
    _check_ceiling,
    _workspace_for,
    solve_value,
)
from .measure import Measure

# rank ratio below which the 2x2 pairing matrix counts as vanishing
_RANK_TOL = 1e-8
# largest admissible phase step along a counting contour, radians
_PHASE_STEP = 1.2
# contour values this small relative to the largest force a radius retry
_CLEARANCE = 1e-10
# scan grid spacing for real-axis root bracketing
_SCAN_STEP = math.pi / 8.0
# evaluations a bracket refinement may spend beyond plain bisection
_SPARE_STEPS = 4
_BISECT_TOL = 1e-12  # k-width at which root brackets and tracking stop
_CONTOUR_POINTS = 64  # on a centered counting contour, before doubling
_CONTOUR_DOUBLINGS = 3  # per contour radius, before a radius bump
_EPS = float(np.finfo(float).eps)


# the spectrum layer reads only solver settings: root width, contours and
# window counts are fixed, so its config is the solver's
SpectrumConfig = SolverConfig


@dataclass(frozen=True)
class Eigenpair:
    """One located eigenvalue with its normalized eigenfunction data.

    k is the signed real cube root of lam.  Every eigenpair the package
    returns is simple: g_mult is 1, a_simple is true and basis is None,
    since a vanishing pairing matrix raises instead (see eigenfunction).
    The fields stay because eig tables print a_simple and g_mult, and the
    benchmark harness builds records with basis=None and reads pair.basis.
    """

    xi: int
    n: int
    lam: float
    k: float
    g_mult: int
    a: complex | None
    b: complex | None
    E: SolutionPath | None
    basis: tuple | None
    bc_residual: float
    norm_residual: float
    realness_residue: float

    @property
    def a_simple(self) -> bool:
        return self.g_mult == 1


def counting_threshold(p: Measure, q: Measure, xi, c_pi: float = 1e4) -> int:
    """Smallest tail index N certified by the growth bound with constant c_pi."""
    xi = _check_xi(xi)
    c = _positive(c_pi, "c_pi")
    expo = 3.0 * (3.0 * q.total_variation() + p.total_variation())
    if expo > 690.0:
        raise ThresholdRangeError(
            "measure norms overflow the counting bound", exponent=expo
        )
    grow = math.exp(expo)
    if xi == 1:
        bound = 2.25 * c * grow
        n = max(0, math.ceil((bound / math.pi - 1.0) / 2.0))
        while (2 * n + 1) * math.pi <= bound:
            n += 1
        return n
    bound = max(4.5 * c * grow,
                2.0 * math.log(c / 2.0) if c > 2.0 else 0.0,
                2.0 * math.sqrt(2.0) * math.log(c / 4.0) if c > 4.0 else 0.0)
    n = max(1, math.ceil(bound / (2.0 * math.pi)))
    while 2 * n * math.pi <= bound:
        n += 1
    return n


def _check_index(n) -> int:
    return _integer(n, "eigenvalue index")


def _lattice_center(xi, n) -> float:
    """(2n + xi - 1) pi: the lattice point the n-th root approaches."""
    xi = _check_xi(xi)
    return (2 * _check_index(n) + xi - 1) * math.pi


def localize(xi, n) -> tuple[float, float]:
    """The k-window (center - pi/3, center + pi/3) for the n-th root."""
    center = _lattice_center(xi, n)
    return center - math.pi / 3.0, center + math.pi / 3.0


# ---------------------------------------------------------------------------
# argument-principle counting


def _delta_values(p, q, xi, lams, cfg, ws):
    """Delta_xi at a conjugate-closed list of lambdas, one solve per point:
    point i mirrors point (m - i) mod m."""
    y1 = np.array([solve_value(p, q, complex(lam), _E1, cfg, ws, verify=False)
                   for lam in lams])
    return _one_solve(y1, y1[-np.arange(len(y1)) % len(y1)], xi)


def _winding(p, q, xi, center, radius, cfg, ws):
    """(count, radius used, values) of Delta_xi's winding on a k-disc.

    A centered disc is counted on the lambda-circle of radius radius**3, an
    offset one on its own k-circle.  vals[0] and vals[m // 2] sit on the real
    axis at k = center + radius and center - radius.
    """
    central = center == 0.0
    if central and radius > math.pi / 3.0:
        base_m = max(_CONTOUR_POINTS,
                     8 * (2 * math.ceil(radius / math.pi) + 1))
    else:
        base_m = 32  # one lattice window
    last = None
    for bump in (1.0, 1.013, 0.987, 1.029):
        r_eff = radius * bump
        m = base_m
        for _ in range(_CONTOUR_DOUBLINGS + 1):
            phis = 2.0 * math.pi * np.arange(m) / m
            if central:
                lams = (r_eff**3) * np.exp(1j * phis)
            else:
                lams = (center + r_eff * np.exp(1j * phis)) ** 3
            vals = _delta_values(p, q, xi, lams, cfg, ws)
            if float(np.min(np.abs(vals))) < _CLEARANCE * float(
                    np.max(np.abs(vals))):
                break  # a zero sits on the contour: bump the radius
            ratio = vals[np.r_[1:m, 0]] / vals
            steps = np.angle(ratio)
            if float(np.max(np.abs(steps))) > _PHASE_STEP:
                m *= 2
                continue
            winding = float(np.sum(steps)) / (2.0 * math.pi)
            last = winding
            if abs(winding - round(winding)) > 0.2:
                m *= 2
                continue
            return int(round(winding)), r_eff, vals
    raise ContourResolutionError(
        "winding count failed to stabilize",
        xi=xi, center=center, radius=radius, winding=last,
    )


def count_zeros_disc(p: Measure, q: Measure, xi, center: float, radius: float,
                     cfg: SolverConfig | None = None,
                     workspace: Workspace | None = None) -> int:
    """Zeros of Delta_xi enclosed by a k-plane disc, by winding count.

    center must be real.  The cube maps an offset disc injectively, so it
    must exclude the origin.  A disc reaching beyond the solver's k ceiling
    is refused before its contour is sized.
    """
    xi = _check_xi(xi)
    center = _finite(center, "disc center")
    radius = _positive(radius, "disc radius")
    ws = _workspace_for(p, q, workspace)
    if center != 0.0 and abs(center) <= radius:
        raise BadArgumentError("offset disc must exclude the origin")
    _check_ceiling(abs(center) + radius)
    return _winding(p, q, xi, center, radius, cfg, ws)[0]


def _taylor_root(vals) -> complex:
    """Root nearest 0 of the Taylor polynomial of g from g(e^{2 pi i j / m}).

    The DFT over m gives the Taylor coefficients; the upper half holds the
    aliasing (Delves and Lyness, Math. Comp. 21, 1967).
    """
    m = len(vals)
    roots = np.roots((np.fft.fft(vals)[: m // 2] / m)[::-1])
    return complex(roots[np.argmin(np.abs(roots))])


# ---------------------------------------------------------------------------
# real root scans


def _root_fn(p, q, xi, cfg, ws):
    """The real characteristic along the real k axis for this pairing.

    Unverified solves: roots located here are always re-solved with full
    verification when they are packaged into an Eigenpair.
    """
    return lambda k: _real_characteristic(
        solve_value(p, q, k**3, _E1, cfg, ws, verify=False), xi)


def _sign_changes(vals) -> list[int]:
    """Indices i of a sampled grid where vals[i] and vals[i + 1] differ in sign."""
    return [i for i in range(len(vals) - 1) if (vals[i] < 0) != (vals[i + 1] < 0)]


def _refine_bracket(f, lo, hi, f_lo, f_hi, tol):
    """Root of f inside the sign-change bracket [lo, hi], to width tol.

    Brent's method (Algorithms for Minimization without Derivatives, 1973,
    ch. 4): inverse quadratic or secant steps with a bisection fallback,
    keeping a sign change between b (the better point) and c at every step.
    Each new point is then pulled toward the bracket midpoint just far
    enough that the bracket stays on a bisection schedule with _SPARE_STEPS
    steps of slack (the projection of Oliveira and Takahashi's ITP method,
    ACM TOMS 47, 2020).  So no bracket costs more than
    ceil(log2((hi - lo) / tol)) + _SPARE_STEPS evaluations, even at a
    multiple root, where interpolation alone converges only linearly.
    """
    a, fa, b, fb = lo, f_lo, hi, f_hi
    c, fc = a, fa
    d = e = b - a
    budget = math.ceil(math.log2((hi - lo) / tol)) + _SPARE_STEPS
    for j in range(budget + 1):
        if (fb < 0) == (fc < 0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, b, fb, c, fc = b, fb, c, fc, b, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * xm * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = xm
        else:
            d = e = xm
        x = b + d if abs(d) > tol1 else b + math.copysign(tol1, xm)
        # the next bracket must fit tol * 2**(budget - j - 2): half the
        # bisection schedule, so rounding cannot push the stop past budget
        reach = tol * 2.0 ** (budget - j - 2) - abs(xm)
        mid = b + xm
        if abs(x - mid) > reach:
            x = mid + math.copysign(max(reach, 0.0), x - mid)
            d = x - b
        a, fa = b, fb
        b, fb = x, f(x)
    raise RootSearchError("bracket refinement overran its bisection budget",
                          lo=lo, hi=hi, k=b, width=abs(c - b))


def _track_root(f, k_start, max_drift=0.3):
    """Secant iteration from a known nearby root; raises on a tracking jump.

    The first secant runs through k_start and a point a relative 1e-5 away;
    after that every step costs one evaluation.  It stops once a step is at
    most _BISECT_TOL, returning that step's point without evaluating it.
    """
    k0, f0 = k_start, f(k_start)
    k1 = k_start + 1e-5 * max(1.0, abs(k_start))
    f1 = f(k1)
    for _ in range(16):
        slope = (f1 - f0) / (k1 - k0)
        if slope == 0.0 or not math.isfinite(slope):
            raise RootSearchError("flat characteristic while tracking a root",
                                  k=k1)
        step = -f1 / slope
        k_new = k1 + step
        if abs(k_new - k_start) > max_drift:
            raise RootSearchError(
                "root tracking jumped out of its window",
                k_start=k_start, k=k_new,
            )
        if abs(step) <= _BISECT_TOL:
            return k_new
        k0, f0 = k1, f1
        k1, f1 = k_new, f(k_new)
    raise RootSearchError("root tracking did not settle", k_start=k_start,
                          k=k1)


# ---------------------------------------------------------------------------
# eigenpair assembly


def _combine(geo, lam, cols, coefs):
    a, b = coefs
    return SolutionPath(lam, InitialTriple(a, b, 0), geo,
                        a * cols[0].node + b * cols[1].node,
                        a * cols[0].edge + b * cols[1].edge,
                        max(c.n_terms for c in cols))


def _l2_norm_sq(geo, y_node) -> float:
    return float(np.sum(geo.gw * np.abs(y_node) ** 2))


def _normalised(geo, cols, coefs):
    """coefs divided by the L2 norm of coefs[0] y1 + coefs[1] y2."""
    a, b = coefs
    nrm = math.sqrt(_l2_norm_sq(geo, a * cols[0].node[0] + b * cols[1].node[0]))
    return a / nrm, b / nrm


def _kernel_coefficients(m: np.ndarray):
    """Null direction of the pairing matrix by its largest entry."""
    flat = [abs(m[0, 0]), abs(m[0, 1]), abs(m[1, 0]), abs(m[1, 1])]
    case = int(np.argmax(flat))
    if case == 0:
        return m[0, 1] / m[0, 0], -1.0 + 0.0j
    if case == 1:
        return -1.0 + 0.0j, m[0, 0] / m[0, 1]
    if case == 2:
        return m[1, 1] / m[1, 0], -1.0 + 0.0j
    return -1.0 + 0.0j, m[1, 0] / m[1, 1]


def eigenfunction(p: Measure, q: Measure, xi, lam: float, n: int | None = None,
                  cfg: SolverConfig | None = None,
                  workspace: Workspace | None = None) -> Eigenpair:
    """Package the eigenpair at an already-located real eigenvalue.

    A geometrically double eigenvalue kills the whole pairing matrix, not
    just its determinant, and leaves no single null direction: when its
    largest singular value falls below _RANK_TOL of the column scale, this
    raises UnsupportedMultiplicityError.
    """
    xi = _check_xi(xi)
    lam = _real_lambda(lam, "eigenfunction")
    ws = _workspace_for(p, q, workspace)
    geo, cols, m = _pairing_solve(ws, lam, xi, cfg)
    sv = np.linalg.svd(m, compute_uv=False)
    col_scale = max(1.0, abs(cols[0].y_at_one), abs(cols[1].y_at_one),
                    abs(cols[0].yprime_at_one), abs(cols[1].yprime_at_one))
    k = math.copysign(abs(lam) ** (1.0 / 3.0), lam)
    label = _check_index(n) if n is not None else 0
    if sv[0] < _RANK_TOL * col_scale:
        raise UnsupportedMultiplicityError(
            "pairing matrix vanishes: no simple eigenfunction",
            xi=xi, n=n, lam=lam, rank_ratio=float(sv[0]) / col_scale)
    residue = _mirror_residue(ws, lam, cols[0].y_at_one, cfg)
    a, b = _normalised(geo, cols, _kernel_coefficients(m))
    path = _combine(geo, lam, cols, (a, b))
    norm_res = abs(_l2_norm_sq(geo, path.node[0]) - 1.0)
    vec = np.array([a, b])
    bc_res = float(np.max(np.abs(m @ vec))) / (
        col_scale * float(np.max(np.abs(vec))))
    return Eigenpair(xi=xi, n=label, lam=lam, k=k, g_mult=1,
                     a=complex(a), b=complex(b), E=path, basis=None,
                     bc_residual=bc_res, norm_residual=norm_res,
                     realness_residue=residue)


def _predicted_bracket(f, k_hat, lo, hi, f_lo, f_hi):
    """Narrow the sign-change bracket [lo, hi] by probes at k_hat +- w.

    w starts at _BISECT_TOL / 2 and grows 16-fold until the probes enclose
    the bracket, which a confirmed prediction does at once.
    """
    w = 0.5 * _BISECT_TOL
    while True:
        for x in (k_hat - w, k_hat + w):
            if lo < x < hi:
                fx = f(x)
                if (fx < 0) == (f_lo < 0):
                    lo, f_lo = x, fx
                else:
                    hi, f_hi = x, fx
        if k_hat - w <= lo and hi <= k_hat + w:
            return lo, hi, f_lo, f_hi
        w *= 16.0


def find_eigenvalue(p: Measure, q: Measure, xi, n,
                    cfg: SolverConfig | None = None,
                    workspace: Workspace | None = None) -> Eigenpair:
    """Locate the root in the n-th lattice window and package it.

    The window's winding count is the certificate: any count but one raises.
    Non-real roots come in conjugate pairs, so one root in a disc centred on
    the real axis is real.  The window ends are real contour points, where
    conj(Delta) / 2 has the real characteristic f of y1, so the end signs
    cost no solve.  The central disc predicts lambda, the others k.
    """
    xi = _check_xi(xi)
    ws = _workspace_for(p, q, workspace)
    window = localize(xi, n)
    center = _lattice_center(xi, n)
    count, r, vals = _winding(p, q, xi, center, math.pi / 3.0, cfg, ws)
    if count != 1:
        raise RootSearchError("lattice window does not hold exactly one root",
                              xi=xi, n=n, window=window, count=count)
    ends = 0.5 * vals[[len(vals) // 2, 0]].conjugate()
    f_lo, f_hi = _real_characteristic(ends, xi).tolist()
    if (f_lo < 0) == (f_hi < 0):
        raise RootSearchError("window ends do not bracket the counted root",
                              xi=xi, n=n, window=window)
    t = _taylor_root(vals).real
    k_hat = center + r * t if center else r * math.copysign(abs(t) ** (1 / 3), t)
    f = _root_fn(p, q, xi, cfg, ws)
    lo, hi, f_lo, f_hi = _predicted_bracket(f, k_hat, center - r, center + r,
                                            f_lo, f_hi)
    k = _refine_bracket(f, lo, hi, f_lo, f_hi, _BISECT_TOL)
    return eigenfunction(p, q, xi, k**3, n=n, cfg=cfg, workspace=ws)


# ---------------------------------------------------------------------------
# full scans


def _central_geometry(xi, n_window):
    """Radius, expected count and index offset for the centered disc."""
    if xi == 1:
        return (2 * n_window + 1) * math.pi, 2 * n_window + 1, n_window
    m = n_window + 1
    return 2 * m * math.pi, 2 * m, m


def spectrum_scan(p: Measure, q: Measure, xi, n_min, n_max,
                  cfg: SolverConfig | None = None,
                  workspace: Workspace | None = None) -> list[Eigenpair]:
    """Eigenpairs for indices n_min..n_max with verified central counting.

    Roots inside the central disc are anchored by a winding count; the
    real-axis scan must find exactly as many sign changes, one per root, and
    their sorted order then fixes the index of each.  Any other number of
    sign changes raises SpectrumConsistencyError.  Indices beyond the
    central window get their own certified window search.
    """
    xi = _check_xi(xi)
    n_min, n_max = _check_index(n_min), _check_index(n_max)
    if n_min > n_max:
        raise BadArgumentError("n_min must not exceed n_max")
    ws = _workspace_for(p, q, workspace)
    n_window = min(max(2, abs(n_min), abs(n_max)) + 1, 8)
    radius, expected, offset = _central_geometry(xi, n_window)
    counted = count_zeros_disc(p, q, xi, 0.0, radius, cfg, ws)
    if counted != expected:
        raise SpectrumConsistencyError(
            "central winding count disagrees with the lattice block",
            xi=xi, disc=("central", radius), expected=expected,
            counted=counted,
        )
    f = _root_fn(p, q, xi, cfg, ws)
    m_samples = int(math.ceil(2.0 * radius / _SCAN_STEP)) + 1
    grid = np.linspace(-radius, radius, m_samples)
    vals = [f(float(k)) for k in grid]
    brackets = _sign_changes(vals)
    if len(brackets) != expected:
        raise SpectrumConsistencyError(
            "real-axis roots disagree with the central winding count",
            xi=xi, disc=("central", radius), expected=expected,
            located=len(brackets),
        )
    # bracket order on the grid fixes the sorted order, so only requested
    # indices get refined
    out: list[Eigenpair] = []
    for n, i in enumerate(brackets, start=-offset):
        if n_min <= n <= n_max:
            k = _refine_bracket(f, float(grid[i]), float(grid[i + 1]),
                                vals[i], vals[i + 1], _BISECT_TOL)
            out.append(eigenfunction(p, q, xi, k**3, n=n, cfg=cfg,
                                     workspace=ws))
    covered_lo = -offset
    covered_hi = expected - 1 - offset
    for n in range(n_min, n_max + 1):
        if covered_lo <= n <= covered_hi:
            continue
        out.append(find_eigenvalue(p, q, xi, n, cfg, ws))
    return sorted(out, key=lambda e: e.n)


def spectral_shift(p: Measure, q: Measure, xi, n, epsilon: float,
                   cfg: SolverConfig | None = None) -> tuple[float, float]:
    """Eigenvalue before and after adding epsilon * Lebesgue to p.

    The exact translation identity says the second value equals the first
    plus epsilon; returning both makes the comparison the caller's.
    """
    epsilon = _finite(epsilon, "epsilon")
    base = find_eigenvalue(p, q, xi, n, cfg)
    shifted_p = p.plus(Measure.lebesgue(epsilon))
    ws = Workspace(shifted_p, q)
    f = _root_fn(shifted_p, q, xi, cfg, ws)
    k = _track_root(f, base.k)
    return base.lam, k**3
