"""Spectrum module tests against closed forms and matrix-exponential oracles."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from stieltjes_spec import spectrum
from stieltjes_spec.charfn import _ROUTE_TOL, delta, real_split
from stieltjes_spec.errors import (
    BadArgumentError,
    NumericalError,
    RootSearchError,
    SpectrumConsistencyError,
    ThresholdRangeError,
    UnsupportedMultiplicityError,
)
from stieltjes_spec.ivp import (
    InitialTriple,
    SolverConfig,
    Workspace,
    cube_root,
    solve_transfer,
)
from stieltjes_spec.measure import Measure
from stieltjes_spec.spectrum import (
    SpectrumConfig,
    _refine_bracket,
    _taylor_root,
    _track_root,
    count_zeros_disc,
    counting_threshold,
    eigenfunction,
    find_eigenvalue,
    localize,
    spectral_shift,
    spectrum_scan,
)
from test_acceptance import XI2_ZERO_ROOTS

Z = Measure.zero()

# Roots of the second-pairing characteristic at zero coefficients, i.e. of
# 4 cos(k/2) (cosh^2(sqrt(3)k/4) - sin^2(k/4)) = 1, one per odd lattice
# window; 50-digit mpmath root solves, frozen to double precision.
XI2_ROOTS = {
    0: 2.99433607025793507919476571287,
    1: 9.42534820601414282583486023193,
    2: 15.7079607956100112974327307201,
}

# q = 0.7 * delta at 1/2, p = 0.  Oracle from an independent construction:
# mpmath expm of the companion matrix on each half, with the atom applied as
# a w-jump of -0.7 y(1/2) in between, then root solves on Im/Re y1(1).
ATOM_Q = Measure.point(0.5, 0.7)
ATOM_ROOT_XI1_N1 = 6.25563907584498024625456896568
ATOM_ROOT_XI2_N0 = 2.96471385078153688430466655596
ATOM_ROOT_XI1_NM2 = -12.5503517109248622802574483628


def test_localize_windows():
    lo, hi = localize(1, 2)
    assert lo == pytest.approx(4 * math.pi - math.pi / 3, rel=1e-15)
    assert hi == pytest.approx(4 * math.pi + math.pi / 3, rel=1e-15)
    lo, hi = localize(2, -1)
    assert 0.5 * (lo + hi) == pytest.approx(-math.pi, rel=1e-15)
    with pytest.raises(BadArgumentError):
        localize(3, 0)


def test_counting_threshold_frozen_values():
    p = Measure.point(0.3, 0.2)
    q = Measure.point(0.6, 0.1)
    # exponent 3(3*0.1 + 0.2) = 1.5; first pairing bound 18 e^1.5 = 80.672,
    # so 2N+1 > 25.678; second bound 36 e^1.5 = 161.34, so 2N > 51.35
    assert counting_threshold(p, q, 1, c_pi=8) == 13
    assert counting_threshold(p, q, 2, c_pi=8) == 26
    assert counting_threshold(Z, Z, 1, c_pi=1.05) == 0
    assert counting_threshold(Z, Z, 2, c_pi=1.05) == 1
    assert counting_threshold(p, q, 1, c_pi=80) > counting_threshold(
        p, q, 1, c_pi=8)


def test_counting_threshold_overflow():
    heavy = Measure.point(0.5, 80.0)
    with pytest.raises(ThresholdRangeError):
        counting_threshold(Z, heavy, 1, c_pi=8)
    for c_pi in (-1.0, math.inf, math.nan):
        with pytest.raises(BadArgumentError, match="c_pi"):
            counting_threshold(Z, Z, 1, c_pi=c_pi)


def test_count_zero_potential_central_discs():
    assert count_zeros_disc(Z, Z, 1, 0.0, 5 * math.pi) == 5
    assert count_zeros_disc(Z, Z, 2, 0.0, 4 * math.pi) == 4


def test_count_tail_windows():
    third = math.pi / 3
    assert count_zeros_disc(Z, Z, 1, 2 * math.pi, third) == 1
    assert count_zeros_disc(Z, Z, 1, -2 * math.pi, third) == 1
    assert count_zeros_disc(Z, Z, 1, 3 * math.pi, third) == 0
    assert count_zeros_disc(Z, Z, 2, math.pi, third) == 1


def test_count_disc_validation():
    with pytest.raises(BadArgumentError):
        count_zeros_disc(Z, Z, 1, math.pi, 2 * math.pi)
    for radius in (-1.0, math.inf, math.nan):
        with pytest.raises(BadArgumentError, match="radius"):
            count_zeros_disc(Z, Z, 1, 0.0, radius)
    with pytest.raises(BadArgumentError):
        count_zeros_disc(Z, Z, 5, 0.0, 1.0)


def test_count_disc_refuses_non_finite_center_before_the_contour():
    # the center is checked before the contour lambdas are formed, so no
    # RuntimeWarning escapes and the message names the center, not lambda
    for center in (math.inf, -math.inf, math.nan):
        with pytest.raises(BadArgumentError, match="center"):
            count_zeros_disc(Z, Z, 1, center, 1.0)


def test_count_disc_refuses_a_disc_beyond_the_k_ceiling_before_the_contour(
        monkeypatch):
    # a central disc of radius r sizes its contour as 8 (2 ceil(r/pi) + 1)
    # points, so a huge radius must be refused before any contour is formed
    def no_contour(*args):
        raise AssertionError("contour evaluated beyond the k ceiling")

    monkeypatch.setattr(spectrum, "_delta_values", no_contour)
    for center, radius in ((0.0, 1e6), (1e6, 1.0), (-1e6, 1.0)):
        with pytest.raises(NumericalError, match="ceiling"):
            count_zeros_disc(Z, Z, 1, center, radius)


def test_first_pairing_lattice_roots():
    for n in (1, -2):
        pair = find_eigenvalue(Z, Z, 1, n)
        assert pair.k == pytest.approx(2 * n * math.pi, abs=1e-9)
        assert pair.lam == pytest.approx((2 * n * math.pi) ** 3, rel=1e-9)
        assert pair.g_mult == 1 and pair.a_simple
        assert pair.bc_residual < 1e-8
        assert pair.norm_residual < 1e-8
        assert pair.realness_residue < 1e-8
        assert pair.xi == 1 and pair.n == n


def test_second_pairing_frozen_roots():
    for n, k_ref in XI2_ROOTS.items():
        pair = find_eigenvalue(Z, Z, 2, n)
        assert pair.k == pytest.approx(k_ref, abs=1e-9)
    mirrored = find_eigenvalue(Z, Z, 2, -1)
    assert mirrored.k == pytest.approx(-XI2_ROOTS[0], abs=1e-9)


def test_atom_eigenvalues_match_expm_oracle():
    ws_cases = [
        (1, 1, ATOM_ROOT_XI1_N1),
        (2, 0, ATOM_ROOT_XI2_N0),
        (1, -2, ATOM_ROOT_XI1_NM2),
    ]
    for xi, n, k_ref in ws_cases:
        pair = find_eigenvalue(Z, ATOM_Q, xi, n)
        assert pair.k == pytest.approx(k_ref, abs=1e-8)
        assert pair.bc_residual < 1e-8
        assert pair.realness_residue < 1e-8


def test_eigenfunction_invariants():
    pair = find_eigenvalue(Z, ATOM_Q, 1, 1)
    e = pair.E
    # unit mass on an independent uniform grid
    xs = np.linspace(0.0, 1.0, 4001)
    dens = np.array([abs(e.eval_y(float(x))) ** 2 for x in xs])
    assert abs(np.trapezoid(dens, xs) - 1.0) < 1e-4
    # both pairing rows: value row and derivative row
    assert abs(e.eval_y(1.0)) < 1e-8
    assert e.eval_yprime(1.0) == pytest.approx(pair.b, abs=1e-8)
    assert e.eval_w(0.0) == 0.0
    combo_end = pair.a * 1.0 + pair.b * 0.0  # y(0) = a by construction
    assert e.eval_y(0.0) == pytest.approx(combo_end, abs=1e-12)


def test_eigenfunction_rejects_bad_xi():
    with pytest.raises(BadArgumentError):
        eigenfunction(Z, Z, 7, 1.0)


def test_scan_first_pairing_lattice():
    scan = spectrum_scan(Z, Z, 1, -2, 2)
    assert [e.n for e in scan] == [-2, -1, 0, 1, 2]
    for e in scan:
        if e.n == 0:
            assert abs(e.lam) < 1e-12
        else:
            assert e.k == pytest.approx(2 * e.n * math.pi, abs=1e-9)
        assert e.g_mult == 1


def test_scan_second_pairing_matches_windows():
    scan = spectrum_scan(Z, Z, 2, -1, 1)
    assert [e.n for e in scan] == [-1, 0, 1]
    assert scan[0].k == pytest.approx(-XI2_ROOTS[0], abs=1e-9)
    assert scan[1].k == pytest.approx(XI2_ROOTS[0], abs=1e-9)
    assert scan[2].k == pytest.approx(XI2_ROOTS[1], abs=1e-9)
    for e in scan:
        direct = find_eigenvalue(Z, Z, 2, e.n)
        assert e.lam == pytest.approx(direct.lam, rel=1e-10, abs=1e-10)


def test_scan_tail_fallback_beyond_central_window():
    scan = spectrum_scan(Z, Z, 1, 9, 10)
    assert [e.n for e in scan] == [9, 10]
    assert scan[0].k == pytest.approx(18 * math.pi, abs=1e-8)
    assert scan[1].k == pytest.approx(20 * math.pi, abs=1e-8)


def test_spectral_shift_exact_translation():
    p = Measure.point(0.4, 0.3)
    base, shifted = spectral_shift(p, ATOM_Q, 1, 1, 0.01)
    assert shifted - base == pytest.approx(0.01, abs=1e-9)
    base2, shifted2 = spectral_shift(p, ATOM_Q, 2, 0, -0.01)
    assert shifted2 - base2 == pytest.approx(-0.01, abs=1e-9)


def test_find_eigenvalue_window_eviction():
    # shifting p by 20 * Lebesgue moves every eigenvalue up by exactly 20,
    # emptying the n = 0 window of the first pairing
    p = Measure.lebesgue(20.0)
    with pytest.raises(RootSearchError):
        find_eigenvalue(p, Z, 1, 0)


def test_config_validation():
    with pytest.raises(BadArgumentError):
        spectrum_scan(Z, Z, 1, 3, -3)
    with pytest.raises(BadArgumentError):
        spectrum_scan(Z, Z, 9, 0, 1)
    with pytest.raises(BadArgumentError):
        find_eigenvalue(Z, Z, 1.5, 0)
    # a fractional or non-finite index is refused, not truncated
    for n in (2.5, math.inf, math.nan):
        with pytest.raises(BadArgumentError, match="index"):
            find_eigenvalue(Z, Z, 1, n)
    with pytest.raises(BadArgumentError, match="index"):
        spectrum_scan(Z, Z, 1, 0, 2.5)


# ---------------------------------------------------------------------------
# root search: bracket refinement and tracking

TOL = spectrum._BISECT_TOL
ROADMAP_P = Measure.point(0.4, 0.3)
ROADMAP_Q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))


def test_contour_values_are_the_characteristic_of_delta():
    # the contour pairs each unverified y1 with its mirror's; delta pairs
    # verified solves by the determinant and by the one-solve route
    a, b = -300.0 + 40.0j, 5.0 + 200.0j
    lams = np.array([64.0, a, b, -300.0, b.conjugate(), a.conjugate()])
    ws = Workspace(ROADMAP_P, ROADMAP_Q)
    for xi in (1, 2):
        vals = spectrum._delta_values(ROADMAP_P, ROADMAP_Q, xi, lams, None, ws)
        for lam, got in zip(lams, vals):
            want = delta(ROADMAP_P, ROADMAP_Q, lam, xi, workspace=ws)
            assert abs(got - want) <= _ROUTE_TOL * max(1.0, abs(want))


def _xi1_zero_char(k):
    # Im y1(1, k^3) at zero coefficients: zeros at k = 2 n pi, triple at 0
    return -(4.0 / 3.0) * math.sin(k / 2) * (
        math.sinh(math.sqrt(3) * k / 4) ** 2 + math.sin(k / 4) ** 2)


def _xi2_zero_char(k):
    return math.cos(k) + 2.0 * math.cos(k / 2.0) * math.cosh(
        math.sqrt(3.0) * k / 2.0)


@st.composite
def root_brackets(draw):
    """A test function, its root and a sign-change bracket around it."""
    kind = draw(st.sampled_from(("xi1", "xi2", "simple", "triple")))
    if kind == "xi1":
        root, f = 2 * draw(st.integers(-6, 6)) * math.pi, _xi1_zero_char
    elif kind == "xi2":
        n = draw(st.integers(-6, 5))
        root = XI2_ZERO_ROOTS[n] if n >= 0 else -XI2_ZERO_ROOTS[-n - 1]
        f = _xi2_zero_char
    else:
        root = draw(st.floats(-5.0, 5.0))
        power = 1 if kind == "simple" else 3

        def f(k):
            return (k - root) ** power * (1.0 + k * k)
    width = 10.0 ** draw(st.floats(-10.0, 0.0))
    lo = root - draw(st.floats(0.001, 0.999)) * width
    hi = lo + width
    assume(lo < root < hi and (f(lo) < 0) != (f(hi) < 0))
    return f, root, lo, hi


@settings(max_examples=60, deadline=None, derandomize=True)
@given(root_brackets())
def test_refine_bracket_stays_in_budget(case):
    f, root, lo, hi = case
    points = []

    def counted(k):
        points.append(k)
        return f(k)

    k = _refine_bracket(counted, lo, hi, f(lo), f(hi), TOL)
    assert lo <= k <= hi
    assert all(lo <= x <= hi for x in points)
    assert abs(k - root) <= TOL
    # plain bisection to width TOL plus at most four spare steps, also at
    # the triple roots where interpolation converges only linearly
    assert len(points) <= math.ceil(math.log2((hi - lo) / TOL)) + 4


def _count_root_solves(monkeypatch):
    """Record the first-measure argument of every unverified spectrum solve."""
    seen = []
    real = spectrum.solve_value

    def counted(p, *args, verify=True, **kwargs):
        if not verify:
            seen.append(p)
        return real(p, *args, verify=verify, **kwargs)

    monkeypatch.setattr(spectrum, "solve_value", counted)
    return seen


def test_triple_zero_window_costs_no_more_than_bisection(monkeypatch):
    # k = 0 is a triple zero of Im y1(1, k^3) under a 1e-16 noise floor;
    # bisection plus Newton spent 33 + 46 = 79 solves on this window
    seen = _count_root_solves(monkeypatch)
    pair = find_eigenvalue(Z, Z, 1, 0)
    assert abs(pair.lam) <= 1e-12
    assert len(seen) <= 79


def test_root_search_solve_counts(monkeypatch):
    # counts of Picard solves do not depend on the machine: a fallback to
    # bisection (33 + 46) or to difference-quotient Newton tracking
    # (three solves a step) fails here
    seen = _count_root_solves(monkeypatch)
    pair = find_eigenvalue(ROADMAP_P, ROADMAP_Q, 1, 4)
    assert len(seen) <= 45
    # eigenfunction reuses its verified y1(1) for the realness residue
    split = real_split(ROADMAP_P, ROADMAP_Q, pair.lam)
    assert pair.realness_residue == split.residue
    seen.clear()
    base, shifted = spectral_shift(ROADMAP_P, ROADMAP_Q, 1, 4, 0.01)
    assert base == pair.lam
    assert shifted - base == pytest.approx(0.01, abs=1e-9)
    tracking = [p for p in seen if p is not ROADMAP_P]
    assert len(tracking) <= 8


def test_track_root_guards():
    # the first secant step lands on the root at 1, outside max_drift
    with pytest.raises(RootSearchError, match="jumped") as err:
        _track_root(lambda k: k - 1.0, 0.0, max_drift=0.3)
    assert err.value.context["k_start"] == 0.0
    assert err.value.context["k"] == pytest.approx(1.0)
    for value in (2.0, math.nan, math.inf):
        with pytest.raises(RootSearchError, match="flat") as err:
            _track_root(lambda k: value, 0.5)
        assert err.value.context["k"] == pytest.approx(0.5, abs=1e-4)
    # secant steps converge only linearly to a triple root: 16 steps leave
    # it 1e-3 away, inside the drift window
    with pytest.raises(RootSearchError, match="did not settle") as err:
        _track_root(lambda k: (k - 0.1) ** 3, 0.0)
    assert err.value.context["k_start"] == 0.0
    assert 0.09 < err.value.context["k"] < 0.1


# ---------------------------------------------------------------------------
# window certificate: the winding count is the only proof of one root

THIRD = math.pi / 3


def _stub_characteristic(monkeypatch, roots):
    """y1(1, lambda) = h(k) for the real polynomial h with these k-roots.

    h has real coefficients, so Delta_2 = 2 h along the whole contour.
    """
    def stub(p, q, lam, *args, **kwargs):
        k = cube_root(lam)
        return complex(np.prod([k - r for r in roots]))

    monkeypatch.setattr(spectrum, "solve_value", stub)


@pytest.mark.parametrize("offsets", [
    (2.0,),                 # the only root lies outside the window
    (0.01, 0.02),           # a close pair: no sign change at all
    (0.01, 0.02, 0.03),     # three roots in one pi/48 cell: one sign change
])
def test_window_certificate_refuses_any_count_but_one(monkeypatch, offsets):
    center = 3 * math.pi  # xi = 2, n = 1
    roots = [center + d for d in offsets]
    expect = sum(abs(d) < THIRD for d in offsets)
    _stub_characteristic(monkeypatch, roots)
    with pytest.raises(RootSearchError, match="exactly one root") as err:
        find_eigenvalue(Z, Z, 2, 1)
    ctx = err.value.context
    assert ctx["count"] == expect
    assert (ctx["xi"], ctx["n"]) == (2, 1)
    assert ctx["window"] == localize(2, 1)


def test_taylor_root_predicts_a_lone_window_root(monkeypatch):
    center = 3 * math.pi
    root = center - 0.4
    # the second factor vanishes at k = -20, far outside the disc
    _stub_characteristic(monkeypatch, [root, -20.0])
    count, radius, vals = spectrum._winding(Z, Z, 2, center, THIRD,
                                            SpectrumConfig(), Workspace(Z, Z))
    assert (count, radius, len(vals)) == (1, THIRD, 32)
    t = _taylor_root(vals)
    assert abs(t.imag) <= 1e-13
    assert center + radius * t.real == pytest.approx(root, abs=1e-12)


def _count_engine_runs(monkeypatch):
    """Record every outer Workspace.geometry call: one per Picard engine run."""
    runs, depth = [], [0]
    real = Workspace.geometry

    def counted(self, *args):
        if depth[0] == 0:
            runs.append(args)
        depth[0] += 1
        try:
            return real(self, *args)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Workspace, "geometry", counted)
    return runs


def test_roadmap_eigenpair_costs_38_engine_runs(monkeypatch):
    # 32 contour points, 2 solves confirming the Taylor prediction, and 4
    # for the verified packaging and its mirror solve
    runs = _count_engine_runs(monkeypatch)
    find_eigenvalue(ROADMAP_P, ROADMAP_Q, 1, 4)
    assert len(runs) == 38


def test_scan_tail_windows_pay_one_count_each(monkeypatch):
    windings, tail = [], []
    real_winding, real_find = spectrum._winding, spectrum.find_eigenvalue

    def winding(p, q, xi, center, radius, *args):
        windings.append((center, radius))
        return real_winding(p, q, xi, center, radius, *args)

    seen = _count_root_solves(monkeypatch)

    def find(*args):
        start = len(seen)
        pair = real_find(*args)
        tail.append(len(seen) - start)
        return pair

    monkeypatch.setattr(spectrum, "_winding", winding)
    monkeypatch.setattr(spectrum, "find_eigenvalue", find)
    scan = spectrum_scan(Z, Z, 1, 9, 10)
    assert [e.n for e in scan] == [9, 10]
    # the central count, then one window count per tail index and no grid
    assert windings == [(0.0, 17 * math.pi), (18 * math.pi, THIRD),
                        (20 * math.pi, THIRD)]
    assert tail == [34, 34]


@settings(max_examples=25, deadline=None, derandomize=True)
@given(budget=st.floats(0.2, 1.0), u=st.floats(0.3, 0.7),
       x_p=st.floats(0.1, 0.9), x_q=st.floats(0.1, 0.9),
       s_p=st.sampled_from((1.0, -1.0)), s_q=st.sampled_from((1.0, -1.0)),
       xi=st.sampled_from((1, 2)), extra=st.integers(0, 2),
       mirror=st.booleans())
def test_certified_window_holds_the_transfer_root(budget, u, x_p, x_q, s_p,
                                                  s_q, xi, extra, mirror):
    # small atomic pairs as in criterion 06, whose bound exponent
    # p_V + 3 q_V is the drawn budget; beyond the counting threshold the
    # lemma promises one root per window
    p = Measure.point(x_p, s_p * u * budget)
    q = Measure.point(x_q, s_q * (1.0 - u) * budget / 3.0)
    n = counting_threshold(p, q, xi, c_pi=1.05) + extra
    if mirror:
        n = -n - (xi - 1)
    pair = find_eigenvalue(p, q, xi, n)
    lo, hi = localize(xi, n)
    assert lo < pair.k < hi

    def char(k):
        y = solve_transfer(p, q, k**3, InitialTriple(1, 0, 0)).eval_y(1.0)
        return y.imag if xi == 1 else y.real

    d = 1e-9 * max(1.0, abs(pair.k))
    assert (char(pair.k - d) < 0) != (char(pair.k + d) < 0)


def test_spectrum_layer_hands_the_solver_config_straight_through(monkeypatch):
    # SpectrumConfig is the solver's config under its old name; the
    # one-field wrapper, and its solver= keyword, are gone
    assert SpectrumConfig is SolverConfig
    with pytest.raises(TypeError):
        SpectrumConfig(solver=SolverConfig())
    cfg = SolverConfig(tol=1e-11)
    seen = []
    solve = spectrum.solve_value

    def recorded(*args, **kwargs):
        seen.append(args[4])
        return solve(*args, **kwargs)

    monkeypatch.setattr(spectrum, "solve_value", recorded)
    pair = find_eigenvalue(Z, ATOM_Q, 1, 1, cfg)
    assert abs(pair.k - ATOM_ROOT_XI1_N1) < 1e-10
    pairs = spectrum_scan(Z, Z, 1, -1, 3, cfg)
    assert [p.n for p in pairs] == [-1, 0, 1, 2, 3]
    for p in pairs:
        want = (2 * p.n * math.pi) ** 3
        assert abs(p.lam - want) < 1e-9 * max(1.0, abs(want))
    assert seen and all(c is cfg for c in seen)


def test_eigenfunction_refuses_a_vanishing_pairing_matrix(monkeypatch):
    # M_xi = 0 leaves a two-dimensional kernel and no single eigenfunction
    real = spectrum._pairing_solve

    def vanishing(*args):
        geo, cols, m = real(*args)
        return geo, cols, np.zeros_like(m)

    monkeypatch.setattr(spectrum, "_pairing_solve", vanishing)
    lam = (2 * math.pi) ** 3
    with pytest.raises(UnsupportedMultiplicityError) as err:
        eigenfunction(Z, Z, 1, lam, n=1)
    assert err.value.context == {"xi": 1, "n": 1, "lam": lam,
                                 "rank_ratio": 0.0}


def test_scan_refuses_a_central_count_off_the_lattice_block(monkeypatch):
    monkeypatch.setattr(spectrum, "count_zeros_disc", lambda *args: 8)
    with pytest.raises(SpectrumConsistencyError) as err:
        spectrum_scan(Z, Z, 1, -2, 2)
    assert err.value.context["expected"] == 7
    assert err.value.context["counted"] == 8


def test_scan_refuses_a_real_axis_shortfall(monkeypatch):
    # one sign change fewer than the winding count: no index is guessed
    real = spectrum._sign_changes
    monkeypatch.setattr(spectrum, "_sign_changes", lambda vals: real(vals)[1:])
    with pytest.raises(SpectrumConsistencyError) as err:
        spectrum_scan(Z, Z, 1, -2, 2)
    assert err.value.context["expected"] == 7
    assert err.value.context["located"] == 6
