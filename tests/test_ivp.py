import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stieltjes_spec.errors import (
    BadArgumentError,
    DegeneracyError,
    MeshRefinementError,
    NumericalError,
    UnsupportedMeasureError,
)
from stieltjes_spec.charfn import real_split
from stieltjes_spec.measure import Measure, ramp_sequence
from stieltjes_spec import ivp
from stieltjes_spec.ivp import (
    FundamentalPath,
    InitialTriple,
    SolverConfig,
    Workspace,
    cube_root,
    fundamental_matrix,
    solve_inhomogeneous,
    solve_picard,
    solve_transfer,
    solve_value,
    xi_bound,
    zero_potential,
    zero_potential_rows,
)


def random_pair(rng, atoms=True, density=True):
    """Random (p, q) pair with a few polynomial pieces and interior atoms."""
    def one():
        mu = Measure.zero()
        if density:
            cuts = np.sort(rng.uniform(0.05, 0.95, 2))
            coeffs = tuple(rng.uniform(-1.5, 1.5, rng.integers(1, 4)))
            mu = mu.plus(Measure.from_density(cuts[0], cuts[1], coeffs))
        if atoms:
            for _ in range(rng.integers(1, 3)):
                mu = mu.plus(Measure.point(rng.uniform(0.1, 0.95), rng.uniform(-1, 1)))
        return mu
    return one(), one()


# reference values computed with 40-digit arithmetic from the exponential sums
_ROW_TABLE = [
    (35.0 + 12.0j, 1.0,
     1.3828647651732014 - 6.9197193687890016j,
     1.2739169446832700 - 1.6170595732179777j,
     0.5721334814401752 - 0.3117838321951994j),
    (35.0 + 12.0j, 0.37,
     1.0974386781617250 - 0.2984592156827773j,
     0.3791666298950437 - 0.0274893658819562j,
     0.0691340035500827 - 0.0020298373549306j),
    (-6700.0 + 0.0j, 1.0,
     -4105053.0284449452 - 5091.0673633638834j,
     -188713.09014530810 + 108641.73968085837j,
     -5787.6764619435190 + 9995.8982255254560j),
    (0.5 - 0.2j, 1.0,
     0.9663753913224597 - 0.0830553766083341j,
     0.9916250391320497 - 0.0207936328948822j,
     0.4983281285574463 - 0.0041617047217828j),
    (-0.03 + 0.01j, 0.37,
     1.0000844188158502 + 0.0002532671380989j,
     0.3700078088534808 + 0.0000234271255139j,
     0.0684505778593391 + 0.0000017336041519j),
]


def test_zero_potential_rows_reference_values():
    for lam, s, r1, r2, r3 in _ROW_TABLE:
        y1, y2, y3 = zero_potential_rows(lam, [s])
        for got, want in ((y1[0], r1), (y2[0], r2), (y3[0], r3)):
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_zero_potential_rows_series_matches_exponential():
    # the two evaluation branches must agree near the switch radius
    for lam in (0.2 + 0.1j, -0.4j, 0.9):
        k = cube_root(lam)
        for s in (0.3, 0.49, 0.51, 0.9):
            got = zero_potential_rows(lam, [s])
            e = np.exp(1j * np.outer(ivp._OMEGA_POW, [k * s]))
            y1 = np.sum(e) / 3.0
            y2 = np.sum(ivp._OMEGA_NEG * e[:, 0]) / (3j * k)
            y3 = -np.sum(ivp._OMEGA_POW * e[:, 0]) / (3 * k * k)
            for a, b in zip(got, (y1, y2, y3)):
                assert abs(a[0] - b) <= 1e-13 * max(1.0, abs(b))


@st.composite
def series_cases(draw):
    """lambda (0, below the shift threshold, or general) and points s.

    The points lie on both sides of the series switch |k s| = 0.5, up to
    |k s| = 1, and within [0, 1].
    """
    kind = draw(st.sampled_from(("zero", "shifted", "general")))
    angle = draw(st.floats(-math.pi, math.pi))
    if kind == "zero":
        lam = 0j
    elif kind == "shifted":
        lam = cmath.rect(draw(st.floats(0.0, ivp._SHIFT_MIN, exclude_max=True)), angle)
    else:
        lam = cmath.rect(10.0 ** draw(st.floats(-3.0, math.log10(7.4e7))), angle)
    k = abs(cube_root(lam))
    reach = ivp._SERIES_SWITCH / k if k > 0 else math.inf
    # s = 0 or s^2 well inside the normal float range
    fraction = st.one_of(st.just(0.0), st.floats(1e-3, 2.0))
    fractions = draw(st.lists(fraction, min_size=1, max_size=8))
    return lam, [min(1.0, f * reach) for f in fractions]


def _series_reference(mpmath, lam, s):
    """(y1, y2, y3) at s from the power series in u = -i lambda s^3."""
    s = mpmath.mpf(s)
    u = -1j * mpmath.mpc(lam) * s**3
    return [s**j * mpmath.fsum(u**m / mpmath.factorial(3 * m + j) for m in range(30))
            for j in range(3)]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_cases())
@example((0j, [0.0, 0.3, 1.0]))
@example((0.02 - 0.01j, [0.0, 1.0]))
@example((-7e5j, [0.005, 0.00563, 0.00564, 0.0112]))
def test_zero_potential_rows_series_matches_mpmath(case):
    """Each series entry within 1e-15 of its own value (40-digit reference).

    The exponential side of the switch, where the channel sums cancel to
    O(|k s|^2), is checked against the same reference at 1e-14.
    """
    mpmath = pytest.importorskip("mpmath")
    lam, pts = case
    got = zero_potential_rows(lam, pts)
    on_series = abs(cube_root(lam)) * np.asarray(pts) < ivp._SERIES_SWITCH
    with mpmath.workdps(40):
        for i, s in enumerate(pts):
            bound = 1e-15 if on_series[i] else 1e-14
            for g, want in zip((v[i] for v in got), _series_reference(mpmath, lam, s)):
                if want == 0:
                    assert g == 0
                else:
                    assert abs(mpmath.mpc(g) - want) <= bound * abs(want)


def test_zero_potential_matrix_lambda_zero_is_polynomial():
    m = zero_potential(0.7, 0.0).entries
    want = np.array([[1.0, 0.7, 0.245], [0.0, 1.0, 0.7], [0.0, 0.0, 1.0]])
    assert np.max(np.abs(m - want)) < 1e-15


def test_zero_potential_determinant_one():
    rng = np.random.default_rng(11)
    for _ in range(20):
        lam = complex(rng.uniform(-6700, 6700), rng.uniform(-6700, 6700))
        x = rng.uniform(0, 1)
        m = zero_potential(x, lam)
        scale = max(1.0, float(np.max(np.abs(m.entries)))) ** 2
        assert abs(m.det - 1.0) <= 1e-12 * scale


def test_picard_zero_potential_closed_form():
    rng = np.random.default_rng(5)
    zero = Measure.zero()
    for _ in range(8):
        r = rng.uniform(0, (6 * math.pi) ** 3)
        lam = r * np.exp(1j * rng.uniform(0, 2 * math.pi))
        x = rng.uniform(0, 1)
        fp = FundamentalPath(zero, zero, lam)
        want = zero_potential(x, lam).entries
        scale = max(1.0, float(np.max(np.abs(want))))
        assert np.max(np.abs(fp.matrix(x) - want)) <= 1e-9 * scale


def test_atom_jump_worked_example():
    # p = delta at 1/2, q = 0, lambda = 0, y(0)=1: w jumps from 0 to i,
    # then y bends quadratically
    p = Measure.point(0.5, 1.0)
    path = solve_picard(p, Measure.zero(), 0.0, InitialTriple(1, 0, 0))
    assert abs(path.w_at_one - 1j) < 1e-10
    assert abs(path.eval_w(0.5, side="left")) < 1e-10
    assert abs(path.eval_w(0.5) - 1j) < 1e-10
    assert abs(path.y_at_one - (1 + 0.125j)) < 1e-10
    assert abs(path.yprime_at_one - 0.5j) < 1e-10
    assert len(path.jumps) == 1
    loc, delta = path.jumps[0]
    assert loc == 0.5 and abs(delta - 1j) < 1e-10


def test_transfer_matches_worked_example():
    p = Measure.point(0.5, 1.0)
    path = solve_transfer(p, Measure.zero(), 0.0, InitialTriple(1, 0, 0))
    assert abs(path.w_at_one - 1j) < 1e-14
    assert abs(path.y_at_one - (1 + 0.125j)) < 1e-14
    assert abs(path.eval_w(0.5, side="left")) < 1e-14
    assert abs(path.eval_w(0.5) - 1j) < 1e-14


def test_cross_solver_agreement_random_atomic():
    rng = np.random.default_rng(23)
    grid = np.linspace(0, 1, 33)
    for _ in range(8):
        p, q = random_pair(rng, density=False)
        lam = complex(rng.uniform(-64, 64), rng.uniform(-64, 64))
        init = InitialTriple(rng.normal(), rng.normal(), rng.normal())
        a = solve_picard(p, q, lam, init)
        b = solve_transfer(p, q, lam, init)
        scale = max(1.0, max(abs(b.eval_y(x)) for x in grid))
        for x in grid:
            assert abs(a.eval_y(x) - b.eval_y(x)) <= 1e-10 * scale
            assert abs(a.eval_yprime(x) - b.eval_yprime(x)) <= 1e-9 * scale
            assert abs(a.eval_w(x) - b.eval_w(x)) <= 1e-9 * scale


def test_jump_records_match_atom_weights():
    rng = np.random.default_rng(31)
    for _ in range(5):
        p, q = random_pair(rng)
        lam = complex(rng.uniform(-30, 30), rng.uniform(-10, 10))
        path = solve_picard(p, q, lam, InitialTriple(1, 0.5j, 0))
        scale = max(1.0, float(np.max(np.abs(path.y))))
        seen = 0
        for loc, delta in path.jumps:
            d_conj = q.atom_weight(loc) - 1j * p.atom_weight(loc)
            want = -path.eval_y(loc) * d_conj
            assert abs(delta - want) <= 1e-10 * scale
            assert abs((path.w_post[np.searchsorted(path.nodes, loc)]
                        - path.w_pre[np.searchsorted(path.nodes, loc)]) - delta) < 1e-12 * scale
            seen += 1
        assert seen >= 1


def test_y_and_derivative_continuous_at_atoms():
    p = Measure.point(0.4, 0.9)
    q = Measure.point(0.7, -1.3).plus(Measure.from_density(0.2, 0.9, (0.6,)))
    path = solve_picard(p, q, 21.0 - 4.0j, InitialTriple(1, 0, 0))
    for a in (0.4, 0.7):
        for f in (path.eval_y, path.eval_yprime):
            left = f(a - 1e-9)
            right = f(a + 1e-9)
            assert abs(left - f(a)) < 1e-6
            assert abs(right - f(a)) < 1e-6


def test_recovered_rows_differentiate_y():
    # y' and w agree with centered differences of the row above them
    q = Measure.from_density(0.1, 0.8, (0.7, -0.9, 1.1))
    p = Measure.point(0.55, 0.6)
    path = solve_picard(p, q, 33.0 + 9.0j, InitialTriple(1, -1j, 0.25))
    h = 1e-6
    for x in (0.23, 0.41, 0.77, 0.9):
        fd_yp = (path.eval_y(x + h) - path.eval_y(x - h)) / (2 * h)
        assert abs(fd_yp - path.eval_yprime(x)) < 1e-5 * max(1, abs(fd_yp))
        fd_w = (path.eval_yprime(x + h) - path.eval_yprime(x - h)) / (2 * h)
        assert abs(fd_w - path.eval_w(x)) < 1e-4 * max(1, abs(fd_w))


def test_determinant_identity_random_pairs():
    rng = np.random.default_rng(47)
    for _ in range(4):
        p, q = random_pair(rng)
        lam = complex(rng.uniform(-500, 500), rng.uniform(-500, 500))
        fp = FundamentalPath(p, q, lam, workspace=Workspace(p, q))
        for x in np.linspace(0.0, 1.0, 7):
            err = fp.check_det(float(x))
            assert err < 1e-8


def test_fundamental_matrix_columns_are_canonical():
    q = Measure.point(1.0 / 3.0, 2.0)
    m = fundamental_matrix(Measure.zero(), q, 1.0, 0.0)
    assert np.max(np.abs(m.entries - np.eye(3))) < 1e-12
    m1 = fundamental_matrix(Measure.zero(), q, 1.0, 1.0)
    col = solve_picard(Measure.zero(), q, 1.0, InitialTriple(0, 1, 0))
    assert abs(m1.entries[0, 1] - col.y_at_one) < 1e-12
    assert abs(m1.entries[1, 1] - col.yprime_at_one) < 1e-12
    assert abs(m1.entries[2, 1] - col.w_at_one) < 1e-12


def test_lambda_translation_against_lebesgue_shift():
    # adding c*Lebesgue to p is exactly a shift of lambda by c
    rng = np.random.default_rng(3)
    p, q = random_pair(rng)
    c = 0.35
    lam = 12.0 - 3.0j
    a = solve_picard(p, q, lam, InitialTriple(1, 0, 0))
    b = solve_picard(p.plus(Measure.lebesgue(c)), q, lam + c, InitialTriple(1, 0, 0))
    for x in np.linspace(0, 1, 17):
        assert abs(a.eval_y(x) - b.eval_y(x)) < 1e-10
        assert abs(a.eval_yprime(x) - b.eval_yprime(x)) < 1e-9
        assert abs(a.eval_w(x) - b.eval_w(x)) < 1e-9


def test_small_lambda_handled_by_internal_shift():
    # atomic pair lets the exact transfer solver referee lambda near 0
    p = Measure.point(0.3, 0.7)
    q = Measure.point(0.6, -1.1)
    for lam in (0.0, 1e-5, -0.02j):
        a = solve_picard(p, q, lam, InitialTriple(1, 1, 0))
        b = solve_transfer(p, q, lam, InitialTriple(1, 1, 0))
        for x in (0.2, 0.5, 0.8, 1.0):
            assert abs(a.eval_y(x) - b.eval_y(x)) < 1e-11
            assert abs(a.eval_w(x) - b.eval_w(x)) < 1e-10


def test_value_only_matches_full_path():
    rng = np.random.default_rng(9)
    p, q = random_pair(rng)
    lam = 77.0 + 5.0j
    ws = Workspace(p, q)
    full = solve_picard(p, q, lam, InitialTriple(0, 1, 0), workspace=ws)
    val = solve_value(p, q, lam, InitialTriple(0, 1, 0), workspace=ws)
    assert abs(val - full.y_at_one) < 1e-13 * max(1, abs(val))


def test_growth_envelope_bounds_zero_potential_row():
    rng = np.random.default_rng(17)
    for k_real in (2.0, 5.0, 11.0):
        lam = k_real**3
        assert math.isclose(xi_bound(1.0, lam), math.exp(math.sqrt(3) * k_real / 2))
    for _ in range(40):
        lam = complex(rng.uniform(-3000, 3000), rng.uniform(-3000, 3000))
        k = cube_root(lam)
        if abs(k) < 1.0:
            continue
        x = rng.uniform(0, 1)
        y1, y2, y3 = (v[0] for v in zero_potential_rows(lam, [x]))
        cap = 3.0 * xi_bound(x, lam) * (1 + 1e-12)
        assert abs(y1) <= cap
        assert abs(y2) <= cap / abs(k)
        assert abs(y3) <= cap / abs(k) ** 2


def test_inhomogeneous_cubic_forcing():
    # p=q=0, lambda=0, h=1, nu=Lebesgue: the state integrates to x^3/6
    sol = solve_inhomogeneous(Measure.zero(), Measure.zero(), 0.0,
                              InitialTriple(0, 0, 0), lambda t: 1.0,
                              Measure.lebesgue())
    assert abs(sol.y_at_one - 1.0 / 6.0) < 1e-10
    assert abs(sol.yprime_at_one - 0.5) < 1e-10
    assert abs(sol.w_at_one - 1.0) < 1e-10
    x = 0.62
    assert abs(sol.eval_y(x) - x**3 / 6.0) < 1e-10


def test_inhomogeneous_zero_forcing_is_homogeneous():
    q = Measure.from_density(0.2, 0.8, (0.4, 0.3))
    a = solve_inhomogeneous(Measure.zero(), q, 4.0, InitialTriple(1, 2, 3),
                            lambda t: 0.0, Measure.lebesgue())
    b = solve_picard(Measure.zero(), q, 4.0, InitialTriple(1, 2, 3))
    for x in (0.0, 0.33, 0.71, 1.0):
        assert abs(a.eval_y(x) - b.eval_y(x)) < 1e-11
        assert abs(a.eval_w(x) - b.eval_w(x)) < 1e-10


def test_inhomogeneous_atomic_forcing_jump():
    # w jumps by h(a) * nu{a}; downstream the state follows the fundamental
    # matrix applied to the shifted coefficient vector
    nu = Measure.point(0.4, 2.0)
    h = lambda t: t
    sol = solve_inhomogeneous(Measure.zero(), Measure.zero(), 0.0,
                              InitialTriple(0, 0, 0), h, nu)
    idx = int(np.searchsorted(sol.nodes, 0.4))
    assert abs((sol.w_post[idx] - sol.w_pre[idx]) - 0.8) < 1e-12
    assert abs(sol.eval_y(0.4)) < 1e-12
    # beyond the atom: y(x) = 0.8 * (x - 0.4)^2 / 2
    for x in (0.6, 1.0):
        assert abs(sol.eval_y(x) - 0.4 * (x - 0.4) ** 2) < 1e-11
    assert sol.jumps == [(0.4, pytest.approx(0.8))]


def test_transfer_rejects_density_measures():
    q = Measure.from_density(0.2, 0.6, (1.0,))
    with pytest.raises(UnsupportedMeasureError):
        solve_transfer(Measure.zero(), q, 1.0, InitialTriple(1, 0, 0))


def test_degenerate_characteristic_roots_refused():
    # q steps to -3, and lambda sits at the double root of r^3 - 6r + i*lam
    q = Measure.point(0.2, -3.0)
    lam = complex(0.0, -math.sqrt(32.0))
    with pytest.raises(DegeneracyError):
        solve_transfer(Measure.zero(), q, lam, InitialTriple(1, 0, 0))


def test_propagator_matches_taylor_series():
    rng = np.random.default_rng(13)
    for _ in range(6):
        q_c = rng.uniform(-3, 3)
        lam = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        s = rng.uniform(0.05, 0.6)
        A = np.array([[0, 1, 0], [0, 0, 1], [-1j * lam, -2 * q_c, 0]], complex)
        term = np.eye(3, dtype=complex)
        total = term.copy()
        for n in range(1, 60):
            term = term @ A * (s / n)
            total += term
        got = ivp._propagator(q_c, lam, s)
        assert np.max(np.abs(got - total)) < 1e-12 * max(1, np.max(np.abs(total)))


def test_transfer_near_triple_root_matches_picard():
    # on the q = 0 segment the roots of r^3 + i lambda crowd the triple root
    # at 0 with gaps of order |lambda|^(1/3), above the degeneracy cut
    mu = Measure.point(0.1, -1.0)
    init = InitialTriple(0, 0, 1)
    exact = solve_transfer(mu, mu, 0.0, init)
    for lam in (1e-14, 1e-11, 1e-8):
        got = solve_transfer(mu, mu, lam, init)
        ref = solve_picard(mu, mu, lam, init)
        for a, b in ((got.y_at_one, ref.y_at_one),
                     (got.yprime_at_one, ref.yprime_at_one),
                     (got.w_at_one, ref.w_at_one)):
            assert abs(a - b) <= 1e-13
        # y(1) moves from its lambda = 0 value at the rate 0.0091 |lambda|
        assert abs(got.y_at_one - exact.y_at_one) <= 0.01 * lam + 1e-15


def test_unreachable_tolerance_raises_mesh_error():
    # below the float64 noise floor two mesh levels can never agree
    q = Measure.from_density(0.1, 0.9, (0.8, -0.4, 0.2))
    cfg = SolverConfig(mesh_size=8, tol=1e-18)
    with pytest.raises(MeshRefinementError):
        solve_picard(Measure.zero(), q, 40.0, InitialTriple(1, 0, 0), cfg)


def test_validation_rejects_bad_inputs():
    with pytest.raises(BadArgumentError):
        InitialTriple(float("nan"), 0, 0)
    with pytest.raises(BadArgumentError):
        InitialTriple(0, float("inf"), 0)
    with pytest.raises(BadArgumentError):
        SolverConfig(mesh_size=0)
    with pytest.raises(BadArgumentError):
        SolverConfig(tol=-1e-9)
    with pytest.raises(BadArgumentError):
        solve_picard(Measure.zero(), Measure.zero(), float("nan"),
                     InitialTriple(1, 0, 0))
    paths = (
        solve_picard(Measure.zero(), Measure.zero(), 1.0, InitialTriple(1, 0, 0)),
        solve_transfer(Measure.point(0.5, 1.0), Measure.zero(), 1.0,
                       InitialTriple(1, 0, 0)),
    )
    for path in paths:
        for x in (1.5, -0.2, float("nan"), np.array([0.5, 1.5])):
            with pytest.raises(BadArgumentError):
                path.eval_y(x)
        with pytest.raises(BadArgumentError):
            path.eval_w(0.5, side="middle")


def test_path_rows_double_atoms():
    p = Measure.point(0.5, 1.0)
    path = solve_picard(p, Measure.zero(), 0.0, InitialTriple(1, 0, 0))
    rows = path.to_rows()
    xs = [r[0] for r in rows]
    assert xs.count(0.5) == 2
    at = [r for r in rows if r[0] == 0.5]
    assert abs(at[0][3]) < 1e-10          # pre value
    assert abs(at[1][3] - 1j) < 1e-10     # post value
    assert at[0][4] == 1 and at[1][4] == 1
    assert all(r[4] == 0 for r in rows if r[0] != 0.5)


def test_ramp_paths_approach_atom_path():
    # weak* convergence of the coefficient drives uniform path convergence
    target = solve_picard(Measure.point(0.5, 1.0), Measure.zero(), 5.0,
                          InitialTriple(1, 0, 0))
    grid = np.linspace(0, 1, 21)
    gaps = []
    for m in (10, 100):
        ramp = solve_picard(ramp_sequence(m), Measure.zero(), 5.0,
                            InitialTriple(1, 0, 0))
        gaps.append(max(abs(ramp.eval_y(x) - target.eval_y(x)) for x in grid))
    assert gaps[1] < gaps[0]
    assert gaps[1] < 1e-2


def test_origin_point_mass_is_inert():
    # dyadic weights so the drift subtraction is exact in floats
    q = Measure.point(0.5, 0.75)
    q_shifted = q.plus(Measure.point(0.0, 0.5))
    lam = 37.0 + 5.0j
    init = InitialTriple(1.0, 0.2, 0.0)
    a = solve_picard(Measure.zero(), q, lam, init)
    b = solve_picard(Measure.zero(), q_shifted, lam, init)
    assert abs(a.y_at_one - b.y_at_one) < 1e-10
    assert abs(a.w_at_one - b.w_at_one) < 1e-10
    ta = solve_transfer(Measure.zero(), q, lam, init)
    tb = solve_transfer(Measure.zero(), q_shifted, lam, init)
    assert ta.y_at_one == tb.y_at_one
    # p only acts through jumps, so an origin mass there is inert too
    pa = solve_picard(Measure.point(0.0, 3.0), q, lam, init)
    assert abs(pa.y_at_one - a.y_at_one) < 1e-10
    # the Picard budget does not count it either: the same terms run
    assert a.n_terms == b.n_terms
    p = Measure.point(0.4, 0.3)
    plain = solve_picard(p, Measure.lebesgue(0.5), 64.0, init)
    with_atom = solve_picard(
        p, Measure.lebesgue(0.5).plus(Measure.point(0.0, 1.0)), 64.0, init)
    assert plain.n_terms == with_atom.n_terms == 6
    assert abs(plain.y_at_one - with_atom.y_at_one) <= 1e-12 * abs(plain.y_at_one)


# ---------------------------------------------------------------------------
# array evaluation, property-based


def _atomic_measure(draw):
    xs = draw(st.lists(st.integers(10, 90), min_size=1, max_size=2, unique=True))
    mu = Measure.zero()
    for x in xs:
        weight = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
        mu = mu.plus(Measure.point(x / 100.0, weight))
    return mu


@st.composite
def atomic_problems(draw):
    p, q = _atomic_measure(draw), _atomic_measure(draw)
    lam = complex(draw(st.floats(-64.0, 64.0)), draw(st.floats(-64.0, 64.0)))
    init = InitialTriple(*(draw(st.floats(-2.0, 2.0)) for _ in range(3)))
    points = draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
    return p, q, lam, init, points


@settings(max_examples=12, deadline=None, derandomize=True)
@given(atomic_problems())
def test_array_evaluation_matches_scalar_and_oracle(problem):
    p, q, lam, init, points = problem
    try:
        oracle = solve_transfer(p, q, lam, init)
    except DegeneracyError:
        reject()
    path = solve_picard(p, q, lam, init)
    # mesh edges, atoms and the Gauss nodes of one cell join the random points
    lo, hi = path.nodes[3], path.nodes[4]
    gauss = 0.5 * (lo + hi) + 0.5 * (hi - lo) * ivp._G6_NODES
    atoms = [a.x for a in p.atoms + q.atoms]
    xs = np.concatenate([points, [0.0, 1.0, lo], atoms, gauss])
    # a Gauss node hands back the stored node value itself
    assert np.array_equal(path.eval_y(gauss), path.node[0][3])
    # off the nodes: the Lagrange form of the same degree-5 interpolant
    inner = np.array([x for x in points if x not in path.nodes])
    cells = np.searchsorted(path.nodes, inner) - 1
    left, right = path.nodes[cells], path.nodes[cells + 1]
    basis = ivp._lagrange_matrix(2.0 * (inner - left) / (right - left) - 1.0)
    want = np.einsum("ma,ma->m", basis, path.node[0][cells])
    scale = np.max(np.abs(path.node[0][cells]), axis=1, initial=1.0)
    assert np.all(np.abs(path.eval_y(inner) - want) <= 1e-13 * scale)
    for sol in (path, oracle):
        channels = ((sol.eval_y, ()), (sol.eval_yprime, ()),
                    (sol.eval_w, ("right",)), (sol.eval_w, ("left",)))
        for f, side in channels:
            many = f(xs, *side)
            assert many.shape == xs.shape
            for x, v in zip(xs, many):
                one = f(float(x), *side)
                assert isinstance(one, complex)
                assert (one.real, one.imag) == (v.real, v.imag)
    scale = max(1.0, float(np.max(np.abs(oracle.eval_y(xs)))))
    assert np.max(np.abs(path.eval_y(xs) - oracle.eval_y(xs))) <= 1e-10 * scale
    assert np.max(np.abs(path.eval_yprime(xs) - oracle.eval_yprime(xs))) <= 1e-9 * scale
    for side in ("right", "left"):
        gap = np.abs(path.eval_w(xs, side) - oracle.eval_w(xs, side))
        assert np.max(gap) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Picard engine: edge channels, in-cell kernel and initial rows, property-based


def _kernel_geometry(mesh, seed, lam):
    """Geometry a solve at lam would use: uniform, refined or many widths."""
    rng = np.random.default_rng(seed)
    level = 0
    if mesh == "uniform":
        p = Measure.zero()
        q = Measure.from_density(0.0, 1.0, tuple(rng.uniform(-1.0, 1.0, 2)))
    elif mesh == "refined":
        p = Measure.point(float(rng.uniform(0.1, 0.9)), float(rng.uniform(-1.0, 1.0)))
        q = Measure.from_density(0.2, 0.7, tuple(rng.uniform(-1.0, 1.0, 3)))
        level = 1 + seed % 2
    else:  # random atoms leave many distinct cell widths
        p = Measure.from_density(0.0, 1.0, (float(rng.uniform(-1.0, 1.0)),))
        q = Measure.zero()
        for x in rng.uniform(0.01, 0.99, 40):
            q = q.plus(Measure.point(float(x), float(rng.uniform(-0.1, 0.1))))
    lam_eff, shift_c = ivp._effective(lam)
    n_uni = ivp._n_uniform(SolverConfig(), cube_root(lam_eff))
    return Workspace(p, q).geometry(shift_c, n_uni, level), lam_eff


def _reference_term(geo, lam_eff, vals, edge_vals):
    """One Picard term built the direct way.

    exp over every sub-node, the d(q + ip) and q dt channels contracted
    separately by einsum, and the two channels mixed only at the end.
    """
    k = cube_root(lam_eff)
    iok = 1j * k * ivp._OMEGA_POW
    a2 = ivp._OMEGA_NEG / (3j * k)
    a3 = -ivp._OMEGA_POW / (3.0 * k * k)
    e_node = np.exp(-np.multiply.outer(iok, geo.tg))
    u_node = np.exp(np.multiply.outer(iok, geo.tg))
    u_edge = np.exp(np.multiply.outer(iok, geo.edges))
    e_sub = np.exp(-np.multiply.outer(iok, geo.tau))  # (3, 6, 8, n)
    zero = np.zeros((3, 1), dtype=complex)
    channels = []
    for w_sub, w_cell in ((geo.w_rho, geo.rho_g), (geo.w_q, geo.qg)):
        m = np.einsum("bsi,jbsi,bsa->jiba", w_sub, e_sub, ivp._PARTIAL_L)
        cell = np.einsum("jia,ia->ji", e_node, geo.gw * w_cell * vals)
        edge = np.concatenate([zero, np.cumsum(cell, axis=1)], axis=1)
        node = edge[:, :-1, None] + np.einsum("jiba,ia->jib", m, vals)
        channels.append((node, edge))
    (node_rho, edge_rho), (node_q, edge_q) = channels
    for idx, x_a, d_mu, _ in geo.atoms:
        contrib = np.exp(-iok * x_a) * (d_mu * edge_vals[idx])
        node_rho[:, idx:, :] += contrib[:, None, None]
        edge_rho[:, idx:] += contrib[:, None]
    mix_n = a3[:, None, None] * node_rho - 2.0 * a2[:, None, None] * node_q
    mix_e = a3[:, None] * edge_rho - 2.0 * a2[:, None] * edge_q
    return np.sum(u_node * mix_n, axis=0), np.sum(u_edge * mix_e, axis=0)


@st.composite
def kernel_cases(draw):
    mesh = draw(st.sampled_from(("uniform", "refined", "many")))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(("real", "complex", "shifted")))
    if kind == "shifted":  # |lambda| < 0.027: solved at lambda + 1
        size = draw(st.floats(0.0, 0.0269))
        lam = cmath.rect(size, draw(st.floats(-math.pi, math.pi)))
    else:
        size = 10.0 ** draw(st.floats(-1.5, math.log10(2e6)))
        if kind == "real":
            lam = complex(size * draw(st.sampled_from((-1.0, 1.0))))
        else:
            lam = cmath.rect(size, draw(st.floats(-math.pi, math.pi)))
    return mesh, seed, lam


@settings(max_examples=16, deadline=None, derandomize=True)
@given(kernel_cases())
@example(("uniform", 1, 2e6 + 0j))
@example(("many", 2, -2e6 + 0j))
@example(("refined", 3, 1.5e6 - 8e5j))
@example(("refined", 4, 0.01 - 0.02j))
@example(("many", 5, 0j))
def test_mixed_channel_term_matches_direct_construction(case):
    mesh, seed, lam = case
    geo, lam_eff = _kernel_geometry(mesh, seed, lam)
    y1n, y2n, y3n = zero_potential_rows(lam_eff, geo.tg.ravel())
    vals = (y1n + 0.5 * y2n - 0.25j * y3n).reshape(geo.n, 6)
    y1e, y2e, y3e = zero_potential_rows(lam_eff, geo.edges)
    edge_vals = y1e + 0.5 * y2e - 0.25j * y3e
    want_node, want_edge = _reference_term(geo, lam_eff, vals, edge_vals)
    eng = ivp._Engine(geo, lam_eff, SolverConfig())
    got_node, got_edge = eng.term(vals.T, edge_vals)  # node-major in and out
    got_node = got_node.T
    for got, want in ((got_node, want_node), (got_edge, want_edge)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the lambda-free moment tensors share the batched contraction
    for m, w_sub in ((geo.m_rho0, geo.w_rho), (geo.m_rho1, geo.w_rho * geo.tau),
                     (geo.m_q0, geo.w_q), (geo.m_p0, geo.w_plain),
                     (geo.m_p1, geo.w_plain * geo.tau)):
        want = np.einsum("bsi,bsa->bai", w_sub, ivp._PARTIAL_L)
        assert np.max(np.abs(m - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
    if mesh == "many":
        assert len(geo.widths) >= 40


@settings(max_examples=24, deadline=None, derandomize=True)
@given(kernel_cases())
@example(("many", 2, 2e6 - 1e6j))
@example(("uniform", 6, -7e5j))
@example(("refined", 7, -2e6 + 0j))
@example(("many", 8, 0.02 + 0.01j))
def test_engine_initial_rows_match_zero_potential_rows(case):
    """The engine's rows y0 y1 + z0 y2 + w0 y3 from its own exponentials.

    The bound is relative to the size of the exponential sum at each point,
    sum_j |c_j exp(i omega^j k x)|, not to its value: where two growing
    channels cancel (lambda near the imaginary axis), any float evaluation
    of the sum errs by rounding of that size, zero_potential_rows included.
    """
    mesh, seed, lam = case
    geo, lam_eff = _kernel_geometry(mesh, seed, lam)
    eng = ivp._Engine(geo, lam_eff, SolverConfig())
    k = cube_root(lam_eff)
    a2 = ivp._OMEGA_NEG / (3j * k)
    a3 = -ivp._OMEGA_POW / (3.0 * k * k)
    growth = -(k * ivp._OMEGA_POW).imag
    for init in ivp._CANONICAL + (InitialTriple(0.3, -1.0, 2.5j),):
        node, edge = eng.initial_rows(init)
        coef = np.abs(init.y0 / 3.0 + init.z0 * a2 + init.w0 * a3)
        for got, pts in ((node.T.ravel(), geo.tg.ravel()), (edge, geo.edges)):
            y1, y2, y3 = zero_potential_rows(lam_eff, pts)
            want = init.y0 * y1 + init.z0 * y2 + init.w0 * y3
            size = coef @ np.exp(np.multiply.outer(growth, pts))
            assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(1.0, size))
    # nodes lie on both sides of the series switch |k x| = 0.5 once |k|
    # passes it; the shifted problems have |k| > 0.99
    reach = np.abs(k * geo.tg.ravel())
    assert np.any(reach < ivp._SERIES_SWITCH)
    assert np.any(reach > ivp._SERIES_SWITCH) or abs(k) < 0.9
    if mesh == "many":
        assert len(geo.widths) >= 40


def test_zero_measures_solve_value_is_the_closed_form(monkeypatch):
    calls = []
    geometry = Workspace.geometry

    def counted(ws, *args):
        calls.append(args)
        return geometry(ws, *args)

    monkeypatch.setattr(Workspace, "geometry", counted)
    zero = Measure.zero()
    init = InitialTriple(0.3, -1.0, 2.5j)
    for lam in (0.027, -0.5, 40.0, -3e4 + 7e3j, 2e6, -7.4e7):
        for verify in (True, False):
            got = solve_value(zero, zero, lam, init, verify=verify)
            y1, y2, y3 = zero_potential_rows(lam, [1.0])
            want = complex((init.y0 * y1 + init.z0 * y2 + init.w0 * y3)[0])
            assert (got.real, got.imag) == (want.real, want.imag)
    assert calls == []
    # below the shift threshold the Lebesgue-shifted problem is solved
    solve_value(zero, zero, 0.01, init)
    assert calls
    with pytest.raises(NumericalError):
        solve_value(zero, zero, 1e8, init)


def test_sub_roundoff_tolerance_is_refused_even_on_exact_agreement():
    # zero potential: every level holds the closed form, so the doubling
    # gap is exactly 0; a 1e-18 target must still be refused
    cfg = SolverConfig(mesh_size=8, tol=1e-18)
    with pytest.raises(MeshRefinementError) as err:
        solve_picard(Measure.zero(), Measure.zero(), 40.0, InitialTriple(1, 0, 0), cfg)
    assert err.value.context["gap"] == 0.0


_RECOVERY_TENSORS = ("m_rho0", "m_rho1", "m_q0", "m_p0", "m_p1")


def test_recovery_tensors_are_built_on_first_use():
    """Value-only solves leave the moment tensors unbuilt; a path builds them.

    The path then equals one from a fresh workspace bit for bit.
    """
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    init = InitialTriple(0.3, -1.0, 2.5j)
    ws = Workspace(p, q)
    real_split(p, q, 40.0, workspace=ws)
    # a finer base mesh: |k| = 31 needs 512 cells
    solve_value(p, q, -3e4 + 40.0j, init, workspace=ws, verify=False)
    assert len(ws._cache) == 3
    for geo in ws._cache.values():
        assert not set(_RECOVERY_TENSORS) & set(vars(geo))
    path = solve_picard(p, q, 40.0, init, workspace=ws)
    (geo,) = [g for g in ws._cache.values() if g.edges is path.nodes]
    assert set(_RECOVERY_TENSORS) <= set(vars(geo))
    fresh = solve_picard(p, q, 40.0, init)
    for got, want in ((path.edge, fresh.edge), (path.node, fresh.node),
                      (path.w_pre, fresh.w_pre), (path.nodes, fresh.nodes)):
        assert got.tobytes() == want.tobytes()
    assert path.jumps == fresh.jumps
    assert path.n_terms == fresh.n_terms
