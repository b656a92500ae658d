import cmath
import json
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from stieltjes_spec.errors import (
    BadArgumentError,
    ConvergenceError,
    DeterminantError,
    MeshRefinementError,
    NumericalError,
    UnsupportedMeasureError,
)
from stieltjes_spec.charfn import boundary_matrix, delta, real_split
from stieltjes_spec.cli import main
from stieltjes_spec.measure import Measure, oscillation_sequence, ramp_sequence
from stieltjes_spec import ivp
from stieltjes_spec.spectrum import (
    count_zeros_disc,
    eigenfunction,
    find_eigenvalue,
    spectrum_scan,
)
from stieltjes_spec.ivp import (
    FundamentalPath,
    InitialTriple,
    SolverConfig,
    Workspace,
    cube_root,
    fundamental_matrix,
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(series_cases())
@example((0j, [0.0, 0.3, 1.0]))
@example((-7e5j, [0.005, 0.00563, 0.00564, 0.0112]))
def test_series_rows_are_the_bits_of_the_series_branch(case):
    """_series_rows is zero_potential_rows on its series branch, byte for
    byte, and zero_potential_rows sums that branch through it: one Horner."""
    lam, pts = case
    pts = np.asarray(pts)
    on_series = abs(cube_root(lam)) * pts < ivp._SERIES_SWITCH
    want = np.array(zero_potential_rows(lam, pts))[:, on_series]
    assert ivp._series_rows(lam, pts[on_series]).tobytes() == want.tobytes()
    calls = []
    series = ivp._series_rows

    def spy(lam_, s):
        calls.append(s.copy())
        return series(lam_, s)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ivp, "_series_rows", spy)
        zero_potential_rows(lam, pts)
    assert len(calls) == int(np.any(on_series))
    if calls:
        assert np.array_equal(calls[0], pts[on_series])


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


def _projector_matrices(p, q, lam, xs):
    """N(x) at the points xs for purely atomic (p, q), shape (len(xs), 3, 3).

    The transfer solution written out: on a segment with constant q_c, the
    companion matrix A has right eigenvectors (1, r, r^2) and left ones
    (r^2 + 2 q_c, r, 1) at each root r of r^3 + 2 q_c r + i lam, so
    exp(s A) = sum_r e^(r s) (1, r, r^2)^T (r^2 + 2 q_c, r, 1) / (3 r^2 + 2 q_c),
    vectorised over s; an atom subtracts y (dq - i dp) from w.
    """
    atoms = ivp._interior_atoms(p, q)
    starts = [0.0] + [x for x, _ in atoms]
    ends = starts[1:] + [1.0]
    out = np.empty((len(xs), 3, 3), dtype=complex)
    state = np.eye(3, dtype=complex)
    for i, (start, end) in enumerate(zip(starts, ends)):
        if i > 0:
            state[2] -= state[0] * atoms[i - 1][1].conjugate()
        q_c = q.drift(0.5 * (start + end))
        r = np.roots([1.0, 0.0, 2.0 * q_c, 1j * lam])
        for _ in range(3):
            r = r - (r**3 + 2.0 * q_c * r + 1j * lam) / (3.0 * r**2 + 2.0 * q_c)
        proj = np.einsum("aj,bj->jab", np.stack([np.ones(3), r, r * r]),
                         np.stack([r * r + 2.0 * q_c, r, np.ones(3)]) / (3.0 * r * r + 2.0 * q_c))
        inside = (xs >= start) & ((xs < end) | (end == 1.0))
        out[inside] = np.einsum("xj,jab->xab", np.exp(np.outer(xs[inside] - start, r)),
                                proj) @ state
        state = np.einsum("j,jab->ab", np.exp(r * (end - start)), proj) @ state
    return out


@pytest.mark.parametrize("p, q", [
    (Measure.point(0.4, 0.3), Measure.point(0.5, 0.7)),
    (Measure.point(0.3, 2.0), Measure.point(0.6, -1.5)),
])
def test_recovered_rows_match_the_transfer_solution_at_large_lambda(p, q):
    """y' and w at every mesh edge, up to |lambda| = 2e6, within 7e-14 of
    the exact atomic solution relative to max(1, max |exact|) per row.

    The oracle is first checked against solve_transfer on its own grid.
    """
    inits = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.3, -1.0, 2.5j]])
    for lam in (64.0, 2000.0, 3e4, 2e5, 1e6, 2e6, -2e6, -300 + 40j, -7e4 + 5e3j):
        exact = solve_transfer(p, q, lam, InitialTriple(*inits[3]))
        oracle = _projector_matrices(p, q, lam, exact.nodes) @ inits[3]
        assert np.max(np.abs(oracle.T - exact.edge)) <= 2e-15 * np.max(np.abs(exact.edge))
        fp = FundamentalPath(p, q, lam)
        got = np.stack([c.edge for c in fp.columns], axis=-1) @ inits.T
        want = np.moveaxis(_projector_matrices(p, q, lam, fp.columns[0].nodes) @ inits.T,
                           0, 1)
        for row in (1, 2):  # y', then w right-continuous at the atoms
            err = np.max(np.abs(got[row] - want[row]), axis=0)
            scale = np.maximum(1.0, np.max(np.abs(want[row]), axis=0))
            assert np.all(err <= 7e-14 * scale), (lam, row, err / scale)


def test_transfer_rejects_density_measures():
    q = Measure.from_density(0.2, 0.6, (1.0,))
    with pytest.raises(UnsupportedMeasureError):
        solve_transfer(Measure.zero(), q, 1.0, InitialTriple(1, 0, 0))


def test_transfer_at_a_double_characteristic_root_matches_picard():
    # q steps to -3, and lambda sits at the double root of r^3 - 6r + i*lam
    q = Measure.point(0.2, -3.0)
    lam = complex(0.0, -math.sqrt(32.0))
    for init in ivp._CANONICAL:
        got = solve_transfer(Measure.zero(), q, lam, init)
        ref = solve_picard(Measure.zero(), q, lam, init)
        for a, b in ((got.y_at_one, ref.y_at_one),
                     (got.yprime_at_one, ref.yprime_at_one),
                     (got.w_at_one, ref.w_at_one)):
            assert abs(a - b) <= 1e-13 * max(1.0, abs(b))


def test_propagator_matches_mpmath_at_crowded_roots():
    # r^3 + 2 q_c r + i lam has the double root r0 = +-sqrt(-2 q_c / 3) at
    # lam_d = i (r0^3 + 2 q_c r0); lam_d + 3i r0 eps^2 splits it into about
    # r0 +- eps, so each gap below is a root gap relative to |r0|
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(14)
    cases = [(0.0, 0.0, 0.05), (0.0, 0.0, 1.0)]  # the triple root at 0
    for _ in range(10):
        size = 10.0 ** rng.uniform(-1.0, 2.0)  # |q_c| from 0.1 to 100
        for q_c in (size, -size):
            r0 = cmath.sqrt(-2.0 * q_c / 3.0) * rng.choice((-1.0, 1.0))
            lam_d = 1j * (r0**3 + 2.0 * q_c * r0)
            for gap in (0.0, 10.0 ** rng.uniform(-13.0, -7.0),
                        10.0 ** rng.uniform(-7.0, -2.0)):
                eps = 0.5 * gap * abs(r0) * cmath.exp(2j * math.pi * rng.uniform())
                cases.append((q_c, lam_d + 3j * r0 * eps * eps, rng.uniform(0.05, 1.0)))
    for q_c, lam, s in cases:
        got = ivp._propagator(q_c, lam, s)
        with mpmath.workdps(35):
            a = mpmath.matrix([[0, 1, 0], [0, 0, 1],
                               [-1j * mpmath.mpc(lam), -2 * mpmath.mpf(q_c), 0]])
            e = mpmath.expm(a * mpmath.mpf(s))
            want = np.array([[complex(e[i, j]) for j in range(3)] for i in range(3)])
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


def test_propagator_at_zero_length_is_the_identity():
    # a zero matrix has norm 0, so scaling and squaring takes no halvings;
    # both cases sit on crowded roots: the triple root 0 and a double root
    for q_c, lam in ((0.0, 0.0), (-3.0, complex(0.0, -math.sqrt(32.0)))):
        assert np.array_equal(ivp._propagator(q_c, lam, 0.0), np.eye(3))


@pytest.mark.parametrize("p, q", [
    (Measure.point(0.4, 0.3), Measure.point(0.5, 0.7)),
    (Measure.point(0.3, 2.0), Measure.point(0.6, -1.5)),
])
def test_transfer_evaluates_arrays_like_the_projector_oracle(p, q):
    """eval_y, eval_yprime and eval_w at the FundamentalPath edges, within
    2e-15 of the eigenprojector solution relative to each channel's size."""
    init = np.array([0.3, -1.0, 2.5j])
    for lam in (64.0, 2e5, 2e6, -2e6, -300 + 40j, -7e4 + 5e3j):
        path = solve_transfer(p, q, lam, InitialTriple(*init))
        xs = FundamentalPath(p, q, lam).columns[0].nodes
        want = _projector_matrices(p, q, lam, xs) @ init
        for c, channel in enumerate((path.eval_y, path.eval_yprime, path.eval_w)):
            err = np.max(np.abs(channel(xs) - want[:, c]))
            assert err <= 2e-15 * np.max(np.abs(want[:, c])), (lam, c)


def test_transfer_propagates_once_per_segment(monkeypatch):
    # two atoms make three segments; a point at a segment start is stored
    p, q = Measure.point(0.4, 0.3), Measure.point(0.5, 0.7)
    path = solve_transfer(p, q, 2e5, InitialTriple(1, 0, 0))
    propagator, calls = ivp._propagator, []

    def counting(q_c, lam, s):
        calls.append(np.shape(s))
        return propagator(q_c, lam, s)

    monkeypatch.setattr(ivp, "_propagator", counting)
    xs = np.linspace(0.0, 1.0, 1001)
    for channel in (path.eval_y, path.eval_yprime, path.eval_w):
        channel(xs)
    assert len(calls) == 9
    moved = np.count_nonzero(~np.isin(xs, path._starts))
    assert sum(np.prod(shape) for shape in calls) == 3 * moved
    calls.clear()
    starts = np.array([0.0, 0.4, 0.5])
    assert np.array_equal(path.eval_y(starts), path._states[:, 0])
    assert calls == []


def test_refined_zero_width_cell_is_refused():
    # atoms one ulp apart are two level-0 edges; level 1 puts their
    # midpoint on the upper one, leaving a cell of no width
    upper = math.nextafter(0.3, 1.0)
    p = Measure.point(0.3, 1.0).plus(Measure.point(upper, 1.0))
    with pytest.raises(BadArgumentError, match="strictly increasing") as err:
        solve_picard(p, Measure.zero(), 64.0, InitialTriple(1, 0, 0))
    assert err.value.context == {"x": upper}


def test_a_mesh_that_cannot_be_refined_is_refused_before_any_engine_runs(monkeypatch):
    # every verified solve runs level 1, so it is built before the level-0
    # engine: the refusal costs no engine run, direct or mirror
    upper = math.nextafter(0.3, 1.0)
    p = Measure.point(0.3, 0.5).plus(Measure.point(upper, 0.4))
    zero = Measure.zero()
    init = InitialTriple(1, 0, 0)
    runs = []
    engine = ivp._Engine.__init__

    def counted(eng, geo, *args):
        runs.append(geo.n)
        engine(eng, geo, *args)

    monkeypatch.setattr(ivp._Engine, "__init__", counted)
    for call in (lambda: solve_value(p, zero, 64.0, init),
                 lambda: solve_picard(p, zero, 64.0, init),
                 lambda: ivp._mirror_value(Workspace(p, zero), 64.0, init, None),
                 lambda: real_split(p, zero, 64.0)):
        with pytest.raises(BadArgumentError, match="strictly increasing") as err:
            call()
        assert err.value.context == {"x": upper}
    assert runs == []
    # one resolution needs no refinement, and agrees with the exact solver
    got = solve_value(p, zero, 64.0, init, verify=False)
    assert len(runs) == 1
    assert abs(got - (-4.5117 - 9.7540j)) < 1e-4
    assert abs(got - solve_transfer(p, zero, 64.0, init).y_at_one) <= 1e-13 * abs(got)


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
    # the mesh floor is an integer: a fraction, a bool or a non-finite value
    # would be doubled and rounded up to a floor nobody asked for
    for size in (2.5, True, False, math.inf, math.nan):
        with pytest.raises(BadArgumentError, match="mesh_size"):
            SolverConfig(mesh_size=size)
    assert SolverConfig(mesh_size=64).mesh_size == 64
    for tol in (-1e-9, math.inf, math.nan):
        # an infinite target would pass the doubling check at any gap
        with pytest.raises(BadArgumentError):
            SolverConfig(tol=tol)
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
    assert plain.n_terms == with_atom.n_terms == 5
    assert abs(plain.y_at_one - with_atom.y_at_one) <= 1e-12 * abs(plain.y_at_one)


def _parent_values(path, channel, xs, side):
    """SolutionPath._values as it read before edge-only calls skipped _interp."""
    edge_vals = path.w_pre if channel == 2 and side == "left" else path.edge[channel]
    j = np.searchsorted(path.nodes, xs)
    on_edge = path.nodes[j] == xs
    out = np.empty(len(xs), dtype=complex)
    out[on_edge] = edge_vals[j[on_edge]]
    off = ~on_edge
    out[off] = ivp._interp(path.node[channel], path.nodes, xs[off], j[off] - 1)
    return out


def test_values_at_edges_alone_skip_the_interpolation(monkeypatch):
    """Edge-only, mixed and empty inputs keep their bytes; only the mixed
    one interpolates."""
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    path = solve_picard(p, q, 64.0, InitialTriple(0.3, -1.0, 2.5j))
    edges = np.concatenate([[1.0, 0.0, 0.4, 0.5], path.nodes[::37]])
    mixed = np.concatenate([edges, [0.123, 0.4 + 1e-9, 0.777]])
    interp = ivp._interp
    calls = []

    def counted(*args):
        calls.append(len(args[2]))
        return interp(*args)

    monkeypatch.setattr(ivp, "_interp", counted)
    for xs, n_calls in ((edges, 0), (mixed, 1), (np.empty(0), 0)):
        for channel, side in ((0, "right"), (1, "right"), (2, "right"), (2, "left")):
            calls.clear()
            got = path._values(channel, xs, side)
            assert calls == [3] * n_calls
            want = _parent_values(path, channel, xs, side)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


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
    oracle = solve_transfer(p, q, lam, init)
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


def _sub_nodes(geo):
    """The sub-node points tau, (6, 8, n), of the partial integrals."""
    h = np.diff(geo.edges)
    centers = 0.5 * (geo.edges[:-1] + geo.edges[1:])
    return centers + 0.5 * h * ivp._PARTIAL_ETA[:, :, None]


def _plain_weights(geo):
    """The sub-node weights 0.5 h W against dt, (6, 8, n)."""
    return 0.5 * np.diff(geo.edges) * ivp._PARTIAL_W[:, :, None]


def _rho_and_q(geo, pts):
    """rho = q' + i p' and the drift q of geo's measures at the points."""
    return (geo.q.density_many(pts) + 1j * geo.p.density_many(pts),
            geo.q.drift_many(pts))


def _reference_term(geo, lam_eff, vals, edge_vals):
    """One Picard term built the direct way.

    rho and q taken from the measures at every node and sub-node (no
    measure value stored on the geometry is read), exp over every
    sub-node, the d(q + ip) and q dt channels contracted separately by
    einsum, and the two channels mixed only at the end.
    """
    k = cube_root(lam_eff)
    iok = 1j * k * ivp._OMEGA_POW
    a2 = ivp._OMEGA_NEG / (3j * k)
    a3 = -ivp._OMEGA_POW / (3.0 * k * k)
    e_node = np.exp(-np.multiply.outer(iok, geo.tg))
    u_node = np.exp(np.multiply.outer(iok, geo.tg))
    u_edge = np.exp(np.multiply.outer(iok, geo.edges))
    tau = _sub_nodes(geo)
    e_sub = np.exp(-np.multiply.outer(iok, tau))  # (3, 6, 8, n)
    w_rho, w_q = (_plain_weights(geo) * f for f in _rho_and_q(geo, tau))
    rho_g, q_g = _rho_and_q(geo, geo.tg)
    zero = np.zeros((3, 1), dtype=complex)
    channels = []
    for w_sub, w_cell in ((w_rho, rho_g), (w_q, q_g)):
        m = np.einsum("bsi,jbsi,bsa->jiba", w_sub, e_sub, ivp._PARTIAL_L)
        cell = np.einsum("jia,ia->ji", e_node, geo.gw * w_cell * vals)
        edge = np.concatenate([zero, np.cumsum(cell, axis=1)], axis=1)
        node = edge[:, :-1, None] + np.einsum("jiba,ia->jib", m, vals)
        channels.append((node, edge))
    (node_rho, edge_rho), (node_q, edge_q) = channels
    for idx, x_a, d_mu in geo.atoms:
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
    w_rho = _plain_weights(geo) * _rho_and_q(geo, _sub_nodes(geo))[0]
    for m, w_sub in ((geo.m_rho0, w_rho), (geo.m_p0, _plain_weights(geo))):
        want = np.einsum("bsi,bsa->bai", w_sub, ivp._PARTIAL_L)
        assert np.max(np.abs(m - want)) <= 1e-15 * max(1.0, np.max(np.abs(want)))
    if mesh == "many":
        assert len(geo.widths) >= 40


@st.composite
def _piecewise_measure(draw, degree):
    """One to three density pieces of the given degree on a grid of 1/20,
    coefficients in [-2, 2], and at times an atom."""
    cuts = draw(st.lists(st.integers(0, 20), min_size=2, max_size=6, unique=True))
    cuts = sorted(cuts)[: len(cuts) // 2 * 2]
    mu = Measure.zero()
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        coeffs = [draw(st.floats(-2.0, 2.0)) for _ in range(degree + 1)]
        mu = mu.plus(Measure.from_density(lo / 20.0, hi / 20.0, coeffs))
    if draw(st.booleans()):
        weight = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
        mu = mu.plus(Measure.point(draw(st.integers(1, 20)) / 20.0, weight))
    return mu


@st.composite
def sub_weight_cases(draw):
    degree = draw(st.sampled_from((0, 1, 2, 3, 4, 8, 12)))
    p, q = draw(_piecewise_measure(degree)), draw(_piecewise_measure(degree))
    return p, q, degree, draw(st.sampled_from((16, 64, 256))), draw(st.sampled_from((0, 1)))


def _size(mu):
    """Sum of |coefficients| and |atom weights|: it bounds |mu'| and the
    drift |mu|, the coefficients being in t - lo, from 0 to at most 1."""
    return (sum(abs(c) for piece in mu.pieces for c in piece.coeffs)
            + sum(abs(a.w) for a in mu.atoms))


# the gap for densities of degree 8 and 12, by level-0 cells per unit
# length; the measured maxima over 2,000 draws were 7.9e-10, 1.6e-13 and
# 2.8e-16
_HIGH_DEGREE_GAP = {16: 2e-9, 64: 4e-13, 256: 2e-15}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sub_weight_cases())
@example((Measure.point(0.4, 0.3), Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5)),
          0, 256, 0))
@example((Measure.from_density(0.0, 0.05, (0.0,) * 5 + (2.0, 6e-5, 1.26, -1e-108)),
          Measure.from_density(0.0, 0.05, (0.0,) * 11 + (1.0,)), 12, 16, 0))
def test_sub_node_weights_from_gauss_products_match_direct_evaluation(case):
    """_SUB_FROM_GW @ gw_rho and gw_q against 0.5 h W times rho and q
    evaluated at the sub-nodes.

    The gap is taken relative to 0.5 h W M, with M = _size(p) + _size(q)
    a bound on |rho| and |q|.  (Relative to the largest weight the gap of a
    high degree is not scale-free: x^8 on [0, h] errs by the same fraction
    of its size at every h.)  Densities of degree <= 4 make rho and the
    drift q polynomials of degree <= 5 on each cell, where the derived
    weights are exact and the gap is rounding: 1.0e-15 at most over 2,000
    draws.  Degrees 8 and 12 leave the interpolation error, O(h^6),
    bounded by _HIGH_DEGREE_GAP.
    """
    p, q, degree, n_uni, level = case
    geo = Workspace(p, q).geometry(0.0, n_uni, level)
    plain = _plain_weights(geo).reshape(48, geo.n)
    scale = plain * (_size(p) + _size(q))
    bound = 2e-15 if degree <= 4 else _HIGH_DEGREE_GAP[n_uni]
    derived = ivp._sub_weights(geo.gw_rho, geo.gw_q)
    for got, f in zip(derived, _rho_and_q(geo, _sub_nodes(geo))):
        want = plain * f.reshape(48, geo.n)
        assert np.all(np.abs(got - want) <= bound * scale)


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
    # below the shift threshold too: the series branch is exact near 0
    for lam in (0.0, 0.01, -0.02j, 0.027, -0.5, 40.0, -3e4 + 7e3j, 2e6, -7.4e7):
        for verify in (True, False):
            got = solve_value(zero, zero, lam, init, verify=verify)
            y1, y2, y3 = zero_potential_rows(lam, [1.0])
            want = complex((init.y0 * y1 + init.z0 * y2 + init.w0 * y3)[0])
            assert (got.real, got.imag) == (want.real, want.imag)
    assert calls == []
    with pytest.raises(NumericalError):
        solve_value(zero, zero, 1e8, init)


def test_beyond_the_ceiling_is_refused_before_a_mesh():
    # |k| = 1000 > _K_CEILING: no level-0 geometry is built for the refusal
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    ws = Workspace(p, q)
    for verify in (False, True):
        with pytest.raises(NumericalError, match="beyond the supported ceiling"):
            solve_value(p, q, 1e9, InitialTriple(1, 0, 0), workspace=ws, verify=verify)
        assert ws._cache == {}


def test_workspace_for_another_pair_is_refused():
    # a workspace answers for the pair it was built for: handed to another
    # pair it would silently return the wrong pair's values
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    zero = Measure.zero()
    e1 = InitialTriple(1, 0, 0)
    calls = [
        lambda a, b, ws: solve_picard(a, b, 64.0, e1, workspace=ws),
        lambda a, b, ws: solve_value(a, b, 64.0, e1, workspace=ws),
        lambda a, b, ws: FundamentalPath(a, b, 64.0, workspace=ws),
        lambda a, b, ws: real_split(a, b, 64.0, workspace=ws),
        lambda a, b, ws: boundary_matrix(a, b, 64.0, 1, workspace=ws),
        lambda a, b, ws: delta(a, b, 64.0, 1, workspace=ws),
        lambda a, b, ws: count_zeros_disc(a, b, 1, 0.0, math.pi, workspace=ws),
        lambda a, b, ws: eigenfunction(a, b, 1, 64.0, workspace=ws),
        lambda a, b, ws: find_eigenvalue(a, b, 1, 2, workspace=ws),
        lambda a, b, ws: spectrum_scan(a, b, 1, 0, 1, workspace=ws),
    ]
    for call in calls:
        with pytest.raises(BadArgumentError, match="different coefficient pair"):
            call(p, q, Workspace(zero, zero))
        with pytest.raises(BadArgumentError, match="different coefficient pair"):
            call(zero, zero, Workspace(p, q))
        with pytest.raises(BadArgumentError, match="different coefficient pair"):
            call(p, q, Workspace(q, p))
    # equal measures built apart describe the same pair
    twin = Workspace(Measure.point(0.4, 0.3), q)
    got = solve_value(p, q, 64.0, e1, workspace=twin)
    assert twin._cache
    assert got == solve_value(p, q, 64.0, e1)


def test_sub_roundoff_tolerance_is_refused_even_on_exact_agreement():
    # zero potential: every level holds the closed form, so the doubling
    # gap is exactly 0; a 1e-18 target must still be refused
    cfg = SolverConfig(mesh_size=8, tol=1e-18)
    with pytest.raises(MeshRefinementError) as err:
        solve_picard(Measure.zero(), Measure.zero(), 40.0, InitialTriple(1, 0, 0), cfg)
    assert err.value.context["gap"] == 0.0


_RECOVERY_TENSORS = ("m_rho0", "m_p0")


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


# every array the engine and budget_logs read; the first group is shared
# with the direct geometry, the second too when rho is real, and conjugated
# when it is complex
_SHARED_ARRAYS = ("edges", "tg", "gw", "qg", "q_edge", "gw_q", "widths", "width_of")
_RHO_ARRAYS = ("gw_rho",)


@st.composite
def _conjugation_measure(draw, positions):
    """Atoms at some of the shared positions (0 among them at times) and a
    density piece of degree up to 3."""
    mu = Measure.zero()
    for x in positions:
        if draw(st.booleans()):
            weight = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
            mu = mu.plus(Measure.point(x / 100.0, weight))
    degree = draw(st.sampled_from((None, 0, 1, 2, 3)))
    if degree is not None:
        lo = draw(st.integers(0, 80))
        hi = draw(st.integers(lo + 5, 100))
        coeffs = [draw(st.floats(-2.0, 2.0)) for _ in range(degree + 1)]
        mu = mu.plus(Measure.from_density(lo / 100.0, hi / 100.0, coeffs))
    return mu


@st.composite
def conjugation_cases(draw):
    positions = draw(st.lists(st.integers(0, 99), max_size=3, unique=True))
    p = draw(_conjugation_measure(positions))
    q = draw(_conjugation_measure(positions))
    return p, q, draw(st.sampled_from((0, 1))), draw(st.booleans())


@settings(max_examples=40, deadline=None, derandomize=True)
@given(conjugation_cases())
@example((Measure.point(0.0, 0.5).plus(Measure.point(0.3, -0.7)),
          Measure.point(0.0, -1.0).plus(Measure.point(0.3, 0.4)).plus(
              Measure.from_density(0.2, 0.9, (1.0, -2.0, 0.5, 1.5))), 1, True))
@example((Measure.from_density(0.0, 1.0, (0.3, -1.1, 2.0, -0.4)),
          Measure.zero(), 0, False))
def test_conjugated_geometry_equals_a_fresh_mirror_geometry(case):
    """_Geometry.conjugated is (-p, q) on the same edges, bit for bit.

    It shares the lambda-free arrays with the direct geometry, whether that
    one has built budget_logs and m_rho0 or not, rho among them when it is
    real, and leaves it and its workspace as they were.
    """
    p, q, level, warm = case
    ws = Workspace(p, q)
    geo = ws.geometry(0.0, 16, level)
    if warm:
        geo.budget_logs, geo.m_rho0
    gw_rho = geo.gw_rho.copy()
    view = geo.conjugated()
    fresh = ivp._Geometry(p.scaled(-1.0), q, geo.edges)
    for name in _SHARED_ARRAYS + _RHO_ARRAYS + ("budget_logs", "m_rho0"):
        got, want = getattr(view, name), getattr(fresh, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
    real = not np.any(p.density_many(geo.tg))
    assert geo.gw_rho.dtype == (float if real else complex)
    if real:
        shared = _SHARED_ARRAYS + _RHO_ARRAYS + (("m_rho0",) if warm else ())
    else:
        shared = _SHARED_ARRAYS
    for name in shared:
        assert getattr(view, name) is getattr(geo, name), name
    assert (view.n, view.picard_budget, view.atoms) == (
        fresh.n, fresh.picard_budget, fresh.atoms)
    assert np.array_equal(geo.gw_rho, gw_rho)
    assert view not in ws._cache.values() and len(ws._cache) == level + 1


def _widened(geo, conjugate=False):
    """geo with rho stored complex, as it is for a p with a density.

    gw_rho and m_rho0 are promoted by astype(complex), with +0 imaginary
    parts.  conjugate gives the mirror view of that geometry as
    conjugated() built it: gw_rho conjugated (-0 imaginary parts), m_rho0
    rebuilt from it, the atom weights conjugated.
    """
    out = object.__new__(ivp._Geometry)
    out.__dict__.update(vars(geo))
    out.gw_rho = geo.gw_rho.astype(complex)
    out.m_rho0 = geo.m_rho0.astype(complex)
    if conjugate:
        out.p = geo.p.scaled(-1.0)
        out.gw_rho = out.gw_rho.conjugate()
        out.atoms = [(idx, x_a, d_mu.conjugate()) for idx, x_a, d_mu in geo.atoms]
        del out.m_rho0
    return out


def _engine_bytes(geo, lam_eff):
    """y at the nodes and edges, the term count and the recovered channels
    of one engine run, as bytes; a refused run gives its error."""
    init = InitialTriple(0.3, -1.0, 2.5j)
    eng = ivp._Engine(geo, lam_eff, SolverConfig())
    try:
        y_node, y_edge, m = eng.iterate(init)
    except (ConvergenceError, NumericalError) as err:
        return type(err), str(err)
    node, edge = eng.recover(init, y_node, y_edge)
    return y_node.tobytes(), y_edge.tobytes(), m, node.tobytes(), edge.tobytes()


@settings(max_examples=30, deadline=None, derandomize=True)
@given(conjugation_cases())
@example((Measure.point(0.4, 0.3), Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5)),
          1, False))
@example((Measure.point(0.0, 0.5).plus(Measure.from_density(0.1, 0.6, (1.0, -0.5))),
          Measure.point(0.3, 0.4), 0, True))
def test_real_rho_solves_with_the_bits_of_a_complex_one(case):
    """A real rho gives every engine output the bits of a complex one.

    Direct: the geometry against its copy with rho widened to complex.
    Mirror: the conjugated view against a fresh (-p, q) geometry and
    against a view on conjugated complex copies, whose zero imaginary
    parts are -0.
    Below _SHIFT_MIN (lambda = 0.01) the shifted p + dx keeps rho complex.
    """
    p, q, level, _ = case
    ws = Workspace(p, q)
    for lam in (64.0, -300.0 + 40.0j, 2e6, 0.01):
        lam_eff, shift_c = ivp._effective(lam)
        n_uni = ivp._n_uniform(SolverConfig(), cube_root(lam_eff))
        geo = ws.geometry(shift_c, n_uni, level)
        # m_rho0 built from a complex gw_rho is the widened real one
        wide = _widened(geo)
        del wide.m_rho0
        assert wide.m_rho0.tobytes() == geo.m_rho0.astype(complex).tobytes()
        want = _engine_bytes(geo, lam_eff)
        assert _engine_bytes(_widened(geo), lam_eff) == want
        p_eff = p.plus(Measure.lebesgue(shift_c)) if shift_c else p
        fresh = ivp._Geometry(p_eff.scaled(-1.0), q, geo.edges)
        mirror = -lam_eff.conjugate()
        want = _engine_bytes(fresh, mirror)
        assert _engine_bytes(geo.conjugated(), mirror) == want
        assert _engine_bytes(_widened(geo, conjugate=True), mirror) == want


# every attribute a geometry stores before its lazy tensors are built
_STORED = {"p", "q", "edges", "picard_budget", "tg", "gw", "n", "widths",
           "width_of", "qg", "q_edge", "gw_rho", "gw_q", "atoms"}
_LAZY = ("budget_logs",) + _RECOVERY_TENSORS


def _stored_bytes(geo, *lazy) -> int:
    """Bytes of every buffer the geometry's eager arrays, and the lazy ones
    named, keep alive: a view counts the whole array it was cut from, once."""
    roots = {}
    for name, value in vars(geo).items():
        if isinstance(value, np.ndarray) and (name not in _LAZY or name in lazy):
            while value.base is not None:
                value = value.base
            roots[id(value)] = value.nbytes
    return sum(roots.values())


@pytest.mark.parametrize("kind", ["level 0", "refined", "conjugated",
                                  "p with a density", "conjugated, p with a density"])
def test_a_geometry_stores_only_what_engines_read(kind):
    """On the ROADMAP pair, whose p has no density, rho is real: 264 bytes
    per cell, 320 with budget_logs.  A density of p keeps rho complex: 312
    and 368.  The edges and the distinct widths add a few bytes per
    geometry, below one per cell."""
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    rho_type, per_cell = float, 264
    if "density" in kind:
        p = p.plus(Measure.from_density(0.1, 0.8, (0.3, -1.2)))
        rho_type, per_cell = complex, 312
    ws = Workspace(p, q)
    direct = geo = ws.geometry(0.0, 256, 1 if kind == "refined" else 0)
    if kind.startswith("conjugated"):
        geo = geo.conjugated()
        for name in _RHO_ARRAYS:
            assert (getattr(geo, name) is getattr(direct, name)) == (rho_type is float)
    assert set(vars(geo)) == _STORED
    assert geo.gw_rho.dtype == rho_type
    assert _stored_bytes(geo) < (per_cell + 1) * geo.n
    # the lazy tensors come on top, and m_p0 keeps the bits of the plain
    # sub-node weights 0.5 h W
    assert geo.m_p0.tobytes() == ivp._partial_moments(_plain_weights(geo)).tobytes()
    geo.budget_logs
    assert _stored_bytes(geo, "budget_logs") < (per_cell + 57) * geo.n
    assert geo.m_rho0.dtype == rho_type
    assert set(vars(geo)) == _STORED | set(_LAZY)


# ---------------------------------------------------------------------------
# what a workspace keeps alive


# k on five successive rungs of the default ladder: n_uniform 256 to 1536
_RUNG_K = (20.0, 50.0, 80.0, 110.0, 150.0)


def _rung(k: float) -> tuple[float, int]:
    return 0.0, ivp._n_uniform(SolverConfig(), k)


def _cached_rungs(ws) -> dict:
    """The levels the workspace caches, by rung."""
    rungs = {}
    for shift_c, n_uni, level in ws._cache:
        rungs.setdefault((shift_c, n_uni), set()).add(level)
    return rungs


def test_a_workspace_keeps_the_levels_of_its_last_three_rungs():
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    e1 = InitialTriple(1, 0, 0)
    ws = Workspace(p, q)
    assert len({_rung(k) for k in _RUNG_K}) == 5
    for k in _RUNG_K:
        solve_value(p, q, k ** 3, e1, workspace=ws)
    assert ivp._CACHED_RUNGS == 3
    assert _cached_rungs(ws) == {_rung(k): {0, 1} for k in _RUNG_K[2:]}
    # a lookup makes its rung the most recently used: the oldest kept rung,
    # solved again, outlives the next one when a new rung comes in
    solve_value(p, q, _RUNG_K[2] ** 3, e1, workspace=ws, verify=False)
    solve_value(p, q, _RUNG_K[0] ** 3, e1, workspace=ws, verify=False)
    kept = [_rung(k) for k in (_RUNG_K[4], _RUNG_K[2], _RUNG_K[0])]
    assert set(_cached_rungs(ws)) == set(kept)
    assert list(ws._rungs) == kept  # least recently used first


def _contents(geo) -> dict:
    """Every attribute of a geometry, arrays as (dtype, shape, bytes)."""
    return {name: (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v
            for name, v in vars(geo).items()}


@pytest.mark.parametrize("density", [False, True], ids=["real rho", "complex rho"])
def test_an_evicted_rung_is_rebuilt_with_the_same_bits(density):
    p = Measure.point(0.4, 0.3)
    if density:
        p = p.plus(Measure.from_density(0.1, 0.8, (0.3, -1.2)))
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    init = InitialTriple(0.3, -1.0, 2.5j)
    lam = _RUNG_K[0] ** 3
    ws = Workspace(p, q)
    first = solve_picard(p, q, lam, init, workspace=ws)
    built = dict(ws._cache)
    for k in _RUNG_K[1:1 + ivp._CACHED_RUNGS]:
        solve_value(p, q, k ** 3, InitialTriple(1, 0, 0), workspace=ws)
    assert _rung(_RUNG_K[0]) not in _cached_rungs(ws)
    again = solve_picard(p, q, lam, init, workspace=ws)
    assert set(built) <= set(ws._cache)
    for key, geo in built.items():
        rebuilt = ws._cache[key]
        assert rebuilt is not geo
        for name in _LAZY:  # built on both, where a solve has not built them
            getattr(geo, name)
            getattr(rebuilt, name)
        assert _contents(rebuilt) == _contents(geo)
    for got, want in ((again.edge, first.edge), (again.node, first.node),
                      (again.w_pre, first.w_pre), (again.nodes, first.nodes)):
        assert got.tobytes() == want.tobytes()
    assert again.n_terms == first.n_terms


def test_a_verified_solve_drops_each_level_engine_before_the_next(monkeypatch):
    """When an engine is set up, no engine of an earlier level is alive:
    real_split's direct and mirror solves each run levels 0 and 1."""
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    engines, alive = [], []
    setup = ivp._Engine.__init__

    def spied(eng, *args, **kwargs):
        alive.append(sum(ref() is not None for ref in engines))
        engines.append(weakref.ref(eng))
        setup(eng, *args, **kwargs)

    monkeypatch.setattr(ivp._Engine, "__init__", spied)
    real_split(p, q, 64.0, workspace=Workspace(p, q))
    assert alive == [0, 0, 0, 0]


# ---------------------------------------------------------------------------
# Picard tail bound


@st.composite
def _small_measure(draw):
    """Up to two atoms (one may sit at the inert origin) and one constant or
    linear density piece."""
    mu = Measure.zero()
    for x in draw(st.lists(st.integers(0, 99), max_size=2, unique=True)):
        weight = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
        mu = mu.plus(Measure.point(x / 100.0, weight))
    degree = draw(st.sampled_from((None, 0, 1)))
    if degree is not None:
        lo = draw(st.integers(0, 80))
        hi = draw(st.integers(lo + 5, 100))
        coeffs = [draw(st.floats(-2.0, 2.0)) for _ in range(degree + 1)]
        mu = mu.plus(Measure.from_density(lo / 100.0, hi / 100.0, coeffs))
    return mu


@st.composite
def tail_cases(draw):
    p, q = draw(_small_measure()), draw(_small_measure())
    kind = draw(st.sampled_from(("real", "complex", "small")))
    if kind == "small":  # |lambda| < 0.027: solved at lambda + 1
        lam = cmath.rect(draw(st.floats(0.0, 0.0269)),
                         draw(st.floats(-math.pi, math.pi)))
    else:
        size = 10.0 ** draw(st.floats(-1.5, 4.3))
        if kind == "real":
            lam = complex(size * draw(st.sampled_from((-1.0, 1.0))))
        else:
            lam = cmath.rect(size, draw(st.floats(-math.pi, math.pi)))
    init = InitialTriple(*(complex(draw(st.floats(-2.0, 2.0)),
                                   draw(st.floats(-2.0, 2.0))) for _ in range(3)))
    return p, q, lam, init, draw(st.integers(0, 1))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tail_cases())
@example((Measure.point(0.4, 0.3), Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5)),
          64.0 + 0j, InitialTriple(1, 0, 0), 0))
@example((Measure.point(0.4, 0.3), Measure.zero(), 0.01 + 0j, InitialTriple(0, 0, 1), 1))
def test_remainder_lies_inside_the_tail_bound(case):
    """The discrete remainder after the stop, 40 terms of it, obeys the bound.

    The series is replayed term by term: it reproduces the solve bit for
    bit, so its m-th term is the one the stop measured.
    """
    p, q, lam, init, level = case
    if (p.is_atomic and all(a.x == 0.0 for a in p.atoms)
            and q.is_atomic and all(a.x == 0.0 for a in q.atoms)):
        reject()  # nothing acts on (0, 1]: no Picard term runs
    cfg = SolverConfig()
    lam_eff, shift_c = ivp._effective(lam)
    n_uni = ivp._n_uniform(cfg, cube_root(lam_eff))
    geo = Workspace(p, q).geometry(shift_c, n_uni, level)
    eng = ivp._Engine(geo, lam_eff, cfg)
    y_node, y_edge, m = eng.iterate(init)
    c_node, c_edge = eng.initial_rows(init)
    s_node, s_edge = c_node.copy(), c_edge.copy()
    for _ in range(m):
        c_node, c_edge = eng.term(c_node, c_edge)
        s_node += c_node
        s_edge += c_edge
    assert np.array_equal(s_node.T, y_node) and np.array_equal(s_edge, y_edge)
    scale = max(1.0, float(np.max(np.abs(y_node))))
    bound = math.exp(eng.log_tail_bound(m, c_node, c_edge))
    assert bound < 0.5 * cfg.tol * scale
    r_node = np.zeros_like(c_node)
    r_edge = np.zeros_like(c_edge)
    for _ in range(40):
        c_node, c_edge = eng.term(c_node, c_edge)
        r_node += c_node
        r_edge += c_edge
    assert max(np.max(np.abs(r_node)), np.max(np.abs(r_edge))) <= bound


def test_log_tail_sum_matches_incomplete_gamma():
    # S_m(V) = e^V m! V^-m P(m + 1, V), P the regularized lower gamma
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    for m, budget in ((1, 0.5), (4, 4.764), (6, 11.7), (30, 288.0),
                      (199, 288.0), (1, 2160.0), (200, 2160.0)):
        v = mpmath.mpf(budget)
        want = float(v + mpmath.loggamma(m + 1) - m * mpmath.log(v)
                     + mpmath.log(mpmath.gammainc(m + 1, 0, v, regularized=True)))
        got = ivp._log_tail_sum(m, budget)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    assert ivp._log_tail_sum(3, 0.0) == -math.inf


def test_roadmap_pair_stops_within_seven_terms():
    # V = 11.7: a stop that waits for V / (m + 1) < 1 runs 11 terms
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    e1 = InitialTriple(1, 0, 0)
    ws = Workspace(p, q)
    lam4 = find_eigenvalue(p, q, 1, 4, workspace=ws).lam
    for lam in (64.0, lam4):
        path = solve_picard(p, q, lam, e1, workspace=ws)
        assert path.n_terms <= 7


def test_oscillating_q_certifies_far_below_its_budget():
    # V = 3 * 3 * 12 = 108 counts the variation, which the oscillation
    # cancels; a stop that waits for V / (m + 1) < 1 runs 107 terms
    zero = Measure.zero()
    q = oscillation_sequence(3)
    ws = Workspace(zero, q)
    path = solve_picard(zero, q, 8.0, InitialTriple(1, 0, 0), workspace=ws)
    assert min(g.picard_budget for g in ws._cache.values()) > 107.0
    assert path.n_terms < 107


def test_unrepresentable_tail_bound_is_refused_at_once():
    # V = 3 (2 * 240 + 240) = 2160: e^V is far beyond the float range
    zero = Measure.zero()
    q = Measure.from_density(0.0, 1.0, (240.0,))
    with pytest.raises(ConvergenceError) as err:
        solve_value(zero, q, 1.0, InitialTriple(1, 0, 0))
    ctx = err.value.context
    assert ctx["budget"] == pytest.approx(2160.0)
    assert ctx["terms"] == 1
    assert ctx["log10_bound"] > 308.0


# ---------------------------------------------------------------------------
# the running budget V(x) against an independent route


@st.composite
def _budget_measure(draw):
    """Atoms at 0, inside and at 1, each drawn or not, and a cubic density
    piece with three distinct roots inside it, so that it changes sign
    inside cells."""
    mu = Measure.zero()
    for x in (0.0, draw(st.integers(1, 99)) / 100.0, 1.0):
        if draw(st.booleans()):
            weight = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from((-1.0, 1.0)))
            mu = mu.plus(Measure.point(x, weight))
    if draw(st.booleans()):
        lo = draw(st.integers(0, 60))
        hi = draw(st.integers(lo + 20, 100))
        width = (hi - lo) / 100.0
        fractions = draw(st.lists(st.integers(1, 99), min_size=3, max_size=3,
                                  unique=True))
        scale = draw(st.floats(0.5, 3.0)) * draw(st.sampled_from((-1.0, 1.0)))
        # constant-first coefficients in t - lo of scale * prod(t - lo - root)
        coeffs = scale * np.polynomial.polynomial.polyfromroots(
            [f * width / 100.0 for f in fractions])
        mu = mu.plus(Measure.from_density(lo / 100.0, hi / 100.0, tuple(coeffs)))
    return mu


def _variation_mp(mpmath, mu):
    """x -> |mu|(0, x] by mpmath: quad of |rho| over each piece, split at
    the piece's polyroots, plus the atoms in (0, x]."""
    pieces = []
    for piece in mu.pieces:
        high_first = [mpmath.mpf(c) for c in reversed(piece.coeffs)]
        top = mpmath.mpf(piece.hi) - mpmath.mpf(piece.lo)
        roots = sorted(mpmath.re(r) for r in mpmath.polyroots(high_first, extraprec=60)
                       if abs(mpmath.im(r)) < 1e-20 and 0 < mpmath.re(r) < top)
        cuts = [mpmath.mpf(0)] + roots + [top]
        masses = [mpmath.quad(lambda u: abs(mpmath.polyval(high_first, u)), [a, b],
                              method="gauss-legendre")
                  for a, b in zip(cuts[:-1], cuts[1:])]
        pieces.append((piece.lo, high_first, cuts, masses))

    def variation(x):
        total = sum(abs(a.w) for a in mu.atoms if 0.0 < a.x <= x)
        for lo, high_first, cuts, masses in pieces:
            u = mpmath.mpf(x) - mpmath.mpf(lo)
            for a, b, mass in zip(cuts[:-1], cuts[1:], masses):
                if u >= b:
                    total += mass
                elif u > a:
                    total += mpmath.quad(lambda t: abs(mpmath.polyval(high_first, t)),
                                         [a, u], method="gauss-legendre")
        return mpmath.mpf(total)

    return variation


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_budget_measure(), _budget_measure(), st.sampled_from((0, 1)))
@example(Measure.from_density(0.5, 0.501, (1000.0,)), Measure.zero(), 0)
def test_running_budget_matches_an_mpmath_variation(p, q, level):
    """budget_logs is log(V / V(x)) and picard_budget is V = V(1), with
    V(x) = 3 (2 |q|(0,1] x + |p|(0,x] + |q|(0,x]) computed by mpmath."""
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 20
    geo = Workspace(p, q).geometry(0.0, 8, level)
    var_p, var_q = _variation_mp(mpmath, p), _variation_mp(mpmath, q)
    tv_q = var_q(1.0)

    def budget(x):
        return 3 * (2 * tv_q * mpmath.mpf(x) + var_p(x) + var_q(x))

    v_one = budget(1.0)
    assert abs(geo.picard_budget - v_one) <= 1e-12 * v_one
    points = np.vstack([geo.tg.T, geo.edges[1:]])
    for idx in np.ndindex(points.shape):
        x = float(points[idx])
        v_x = budget(x)
        if v_x == 0:
            assert geo.budget_logs[idx] == ivp._NO_ENVELOPE
            continue
        want = max(float(mpmath.log(v_one / v_x)), 0.0)
        assert abs(geo.budget_logs[idx] - want) <= 1e-12, (idx, x)


def _cli_error(capsys):
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


def test_a_series_out_of_terms_is_refused(monkeypatch, tmp_path, capsys):
    # the ROADMAP pair at lambda = 64 stops after 7 terms; a cap of 2 (set
    # here only) leaves the loop without a stop
    monkeypatch.setattr(ivp, "_MAX_TERMS", 2)
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    with pytest.raises(ConvergenceError, match="did not converge in 2 terms") as err:
        solve_value(p, q, 64.0, InitialTriple(1, 0, 0))
    ctx = err.value.context
    assert set(ctx) == {"budget", "terms", "log10_bound"}
    assert ctx["budget"] == pytest.approx(11.7)
    assert ctx["terms"] == 2
    # the refused bound is above the stop target 0.5 tol scale, scale >= 1
    assert math.log10(0.5e-9) <= ctx["log10_bound"] < 308.0
    q_file = tmp_path / "q.json"
    q_file.write_text(q.to_json())
    assert main(["solve", "--p", "atom:0.4:0.3", "--q", str(q_file),
                 "--lambda", "64"]) == 3
    assert _cli_error(capsys)["error"] == "NO_CONVERGENCE"


def test_a_series_that_overflows_is_refused(monkeypatch, capsys):
    # terms of 1e308 overflow y at the second term; V = 0.009 keeps the
    # tail bound representable, so the stop accepts and the finiteness
    # check refuses; the typed error is the only signal, so under the
    # suite's error::RuntimeWarning filter no numpy warning may come first
    def huge(self, vals, edge_vals):
        return (np.full((6, self.geo.n), 1e308 + 0j),
                np.full(self.geo.n + 1, 1e308 + 0j))

    monkeypatch.setattr(ivp._Engine, "term", huge)
    p = Measure.point(0.4, 0.003)
    with pytest.raises(NumericalError, match="overflowed or produced NaN") as err:
        solve_value(p, Measure.zero(), 64.0, InitialTriple(1, 0, 0))
    assert type(err.value) is NumericalError
    assert main(["solve", "--p", "atom:0.4:0.003", "--lambda", "64"]) == 3
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1 and json.loads(lines[0])["error"] == "NUMERICAL"


def test_mesh_doubling_that_never_settles_is_refused(monkeypatch, capsys):
    # a fault forced here only: every level's edge values move by 1e-6 per
    # level, so no two levels agree and doubling runs out of levels
    solve_level = ivp._iterate_on_level

    def drifting(ws, lam, inits, cfg, level, mirror=False):
        eng, results = solve_level(ws, lam, inits, cfg, level, mirror)
        return eng, [(node, edge + 1e-6 * level, m) for node, edge, m in results]

    monkeypatch.setattr(ivp, "_iterate_on_level", drifting)
    with pytest.raises(MeshRefinementError, match="failed to stabilize") as err:
        solve_value(Measure.point(0.4, 0.3), Measure.zero(), 64.0, InitialTriple(1, 0, 0))
    ctx = err.value.context
    assert set(ctx) == {"doublings", "gap"}
    assert ctx["doublings"] == ivp._MAX_DOUBLINGS - 1
    assert ctx["gap"] > 10.0 * SolverConfig().tol
    assert main(["solve", "--p", "atom:0.4:0.3", "--lambda", "64"]) == 3
    assert _cli_error(capsys)["error"] == "MESH_REFINEMENT"


def test_a_determinant_off_one_is_refused(monkeypatch):
    # a fault forced here only: N(x) scaled by 1.01 has det 1.01^3
    matrix = FundamentalPath.matrix
    monkeypatch.setattr(FundamentalPath, "matrix", lambda self, x: 1.01 * matrix(self, x))
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    with pytest.raises(DeterminantError, match="det N drifted from 1") as err:
        fundamental_matrix(p, q, 64.0, 0.75)
    ctx = err.value.context
    assert set(ctx) == {"x", "drift"}
    assert ctx["x"] == 0.75
    assert ctx["drift"] == pytest.approx(1.01 ** 3 - 1.0, rel=1e-6)


def test_an_atom_off_the_mesh_is_refused(monkeypatch, capsys):
    # a fault forced here only: a mesh that leaves out the breakpoints, so
    # the atom at 0.4 (256 * 0.4 = 102.4) falls inside a cell
    monkeypatch.setattr(Workspace, "_base_edges",
                        lambda self, n: np.linspace(0.0, 1.0, n + 1))
    with pytest.raises(BadArgumentError, match="atom at 0.4 is not a mesh edge") as err:
        solve_value(Measure.point(0.4, 0.3), Measure.zero(), 64.0, InitialTriple(1, 0, 0))
    assert err.value.context == {"x": 0.4}
    assert main(["solve", "--p", "atom:0.4:0.3", "--lambda", "64"]) == 2
    assert _cli_error(capsys)["error"] == "BAD_ARGUMENT"


def test_zero_pair_path_is_the_closed_form_after_one_zero_term():
    # with p = q = 0 the budget is 0: the first Picard term vanishes
    # exactly, its tail bound is -inf, and the series stops there, so every
    # edge keeps the engine's initial rows, the closed form
    zero = Measure.zero()
    for lam in (64.0, -3e4 + 7e3j, 2e6):
        fp = FundamentalPath(zero, zero, lam)
        geo = fp._geo
        eng = ivp._Engine(geo, lam, SolverConfig())
        growth = -(cube_root(lam) * ivp._OMEGA_POW).imag
        size = np.maximum(1.0, np.exp(np.multiply.outer(growth, geo.edges)).sum(axis=0))
        rows = zero_potential_rows(lam, geo.edges)
        for j, (init, col) in enumerate(zip(ivp._CANONICAL, fp.columns)):
            assert col.n_terms == 1
            assert np.array_equal(col.y, eng.initial_rows(init)[1])
            assert np.all(np.abs(col.y - rows[j]) <= 1e-13 * size)


# ---------------------------------------------------------------------------
# level-0 mesh: mesh_size times the lowest ladder rung that meets |k| h <= _KH_MAX


def _is_rung(c):
    """c is on the ladder 1, 2, 3, 4, 6, 8, 12, ...: 2^j or 3 * 2^(j - 1)."""
    return c // (c & -c) in (1, 3)  # c over its largest power-of-two factor


def _rung_below(c):
    if c & (c - 1):  # 3 * 2^(j - 1)
        return 2 * c // 3
    return 3 * c // 4 if c >= 4 else c // 2


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from([1, 3, 256]), st.integers(1, 2048)),
       st.floats(0.0, 420.0), st.floats(0.0, 2.0 * math.pi))
@example(1, 0.12, 0.0)
@example(3, 3 * 3 * 0.12, 0.0)  # |k| exactly on the rung-3 mesh's bound
@example(256, 66.0, 0.0)  # an n = 11 window of the ROADMAP pair
@example(256, 123.2, 0.0)  # |k| at lambda = -1.87e6
@example(256, 420.0, 0.0)
def test_level0_mesh_is_the_lowest_ladder_rung_that_meets_the_rule(size, r, phase):
    k = cmath.rect(r, phase)
    n = ivp._n_uniform(SolverConfig(mesh_size=size), k)
    c, rest = divmod(n, size)
    assert rest == 0 and _is_rung(c)
    assert abs(k) <= n * ivp._KH_MAX
    if c > 1:
        assert size * _rung_below(c) * ivp._KH_MAX < abs(k)
    doubled = size
    while doubled * ivp._KH_MAX < abs(k):
        doubled *= 2
    assert n <= doubled


@pytest.mark.parametrize("lam", [64.0, 2e5, 3.3e5, -1.87e6, 2e6])
def test_widest_level0_cell_of_a_solve_meets_the_rule(lam):
    p = Measure.point(0.4, 0.3)
    q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
    ws = Workspace(p, q)
    solve_value(p, q, lam, InitialTriple(1, 0, 0), workspace=ws)
    (geo,) = [g for (_, _, level), g in ws._cache.items() if level == 0]
    assert abs(cube_root(lam)) * float(np.max(np.diff(geo.edges))) <= ivp._KH_MAX
