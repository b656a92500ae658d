"""Measure layer: induced functions, variation, Stieltjes integrals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stieltjes_spec import measure
from stieltjes_spec.errors import MeasureFormatError, MeasureParseError, QuadratureError
from stieltjes_spec.measure import (
    Atom,
    Measure,
    PolynomialPiece,
    _poly_val,
    _real_roots_in,
    lebesgue_integral_of_induced,
    ls_integral,
    oscillation_sequence,
    ramp_sequence,
)


def random_measure(rng, n_pieces=3, n_atoms=2, degree=3):
    cuts = np.sort(rng.uniform(0.05, 0.95, 2 * n_pieces))
    pieces = []
    for i in range(n_pieces):
        lo, hi = cuts[2 * i], cuts[2 * i + 1]
        if hi - lo < 1e-3:
            continue
        coeffs = tuple(rng.uniform(-2, 2, rng.integers(1, degree + 2)))
        pieces.append(PolynomialPiece(lo, hi, coeffs))
    atoms = []
    used = set()
    for _ in range(n_atoms):
        x = round(float(rng.uniform(0, 1)), 6)
        if x in used:
            continue
        used.add(x)
        atoms.append(Atom(x, float(rng.uniform(-1, 1)) or 0.5))
    return Measure(tuple(pieces), tuple(atoms))


def piecewise_midpoint(mu, f, n=50_000):
    """Oracle integral of f(t) * density(t), grid aligned per piece."""
    total = 0.0
    for p in mu.pieces:
        edges = np.linspace(p.lo, p.hi, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        total += float(np.sum(f(mids) * p.density(mids)) * (p.hi - p.lo) / n)
    return total


def riemann_tv(mu):
    """Variation oracle: midpoint rule on |density| plus atom weights."""
    tv = 0.0
    for p in mu.pieces:
        n = 50_000
        edges = np.linspace(p.lo, p.hi, n + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        tv += float(np.sum(np.abs(p.density(mids))) * (p.hi - p.lo) / n)
    return tv + sum(abs(a.w) for a in mu.atoms)


def test_eval_pinned_at_zero_with_zero_atom():
    mu = Measure.point(0.0, 2.5)
    assert mu.eval(0.0) == 0.0
    assert mu.eval(1e-12) == 2.5
    assert mu.eval(1.0) == 2.5


def test_eval_right_continuous_at_atom():
    mu = Measure.point(0.5, 1.0)
    assert mu.eval(0.5) == 1.0
    assert mu.eval(0.5 - 1e-12) == 0.0


def test_eval_matches_cumulative_density():
    # trapezoid oracle is only O(h) accurate across density jumps
    rng = np.random.default_rng(11)
    for _ in range(6):
        mu = Measure(random_measure(rng, n_atoms=0).pieces)
        xs = np.linspace(0, 1, 20_001)
        cum = np.concatenate([[0.0], np.cumsum(
            0.5 * (mu.density_many(xs)[1:] + mu.density_many(xs)[:-1]) * np.diff(xs)
        )])
        assert np.max(np.abs(mu.eval_many(xs) - cum)) < 2e-4


def test_eval_exact_polynomial_antiderivative():
    mu = Measure.from_density(0.2, 0.8, (1.0, 2.0, 3.0))
    for x in (0.2, 0.35, 0.61, 0.8, 1.0):
        u = min(x, 0.8) - 0.2
        want = u + u**2 + u**3
        assert abs(mu.eval(x) - want) < 1e-15


def test_total_variation_sign_change_exact():
    # density 2t - 1 changes sign at 1/2; variation is exactly 1/2
    mu = Measure.from_density(0.0, 1.0, (-1.0, 2.0))
    assert abs(mu.total_variation() - 0.5) < 1e-15
    assert abs(mu.eval(1.0)) < 1e-15
    assert abs(riemann_tv(mu) - 0.5) < 1e-9


def test_total_variation_random_vs_riemann():
    rng = np.random.default_rng(7)
    for _ in range(8):
        mu = random_measure(rng)
        assert abs(mu.total_variation() - riemann_tv(mu)) < 1e-7


def test_zero_atom_counts_in_total_variation_not_running_variation():
    mu = Measure(atoms=(Atom(0.0, -3.0), Atom(0.25, 1.0)))
    assert mu.total_variation() == 4.0
    assert mu.tv_function(1.0) == 1.0
    assert mu.tv_function(0.25) == 1.0
    assert mu.tv_function(0.25 - 1e-12) == 0.0


def test_tv_function_monotone():
    rng = np.random.default_rng(3)
    mu = random_measure(rng)
    vals = [mu.tv_function(x) for x in np.linspace(0, 1, 301)]
    assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
    assert abs(vals[-1] - (mu.total_variation() - sum(
        abs(a.w) for a in mu.atoms if a.x == 0.0))) < 1e-12


def test_ls_integral_lebesgue_closed_form():
    val = ls_integral(np.cos, Measure.lebesgue(), 1.0)
    assert abs(val - math.sin(1.0)) < 1e-12


def test_ls_integral_truncated_upper_limit():
    val = ls_integral(lambda t: t, Measure.lebesgue(), 0.5)
    assert abs(val - 0.125) < 1e-12


def test_ls_integral_atom_conventions():
    mu = Measure(atoms=(Atom(0.0, 2.0), Atom(0.5, -1.0)))
    g = lambda t: 3.0 + t
    assert abs(ls_integral(g, mu, 1.0) - (2 * 3.0 - 3.5)) < 1e-15
    assert abs(ls_integral(g, mu, 1.0, include_zero_atom=False) - (-3.5)) < 1e-15
    # endpoint atom included when x lands on it
    assert abs(ls_integral(g, mu, 0.5) - (6.0 - 3.5)) < 1e-15
    assert abs(ls_integral(g, mu, 0.4) - 6.0) < 1e-15


def test_ls_integral_random_vs_riemann():
    rng = np.random.default_rng(19)
    for _ in range(5):
        mu = random_measure(rng, n_atoms=0)
        g = lambda t: np.exp(np.sin(4.0 * t))
        oracle = piecewise_midpoint(mu, g)
        assert abs(ls_integral(g, mu, 1.0) - oracle) < 1e-7


def test_ls_integral_bisects_toward_a_kink(monkeypatch):
    # |t - 0.3| is not smooth at 0.3: the 10-point rule meets the tolerance
    # only on cells bisected down toward the kink
    depths = []
    adaptive = measure._adaptive_piece_integral

    def recorded(g, piece, a, b, tol, depth=0):
        depths.append(depth)
        return adaptive(g, piece, a, b, tol, depth)

    monkeypatch.setattr(measure, "_adaptive_piece_integral", recorded)
    val = ls_integral(lambda t: np.abs(t - 0.3), Measure.lebesgue(), 1.0)
    assert abs(val - 0.29) < 1e-10
    assert max(depths) == 23


def test_ls_integral_takes_a_scalar_only_integrand():
    # math.exp refuses an array: the nodes are then evaluated one by one;
    # the integral of e^t t over [0, 1) is 1
    mu = Measure.from_density(0.0, 1.0, (0.0, 1.0))
    assert abs(ls_integral(math.exp, mu, 1.0) - 1.0) < 1e-12


def test_ls_integral_refuses_a_step_integrand():
    # a jump at 0.3 never lands on a bisection point, so the error of its
    # cell stays near the cell width and the depth guard refuses the sum
    with pytest.raises(QuadratureError, match="stuck"):
        ls_integral(lambda t: np.where(t < 0.3, 0.0, 1.0), Measure.lebesgue(), 1.0)


def test_ramp_unit_mass_and_weak_star_moment():
    prev_err = None
    for m in (4, 16, 64, 256):
        mu = ramp_sequence(m)
        assert abs(mu.eval(1.0) - 1.0) < 1e-12
        moment = ls_integral(lambda t: t * t, mu, 1.0)
        err = abs(moment - 0.25)
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err < 1e-2
    with pytest.raises(MeasureFormatError):
        ramp_sequence(1)


def test_oscillation_variation_and_induced_values():
    for m in (1, 2, 3):
        mu = oscillation_sequence(m)
        assert abs(mu.total_variation() - 4.0 * m) / (4.0 * m) < 1e-6
        xs = np.linspace(0, 1, 200)
        target = np.sin(2 * np.pi * m * m * xs) / m
        assert np.max(np.abs(mu.eval_many(xs) - target)) < 1e-7


def test_plus_and_scaled_are_pointwise_linear():
    rng = np.random.default_rng(23)
    a = random_measure(rng)
    b = random_measure(rng)
    xs = np.linspace(0, 1, 500)
    combo = a.plus(b.scaled(-2.5))
    want = a.eval_many(xs) - 2.5 * b.eval_many(xs)
    assert np.max(np.abs(combo.eval_many(xs) - want)) < 1e-12
    assert a.scaled(0.0).is_zero


def test_plus_merges_coincident_atoms():
    total = Measure.point(0.5, 1.0).plus(Measure.point(0.5, -1.0))
    assert total.is_zero
    kept = Measure.point(0.5, 1.0).plus(Measure.point(0.5, 2.0))
    assert kept.atom_weight(0.5) == 3.0


def test_json_roundtrip_identity():
    rng = np.random.default_rng(5)
    mu = random_measure(rng)
    again = Measure.from_json(mu.to_json())
    assert again == mu
    assert Measure.zero() == Measure.from_json(Measure.zero().to_json())


def test_validation_rejects_malformed_input():
    with pytest.raises(MeasureFormatError):
        PolynomialPiece(0.5, 0.5, (1.0,))
    with pytest.raises(MeasureFormatError):
        PolynomialPiece(-0.1, 0.5, (1.0,))
    with pytest.raises(MeasureFormatError):
        Atom(1.5, 1.0)
    with pytest.raises(MeasureFormatError):
        Atom(0.5, 0.0)
    with pytest.raises(MeasureFormatError):
        Measure(pieces=(
            PolynomialPiece(0.0, 0.6, (1.0,)),
            PolynomialPiece(0.5, 1.0, (1.0,)),
        ))
    with pytest.raises(MeasureFormatError):
        Measure(atoms=(Atom(0.5, 1.0), Atom(0.5, 2.0)))
    with pytest.raises(MeasureParseError):
        Measure.from_json("{not json")
    with pytest.raises(MeasureParseError):
        Measure.from_json('{"pieces": [], "extra": 1}')


@pytest.mark.parametrize("text", [
    '{"atoms": [{"x": 0.5, "w": NaN}]}',
    '{"atoms": [{"x": 0.5, "w": -Infinity}]}',
    '{"pieces": [{"lo": 0.0, "hi": 1.0, "coeffs": [1.0, NaN]}]}',
    '{"pieces": [{"lo": 0.2, "hi": 0.7, "coeffs": [Infinity]}]}',
])
def test_non_finite_values_are_format_errors(text):
    # Python's json reads NaN and Infinity; the measure must refuse them
    with pytest.raises(MeasureFormatError):
        Measure.from_json(text)


def test_breakpoints_sorted_union():
    mu = Measure(
        pieces=(PolynomialPiece(0.2, 0.4, (1.0,)),),
        atoms=(Atom(0.9, 1.0), Atom(0.1, 1.0)),
    )
    assert mu.breakpoints() == (0.1, 0.2, 0.4, 0.9)


def test_lebesgue_integral_of_induced_vs_trapezoid():
    rng = np.random.default_rng(31)
    for _ in range(5):
        mu = random_measure(rng)
        xs = np.linspace(0, 1, 400_001)
        oracle = np.trapezoid(mu.eval_many(xs), xs)
        assert abs(lebesgue_integral_of_induced(mu) - oracle) < 1e-5


def sign_changing_measure(rng):
    """Cubic pieces with three roots inside each, atoms at 0 and inside."""
    cuts = np.sort(rng.uniform(0.0, 1.0, 4))
    pieces = []
    for lo, hi in ((0.0, cuts[0]), (cuts[1], cuts[2]), (cuts[2], cuts[3])):
        roots = np.sort(rng.uniform(0.0, hi - lo, 3))
        coeffs = np.poly(roots)[::-1] * rng.uniform(-4.0, 4.0)
        pieces.append(PolynomialPiece(lo, hi, tuple(coeffs)))
    atoms = (Atom(0.0, float(rng.uniform(-1, 1))),
             Atom(float(cuts[1]), float(rng.uniform(-1, 1))),
             Atom(float(rng.uniform(0, 1)), float(rng.uniform(-1, 1))))
    return Measure(tuple(pieces), atoms), pieces


def loop_tv(mu, x):
    """Running variation by the scalar per-piece loop, cut by cut."""
    if x <= 0.0:
        return 0.0
    tv = 0
    for p in mu.pieces:
        b = min(x, p.hi)
        if b <= p.lo:
            continue
        anti = (0.0,) + tuple(c / (i + 1) for i, c in enumerate(p.coeffs))
        roots = [r for r in _real_roots_in(p.coeffs, p.length) if r < b - p.lo]
        vals = _poly_val(anti, np.array([0.0, *roots, b - p.lo]))
        piece_tv = 0.0
        for left, right in zip(vals[:-1], vals[1:]):
            piece_tv += abs(float(right) - float(left))
        tv += piece_tv
    tv += sum(abs(a.w) for a in mu.atoms if 0.0 < a.x <= x)
    return float(tv)


def test_tv_function_of_an_array_is_pointwise_bit_for_bit():
    rng = np.random.default_rng(17)
    for _ in range(30):
        mu, _ = sign_changing_measure(rng)
        xs = np.concatenate([rng.uniform(-0.3, 1.3, 40), mu.breakpoints(),
                             [0.0, -0.0, -1.0, 1.0, 2.0]])
        got = mu.tv_function(xs)
        want = np.array([mu.tv_function(float(x)) for x in xs])
        assert got.shape == xs.shape
        assert got.tobytes() == want.tobytes()
        assert got.tobytes() == np.array([loop_tv(mu, x) for x in xs]).tobytes()
        assert np.all(got[xs <= 0.0] == 0.0)
        assert mu.tv_function(xs.reshape(-1, 1)).shape == (len(xs), 1)
        assert type(mu.tv_function(0.5)) is float


def test_tv_function_of_many_contiguous_pieces_is_the_loop_bit_for_bit():
    # 96 Hermite cubics end to end, each changing sign, plus atoms on a
    # piece edge and inside a piece: every point takes its own piece
    mu = oscillation_sequence(1).plus(Measure.point(0.25, -0.5)).plus(
        Measure.point(0.3, 2.0))
    edges = np.array(mu.breakpoints()[::7])
    xs = np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                         np.random.default_rng(5).uniform(-0.1, 1.1, 10)])
    got = mu.tv_function(xs)
    assert got.tobytes() == np.array([loop_tv(mu, x) for x in xs]).tobytes()


def test_tv_function_finds_each_pieces_sign_changes_once(monkeypatch):
    calls = []

    def counted(coeffs, length):
        calls.append(length)
        return _real_roots_in(coeffs, length)

    monkeypatch.setattr(measure, "_real_roots_in", counted)
    mu = oscillation_sequence(1)
    first = mu.tv_function(np.linspace(0.0, 1.0, 1001))
    assert len(calls) == len(mu.pieces)
    assert mu.tv_function(np.linspace(0.0, 1.0, 1001)).tobytes() == first.tobytes()
    assert mu.tv_function(0.5) == first[500]
    assert len(calls) == len(mu.pieces)


def test_abs_mass_to_matches_gauss_between_known_roots():
    # between consecutive roots |density| is a cubic of one sign, which
    # 4-point Gauss integrates exactly: an oracle that finds no roots
    nodes, weights = np.polynomial.legendre.leggauss(4)
    rng = np.random.default_rng(23)
    for _ in range(10):
        mu, pieces = sign_changing_measure(rng)
        for piece in pieces:
            roots = np.sort(np.roots(list(reversed(piece.coeffs))).real)
            xs = piece.lo + rng.uniform(-0.2, 1.2, 12) * piece.length
            got = Measure((piece,)).tv_function(xs)
            for x, g in zip(xs, got):
                u = min(max(x - piece.lo, 0.0), piece.length)
                cuts = np.concatenate([[0.0], roots[roots < u], [u]])
                want = 0.0
                for a, b in zip(cuts[:-1], cuts[1:]):
                    t = piece.lo + 0.5 * (a + b) + 0.5 * (b - a) * nodes
                    want += 0.5 * (b - a) * float(weights @ np.abs(piece.density(t)))
                assert abs(g - want) <= 1e-13 * max(1.0, want)
        assert abs(mu.total_variation() - (
            mu.tv_function(1.0) + abs(mu.atom_weight(0.0)))) <= 1e-13


def test_a_top_coefficient_too_small_to_divide_by_has_no_roots_in_range():
    # 1 / 1e-320 overflows: np.roots refused the piece with a LinAlgError;
    # the root of -0.25 + u at 0.25 is the one in [0, 1)
    mu = Measure.from_density(0.0, 1.0, (-0.25, 1.0, 1e-320))
    assert _real_roots_in(mu.pieces[0].coeffs, 1.0) == [0.25]
    assert mu.total_variation() == pytest.approx(0.3125, abs=1e-16)


@pytest.mark.parametrize("call,error,message", [
    (lambda: PolynomialPiece(0.0, 1.0, ()), MeasureFormatError, "at least one coefficient"),
    (lambda: Measure.from_dict([0.5]), MeasureParseError, "must be a JSON object"),
    (lambda: Measure.from_dict({"pieces": [{"lo": 0.0, "hi": 1.0}]}), MeasureParseError,
     "malformed measure entry"),
    (lambda: oscillation_sequence(0), MeasureFormatError, "must be a positive integer"),
    (lambda: ls_integral(lambda t: t, Measure.lebesgue(), 1.5), MeasureFormatError,
     "endpoint 1.5 outside"),
])
def test_malformed_measure_input_is_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("m", [2.5, math.inf, math.nan])
def test_oscillation_sequence_refuses_a_non_integral_index(m):
    with pytest.raises(MeasureFormatError, match="integer"):
        oscillation_sequence(m)


# ---------------------------------------------------------------------------
# the piece table against per-piece loops (the queries' former form)


def loop_eval(mu, xs):
    """Induced function: each piece's mass up to x, then each atom, in order."""
    out = np.zeros_like(xs)
    for p in mu.pieces:
        anti = (0.0,) + tuple(c / (i + 1) for i, c in enumerate(p.coeffs))
        out = out + _poly_val(anti, np.clip(xs - p.lo, 0.0, p.length))
    for a in mu.atoms:
        out = out + a.w * (xs >= a.x)
    return np.where(xs == 0.0, 0.0, out)


def loop_drift(mu, xs):
    w0 = mu.atom_weight(0.0)
    return loop_eval(mu, xs) - w0 * (xs > 0.0) if w0 != 0.0 else loop_eval(mu, xs)


def loop_density(mu, xs):
    out = np.zeros_like(xs)
    for p in mu.pieces:
        inside = (xs >= p.lo) & (xs < p.hi)
        out[inside] = p.density(xs[inside])
    return out


def loop_shift(coeffs, d):
    """A constant-first polynomial re-expanded about a point shifted by d."""
    out = [0.0] * len(coeffs)
    for i, c in enumerate(coeffs):
        if c != 0.0:
            for j in range(i + 1):
                out[j] += c * math.comb(i, j) * d ** (i - j)
    return out


def loop_plus(a, b):
    """Sum on the joint breakpoints, cell by cell and piece by piece."""
    cuts = sorted({0.0, 1.0} | {x for m in (a, b) for p in m.pieces for x in (p.lo, p.hi)})
    pieces = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        combined = [0.0]
        for m in (a, b):
            for p in m.pieces:
                if p.lo <= lo and hi <= p.hi:
                    shifted = loop_shift(p.coeffs, lo - p.lo)
                    combined += [0.0] * (len(shifted) - len(combined))
                    for i, c in enumerate(shifted):
                        combined[i] += c
        if any(c != 0.0 for c in combined):
            pieces.append(PolynomialPiece(lo, hi, tuple(combined)))
    weights = {}
    for m in (a, b):
        for at in m.atoms:
            weights[at.x] = weights.get(at.x, 0.0) + at.w
    atoms = tuple(Atom(x, w) for x, w in sorted(weights.items()) if w != 0.0)
    return Measure(tuple(pieces), atoms)


# breakpoints on a coarse grid meet each other; the others fall anywhere
_POSITIONS = st.one_of(st.integers(0, 16).map(lambda i: i / 16.0), st.floats(0.0, 1.0))


@st.composite
def table_measures(draw):
    """0-3 pieces of degree <= 4, end to end or apart, and 0-3 atoms, one
    of them at 0 at times."""
    ends = sorted(set(draw(st.lists(_POSITIONS, max_size=4))))
    pieces = tuple(
        PolynomialPiece(lo, hi, tuple(draw(st.lists(st.floats(-3.0, 3.0),
                                                    min_size=1, max_size=5))))
        for lo, hi in zip(ends[:-1], ends[1:]) if draw(st.booleans()))
    xs = draw(st.lists(_POSITIONS, max_size=3, unique=True))
    weights = st.floats(-2.0, 2.0).filter(lambda w: w != 0.0)
    return Measure(pieces, tuple(Atom(x, draw(weights)) for x in xs))


def _query_points(mu, extra):
    edges = np.array(mu.breakpoints() + (0.0, 1.0))
    return np.concatenate([edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0),
                           extra, [-0.0, -0.25, 1.25]])


_EXTRA = st.lists(st.floats(-0.1, 1.1), max_size=8).map(np.array)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table_measures(), table_measures(), _EXTRA)
def test_table_queries_are_the_per_piece_loops_bit_for_bit(a, b, extra):
    for mu in (a, a.plus(b)):
        xs = _query_points(mu, extra)
        assert mu.eval_many(xs).tobytes() == loop_eval(mu, xs).tobytes()
        assert mu.drift_many(xs).tobytes() == loop_drift(mu, xs).tobytes()
        assert mu.density_many(xs).tobytes() == loop_density(mu, xs).tobytes()
        assert mu.tv_function(xs).tobytes() == np.array([loop_tv(mu, x) for x in xs]).tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(table_measures(), table_measures())
def test_plus_is_the_cell_by_cell_loop_and_commutes(a, b):
    # the same pieces, coefficient tuples of the same length, the same atoms
    assert a.plus(b).to_json() == loop_plus(a, b).to_json()
    assert a.plus(b).to_json() == b.plus(a).to_json()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_measures(), table_measures(), table_measures(), _EXTRA)
def test_plus_associates_under_eval_to_rounding(a, b, c, extra):
    left, right = a.plus(b).plus(c), a.plus(b.plus(c))
    xs = _query_points(left, extra)
    scale = sum(m.total_variation() for m in (a, b, c))
    assert np.max(np.abs(left.eval_many(xs) - right.eval_many(xs))) <= 1e-14 * (1.0 + scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_measures(), table_measures())
def test_scaled_plus_and_json_round_trip_exactly(a, b):
    for mu in (a, a.scaled(-0.7), a.plus(b)):
        back = Measure.from_json(mu.to_json())
        assert back == mu and back.to_json() == mu.to_json()
    assert a.scaled(-1.0).scaled(-1.0) == a


@settings(max_examples=60, deadline=None, derandomize=True)
@given(table_measures(), st.floats(-2.0, 2.0).filter(lambda w: w != 0.0), _EXTRA)
def test_origin_atoms_are_inert(mu, w, extra):
    moved = mu.plus(Measure.point(0.0, w))
    xs = _query_points(mu, extra)
    assert moved.tv_function(xs).tobytes() == mu.tv_function(xs).tobytes()
    # eval adds w on (0, 1] and drift takes it off again: equal to rounding
    scale = mu.total_variation() + abs(w) + abs(moved.atom_weight(0.0))
    assert np.max(np.abs(moved.drift_many(xs) - mu.drift_many(xs))) <= 4e-16 * scale
