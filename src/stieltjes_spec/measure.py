"""Signed measures on the unit interval.

A measure is stored as polynomial density pieces plus point masses (atoms).
The induced distribution function f is normalized to f(0) = 0 and is right
continuous on (0, 1); an atom at 0 is legal and shows up as f(0+) != 0.
All objects are immutable and every operation is a pure function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import MeasureFormatError, MeasureParseError, QuadratureError, _integer

_ROOT_IMAG_TOL = 1e-9
_DEDUPE_TOL = 1e-14
# Hermite cells per period of oscillation_sequence
_NODES_PER_PERIOD = 96
# points per block of a table query: its temporaries are reused, not faulted in
_BLOCK = 8192


def _poly_val(coeffs: Sequence[float], u):
    """Evaluate a constant-first polynomial at u (scalar or ndarray)."""
    u = np.asarray(u, dtype=float)
    acc = np.zeros_like(u)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


def _blockwise(values, xs: np.ndarray) -> np.ndarray:
    """values(points) over xs, a block at a time, in xs's shape."""
    flat = xs.reshape(-1)
    out = np.empty_like(flat)
    for s in range(0, len(flat), _BLOCK):
        out[s:s + _BLOCK] = values(flat[s:s + _BLOCK])
    return out.reshape(xs.shape)


def _real_roots_in(coeffs: Sequence[float], length: float) -> list[float]:
    """Real roots of a constant-first polynomial inside (0, length)."""
    trimmed = list(coeffs)
    # a top coefficient too small to divide by has its roots beyond floats
    while trimmed and (trimmed[-1] == 0.0 or any(math.isinf(c / trimmed[-1]) for c in trimmed)):
        trimmed.pop()
    if len(trimmed) <= 1:
        return []
    roots = np.roots(list(reversed(trimmed)))
    keep = []
    for r in roots:
        if abs(r.imag) > _ROOT_IMAG_TOL * (1.0 + abs(r)):
            continue
        x = float(r.real)
        if 0.0 < x < length:
            keep.append(x)
    keep.sort()
    deduped: list[float] = []
    for x in keep:
        if not deduped or x - deduped[-1] > _DEDUPE_TOL:
            deduped.append(x)
    return deduped


@dataclass(frozen=True)
class PolynomialPiece:
    """Density piece on [lo, hi) with constant-first coefficients in (t - lo)."""

    lo: float
    hi: float
    coeffs: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if not (0.0 <= self.lo < self.hi <= 1.0):
            raise MeasureFormatError(
                f"piece [{self.lo}, {self.hi}] must satisfy 0 <= lo < hi <= 1"
            )
        if len(self.coeffs) == 0:
            raise MeasureFormatError("piece needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coeffs):
            raise MeasureFormatError(
                f"piece [{self.lo}, {self.hi}] has a non-finite coefficient"
            )

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def density(self, x):
        """Density value at x (no range check, local polynomial)."""
        return _poly_val(self.coeffs, np.asarray(x, dtype=float) - self.lo)


@dataclass(frozen=True)
class Atom:
    """Point mass of weight w at position x."""

    x: float
    w: float

    def __post_init__(self):
        object.__setattr__(self, "x", float(self.x))
        object.__setattr__(self, "w", float(self.w))
        if not 0.0 <= self.x <= 1.0:
            raise MeasureFormatError(f"atom position {self.x} outside [0, 1]")
        if self.w == 0.0:
            raise MeasureFormatError(f"atom at {self.x} has zero weight")
        if not math.isfinite(self.w):
            raise MeasureFormatError(f"atom at {self.x} has non-finite weight {self.w}")


class _PieceTable:
    """A measure as arrays for every query: per piece (a column, in order) lo,
    hi, length, coefficient count, density and antiderivative coefficients
    (constant-first rows padded with zeros, which keeps Horner's bits) and the
    mass before it (a cumsum: a loop's additions); atoms in (0, 1] with
    running |w|.  A point takes the last piece starting at or left of it, so
    pieces overlapping by the 1e-15 the format allows count whole from the
    next one's start."""

    def __init__(self, pieces: tuple[PolynomialPiece, ...], atoms: tuple[Atom, ...]):
        self.lo, self.hi = (np.array([p.lo for p in pieces]), np.array([p.hi for p in pieces]))
        self.length = self.hi - self.lo
        self.n_coef = np.array([len(p.coeffs) for p in pieces], dtype=int)
        deg = self.n_coef.max(initial=0)
        self.rho = np.array([p.coeffs + (0.0,) * (deg - len(p.coeffs)) for p in pieces],
                            dtype=float).reshape(len(pieces), deg).T.copy()
        self.anti = np.vstack([np.zeros(len(pieces)), self.rho / np.arange(1.0, deg + 1)[:, None]])
        self.before = np.concatenate([[0.0], np.cumsum(_poly_val(self.anti, self.length))[:-1]])
        self.jump_x = np.array([a.x for a in atoms if a.x > 0.0])
        self.jumps = np.concatenate([[0.0], np.cumsum([abs(a.w) for a in atoms if a.x > 0.0])])

    def at(self, xs: np.ndarray, *cols: np.ndarray) -> list:
        """Columns (pieces on the last axis) at each point's piece, found once."""
        if len(self.lo) == 1:
            return [c[..., 0] for c in cols]
        k = np.searchsorted(self.lo[1:], xs, side="right")
        return [c.take(k, axis=-1) for c in cols]

    def mass(self, x: np.ndarray) -> np.ndarray:
        lo, length, anti, before = self.at(x, self.lo, self.length, self.anti, self.before)
        return before + _poly_val(anti, np.minimum(np.maximum(x - lo, 0.0), length))

    def density(self, x: np.ndarray) -> np.ndarray:
        lo, hi, rho = self.at(x, self.lo, self.hi, self.rho)
        inside = (x >= lo) & (x < hi)  # and no point outside its piece overflows
        return np.where(inside, _poly_val(rho, np.where(inside, x - lo, 0.0)), 0.0)

    @cached_property
    def variation(self):
        """tv_function's columns: the cuts 0, sign changes and length (padded
        with length), the antiderivative there, the variation before."""
        cuts = [[0.0, *_real_roots_in(c, length), length]
                for c, length in zip(self.rho.T.tolist(), self.length.tolist())]
        n_cut = max(map(len, cuts), default=0)
        cuts = np.array([c + c[-1:] * (n_cut - len(c)) for c in cuts]).reshape(-1, n_cut).T
        at_cut = _poly_val(self.anti, cuts)
        whole = np.zeros_like(self.lo)
        for j in range(n_cut - 1):
            whole = whole + np.abs(at_cut[j + 1] - at_cut[j])
        return cuts, at_cut, np.concatenate([[0.0], np.cumsum(whole)[:-1]])

    def shifted(self, lo: np.ndarray, hi: np.ndarray, rows: int):
        """The density on each cell [lo, hi) one piece covers, re-expanded about
        lo as c_i comb(i, j) d^(i-j) over ascending i (a scalar Taylor shift's
        products and order), zero elsewhere, and the piece's coefficient count."""
        out = np.zeros((rows, len(lo)))
        if not len(self.lo):
            return out, np.zeros(len(lo), dtype=int)
        p_lo, p_hi, n, *c = self.at(lo, self.lo, self.hi, self.n_coef, *self.rho)
        covered = (p_lo <= lo) & (hi <= p_hi)
        # float_power rounds as C's pow, as Python's ** does; np.power may not
        d_pow = np.float_power(lo - p_lo, np.arange(len(c))[:, None])
        for i, c_i in enumerate(c):
            for j in range(i + 1):
                out[j] += np.where(covered, c_i, 0.0) * math.comb(i, j) * d_pow[i - j]
        return out, np.where(covered, n, 0)


@dataclass(frozen=True)
class Measure:
    """Finite signed measure: ordered density pieces plus ordered atoms."""

    pieces: tuple[PolynomialPiece, ...] = field(default_factory=tuple)
    atoms: tuple[Atom, ...] = field(default_factory=tuple)

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: p.lo))
        atoms = tuple(sorted(self.atoms, key=lambda a: a.x))
        for left, right in zip(pieces[:-1], pieces[1:]):
            if right.lo < left.hi - 1e-15:
                raise MeasureFormatError(
                    f"pieces [{left.lo}, {left.hi}] and [{right.lo}, {right.hi}] overlap"
                )
        for left, right in zip(atoms[:-1], atoms[1:]):
            if left.x == right.x:
                raise MeasureFormatError(f"two atoms share location {left.x}")
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "atoms", atoms)

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def zero() -> "Measure":
        return Measure()

    @staticmethod
    def lebesgue(scale: float = 1.0) -> "Measure":
        if scale == 0.0:
            return Measure()
        return Measure(pieces=(PolynomialPiece(0.0, 1.0, (float(scale),)),))

    @staticmethod
    def point(x: float, w: float) -> "Measure":
        return Measure(atoms=(Atom(x, w),))

    @staticmethod
    def from_density(lo: float, hi: float, coeffs: Sequence[float]) -> "Measure":
        return Measure(pieces=(PolynomialPiece(lo, hi, tuple(coeffs)),))

    # ------------------------------------------------------------------
    # induced distribution function

    def eval(self, x: float) -> float:
        """Induced function value f(x), right continuous, f(0) = 0."""
        return float(self.eval_many(np.array([x]))[0])

    def eval_many(self, xs) -> np.ndarray:
        xs = np.asarray(xs, dtype=float)
        t = self._table
        out = _blockwise(t.mass, xs) if len(t.lo) else np.zeros_like(xs)
        for atom in self.atoms:
            out += atom.w * (xs >= atom.x)
        # normalization pins f(0) = 0 even when an atom sits at 0
        out[xs == 0.0] = 0.0
        return out

    def drift(self, x: float) -> float:
        """Induced function as the dynamics see it: origin mass removed."""
        return float(self.drift_many(np.array([x]))[0])

    def drift_many(self, xs) -> np.ndarray:
        """Vector version of drift().

        A point mass at 0 is invisible to the evolution (it sits outside the
        right-open integration window), so the drift coefficient subtracts
        it from the induced function.
        """
        xs = np.asarray(xs, dtype=float)
        out = self.eval_many(xs)
        w0 = self.atom_weight(0.0)
        if w0 != 0.0:
            out = out - w0 * (xs > 0.0)
        return out

    def density_many(self, xs) -> np.ndarray:
        """Density at points that avoid piece boundaries."""
        xs = np.asarray(xs, dtype=float)
        t = self._table
        return _blockwise(t.density, xs) if len(t.lo) else np.zeros_like(xs)

    # ------------------------------------------------------------------
    # variation

    def total_variation(self) -> float:
        """Exact variation over the closed interval, atom at 0 included."""
        return self.tv_function(1.0) + abs(self.atom_weight(0.0))

    def tv_function(self, x):
        """Running variation over (0, x]; the jump at 0 does not count.

        A point returns a float, an array an ndarray of its shape.  A point
        takes the whole variation of the pieces before its own, plus
        |F(clip(u, c_j, c_j+1)) - F(c_j)| summed in cut order, F the
        antiderivative and u = x - lo clipped to the piece; a cut beyond u
        adds exactly 0.
        """
        xs = np.asarray(x, dtype=float)
        tv = np.zeros_like(xs)
        t = self._table
        if len(t.lo):
            lo, f, cut, f_cut, before = t.at(xs, t.lo, t.anti, *t.variation)
            u = np.minimum(np.maximum(xs - lo, 0.0), cut[-1])
            for j in range(len(cut) - 1):
                seg = np.minimum(np.maximum(u, cut[j]), cut[j + 1])
                tv = tv + np.abs(_poly_val(f, seg) - f_cut[j])
            tv = before + tv
        if len(t.jump_x):  # summed apart: this order fixes V's bits
            tv = tv + t.jumps.take(np.searchsorted(t.jump_x, xs, side="right"))
        return float(tv) if xs.ndim == 0 else tv

    @cached_property
    def _table(self) -> _PieceTable:
        return _PieceTable(self.pieces, self.atoms)

    # ------------------------------------------------------------------
    # structural queries

    def breakpoints(self) -> tuple[float, ...]:
        """Sorted union of piece endpoints and atom positions."""
        t = self._table
        return tuple(sorted({*t.lo.tolist(), *t.hi.tolist(), *(a.x for a in self.atoms)}))

    def atom_weight(self, x: float) -> float:
        for a in self.atoms:
            if a.x == x:
                return a.w
        return 0.0

    @property
    def is_atomic(self) -> bool:
        return len(self.pieces) == 0

    @property
    def is_zero(self) -> bool:
        return len(self.pieces) == 0 and len(self.atoms) == 0

    # ------------------------------------------------------------------
    # arithmetic (used by perturbation studies)

    def scaled(self, c: float) -> "Measure":
        if c == 0.0:
            return Measure()
        pieces = tuple(
            PolynomialPiece(p.lo, p.hi, tuple(c * v for v in p.coeffs)) for p in self.pieces
        )
        atoms = tuple(Atom(a.x, c * a.w) for a in self.atoms)
        return Measure(pieces, atoms)

    def plus(self, other: "Measure") -> "Measure":
        """Sum of two measures with pieces split on the joint breakpoints.

        Each side's density is re-expanded on the merged cells at once; a
        cell keeps as many coefficients as its longest covering piece."""
        mine, theirs = self._table, other._table
        cuts = np.unique(np.concatenate([[0.0, 1.0], mine.lo, mine.hi, theirs.lo, theirs.hi]))
        lo, hi = cuts[:-1], cuts[1:]
        rows = max(len(mine.rho), len(theirs.rho), 1)
        (coef_a, n_a), (coef_b, n_b) = mine.shifted(lo, hi, rows), theirs.shifted(lo, hi, rows)
        coeffs = coef_a + coef_b
        keep = np.any(coeffs != 0.0, axis=0)
        n = np.maximum(np.maximum(n_a, n_b), 1)[keep]
        pieces = [PolynomialPiece(l, h, tuple(c[:m])) for l, h, c, m in zip(
            lo[keep].tolist(), hi[keep].tolist(), coeffs.T[keep].tolist(), n.tolist())]
        weights: dict[float, float] = {}
        for m in (self, other):
            for a in m.atoms:
                weights[a.x] = weights.get(a.x, 0.0) + a.w
        atoms = tuple(Atom(x, w) for x, w in sorted(weights.items()) if w != 0.0)
        return Measure(tuple(pieces), atoms)

    # ------------------------------------------------------------------
    # serialization

    def to_dict(self) -> dict:
        return {
            "pieces": [
                {"lo": p.lo, "hi": p.hi, "coeffs": list(p.coeffs)} for p in self.pieces
            ],
            "atoms": [{"x": a.x, "w": a.w} for a in self.atoms],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "Measure":
        if not isinstance(data, dict):
            raise MeasureParseError("measure document must be a JSON object")
        unknown = set(data) - {"pieces", "atoms"}
        if unknown:
            raise MeasureParseError(f"unknown measure keys: {sorted(unknown)}")
        try:
            pieces = tuple(
                PolynomialPiece(d["lo"], d["hi"], tuple(d["coeffs"]))
                for d in data.get("pieces", [])
            )
            atoms = tuple(Atom(d["x"], d["w"]) for d in data.get("atoms", []))
        except (KeyError, TypeError, ValueError) as exc:
            raise MeasureParseError(f"malformed measure entry: {exc}") from exc
        return Measure(pieces, atoms)

    @staticmethod
    def from_json(text: str) -> "Measure":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise MeasureParseError(f"invalid JSON: {exc}") from exc
        return Measure.from_dict(data)


# ---------------------------------------------------------------------------
# reference families


def ramp_sequence(m: int) -> Measure:
    """Unit mass smeared with constant density m over [1/2, 1/2 + 1/m]."""
    m = _integer(m, "ramp slope m", MeasureFormatError)
    if m < 2:
        raise MeasureFormatError("ramp slope m must be at least 2 to fit in [0, 1]")
    return Measure.from_density(0.5, 0.5 + 1.0 / m, (float(m),))


def oscillation_sequence(m: int) -> Measure:
    """Piecewise cubic density matching d/dx[(1/m) sin(2 pi m^2 x)].

    The interpolant is Hermite on each subinterval (values and exact slopes
    at both ends), with _NODES_PER_PERIOD (96) nodes per oscillation period.
    Its variation approaches the exact value 4 m to relative accuracy well
    under 1e-6.
    """
    m = _integer(m, "oscillation index m", MeasureFormatError)
    if m < 1:
        raise MeasureFormatError(
            f"oscillation index m must be a positive integer, got {m!r}")
    freq = 2.0 * math.pi * m * m
    amp = 2.0 * math.pi * m  # density amplitude of the induced function
    n_cells = m * m * _NODES_PER_PERIOD
    xs = np.linspace(0.0, 1.0, n_cells + 1)
    rho = amp * np.cos(freq * xs)
    slope = -amp * freq * np.sin(freq * xs)
    h, r0, r1, d0, d1 = np.diff(xs), rho[:-1], rho[1:], slope[:-1], slope[1:]
    c2 = (3.0 * (r1 - r0) / h - 2.0 * d0 - d1) / h
    c3 = (2.0 * (r0 - r1) / h + d0 + d1) / (h * h)
    pieces = [PolynomialPiece(lo, hi, c) for lo, hi, *c in zip(xs[:-1], xs[1:], r0, d0, c2, c3)]
    return Measure(tuple(pieces))


# ---------------------------------------------------------------------------
# Lebesgue-Stieltjes integration


_GAUSS10_NODES, _GAUSS10_WEIGHTS = np.polynomial.legendre.leggauss(10)


def _call_vectorized(g: Callable, xs: np.ndarray) -> np.ndarray:
    try:
        vals = np.asarray(g(xs))
        if vals.shape != xs.shape:
            raise TypeError
        return vals
    except Exception:
        return np.array([g(float(x)) for x in xs])


def _adaptive_piece_integral(
    g: Callable, piece: PolynomialPiece, a: float, b: float, tol: float, depth: int = 0
):
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)

    def gauss(lo, hi):
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        nodes = c + h * _GAUSS10_NODES
        vals = _call_vectorized(g, nodes) * piece.density(nodes)
        return h * float(np.dot(_GAUSS10_WEIGHTS, vals))

    coarse = gauss(a, b)
    fine = gauss(a, mid) + gauss(mid, b)
    err = abs(fine - coarse)
    if err <= tol or b - a < 1e-13:
        return fine, err
    if depth > 40:
        raise QuadratureError(f"density quadrature stuck on [{a}, {b}], error {err:g}")
    left, el = _adaptive_piece_integral(g, piece, a, mid, tol / 2, depth + 1)
    right, er = _adaptive_piece_integral(g, piece, mid, b, tol / 2, depth + 1)
    return left + right, el + er


def ls_integral(
    g: Callable,
    mu: Measure,
    x: float = 1.0,
    include_zero_atom: bool = True,
    tol: float = 1e-10,
) -> float:
    """Integral of a continuous g against d(mu) over [0, x] or (0, x].

    include_zero_atom selects the closed-at-zero convention, where an atom
    sitting exactly at 0 contributes g(0) times its weight.
    """
    if not 0.0 <= x <= 1.0:
        raise MeasureFormatError(f"integration endpoint {x} outside [0, 1]")
    total = 0.0
    for atom in mu.atoms:
        if atom.x == 0.0:
            if include_zero_atom:
                total += float(np.asarray(g(0.0))) * atom.w
        elif atom.x <= x:
            total += float(np.asarray(g(atom.x))) * atom.w
    err_budget = tol
    for piece in mu.pieces:
        hi = min(piece.hi, x)
        if hi <= piece.lo:
            continue
        val, _ = _adaptive_piece_integral(g, piece, piece.lo, hi, err_budget)
        total += val
    return float(total)


def lebesgue_integral_of_induced(mu: Measure) -> float:
    """Integral over [0, 1] of the induced function x -> mu([0, x]).

    Per piece, in order, the integral of its antiderivative over the piece,
    then its mass times 1 - hi; then each atom's weight times 1 - x.
    """
    t = mu._table
    inner = np.vstack([np.zeros(len(t.lo)), t.anti / np.arange(1.0, len(t.anti) + 1)[:, None]])
    terms = np.stack([_poly_val(inner, t.length), _poly_val(t.anti, t.length) * (1.0 - t.hi)])
    total = float(np.cumsum(terms.T)[-1]) if len(t.lo) else 0.0
    for atom in mu.atoms:
        total += atom.w * (1.0 - atom.x)
    return total
