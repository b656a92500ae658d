"""Initial value solvers for the third-order equation with measure coefficients.

The first-order system for the state (y, y', (y')*) reads

    dy = z dx,   dz = w dx,   dw = -2 q(x) z dx - y dmu,

with mu = q - i p + i lambda x.  Here q(x), p(x) denote induced functions and
dq, dp their measures.  y and y' stay continuous; w jumps at every atom a in
(0, 1] by -y(a) (dq{a} - i dp{a}).  Atoms sitting exactly at 0 never act on
the path: the initial triple already encodes the state at 0.

Two independent solvers are provided.  solve_picard iterates the fixed-point
form built on the zero-potential kernels (exact for the unperturbed problem at
the same lambda).  The series stops once a rigorous bound on its remainder,
computed from the last measured term and the Volterra estimate of the
measure norms, falls below the tolerance (see _Engine.iterate).
solve_transfer propagates constant-coefficient segments for purely atomic
coefficients and is exact up to roundoff at every lambda, repeated
characteristic roots included.

This module owns the solves and what each needs: the lambda check, the
default SolverConfig, the mesh and the atoms of (p, q) in (0, 1].  The
boundary pairing lives in charfn, root location in spectrum.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    BadArgumentError,
    ConvergenceError,
    DeterminantError,
    MeshRefinementError,
    NumericalError,
    UnsupportedMeasureError,
    _finite,
    _integer,
    _is_finite_real,
    _is_real,
    _positive,
    _shown,
)
from .measure import Measure

OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))
_OMEGA_POW = np.array([1.0 + 0.0j, OMEGA, OMEGA * OMEGA])
_OMEGA_NEG = _OMEGA_POW[[0, 2, 1]]  # omega^(-j) for j = 0, 1, 2

# |k s| below this uses the power series of the exponential sums
_SERIES_SWITCH = 0.5
# _SERIES_COEF[j, m] = 1 / (3m + j)!, the series of y1, y2 / s, y3 / s^2 in
# u = -i lambda s^3, m = 0..6
_SERIES_COEF = np.array(
    [[1.0 / math.factorial(3 * m + j) for m in range(7)] for j in range(3)]
)
# |lambda| below this is solved at lambda+1 with p shifted by Lebesgue
_SHIFT_MIN = 0.027
# hard ceiling on |k|: growth factors approach the float64 range beyond it
_K_CEILING = 420.0
# mesh rule: cells are refined until |k| * h stays below this
_KH_MAX = 0.12
_MAX_DOUBLINGS = 4
_MAX_TERMS = 200  # Picard terms before a solve is refused as not converging
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
# stands for log(V / V(x)) where the running budget V(x) is 0: finite, so
# that a zero term there gives -inf, and a nonzero one a bound no stop accepts
_NO_ENVELOPE = 1e300
_EPS = float(np.finfo(float).eps)
# root gap (relative to the root scale) below which the transfer propagator
# leaves the Lagrange-Sylvester sum, whose error grows like eps / gap**2
_CROWDED = 0.1

_G6_NODES, _G6_WEIGHTS = np.polynomial.legendre.leggauss(6)
_G8_NODES, _G8_WEIGHTS = np.polynomial.legendre.leggauss(8)


def _lagrange_matrix(targets: np.ndarray) -> np.ndarray:
    """Degree-5 Lagrange basis on the 6 Gauss nodes evaluated at targets."""
    out = np.empty((len(targets), 6))
    for a in range(6):
        num = np.ones_like(targets)
        den = 1.0
        for b in range(6):
            if b == a:
                continue
            num *= targets - _G6_NODES[b]
            den *= _G6_NODES[a] - _G6_NODES[b]
        out[:, a] = num / den
    return out


# sub-quadrature for integrals from a cell's left edge to each Gauss node:
# eta[b, s] is the s-th 8-point node on [-1, xi_b] in reference coordinates
# and _PARTIAL_L[b, s, :] interpolates cell values there
_PARTIAL_SPAN = 0.5 * (_G6_NODES + 1.0)
_PARTIAL_ETA = -1.0 + (_G8_NODES[None, :] + 1.0) * _PARTIAL_SPAN[:, None]
_PARTIAL_L = np.stack([_lagrange_matrix(_PARTIAL_ETA[b]) for b in range(6)])
_PARTIAL_W = _PARTIAL_SPAN[:, None] * _G8_WEIGHTS[None, :]
_PARTIAL_LT = np.ascontiguousarray(_PARTIAL_L.transpose(0, 2, 1))  # [b, a, s]
# in units of the cell width, Gauss node b lies _PARTIAL_SPAN[b] from the
# left edge and _SUB_OFFSET[b, s] from its s-th sub-node
_SUB_OFFSET = 0.5 * (_G6_NODES[:, None] - _PARTIAL_ETA)
# sub-node weights from Gauss weight products, rows node-major (b, s): for
# the column gw f = 0.5 h _G6_WEIGHTS[a] f(t_a) of a cell, _SUB_FROM_GW @ gw f
# is 0.5 h _PARTIAL_W[b, s] g(eta[b, s]), g the degree-5 interpolant of f at
# the nodes t_a (h cancels): exact when f is a polynomial of degree <= 5
_SUB_FROM_GW = (_PARTIAL_L * _PARTIAL_W[:, :, None] / _G6_WEIGHTS).reshape(48, 6)
# cells per block of the sub-node weights and cell weights (engine setup
# and m_rho0): it bounds the setup's temporaries, and keeps _sub_weights'
# GEMM within 1,536 columns.  A Picard term contracts max(1, 6 *
# _SETUP_BLOCK // n) rows of the kernel at a time (_Engine.term)
_SETUP_BLOCK = 512


def _sub_weights(*gws: np.ndarray) -> list[np.ndarray]:
    """_SUB_FROM_GW @ gw, (48, m), for each real or complex gw (6, m).

    One real GEMM serves them all: their columns are copied side by side
    into one buffer, a complex gw as its real view.  Up to 4,096 columns
    OpenBLAS gives each column the same bits wherever it sits in the
    buffer (measured; beyond that some column counts move a few), so a real
    rho and its complex widening get the same weights as long as callers
    pass at most _SETUP_BLOCK cells.
    """
    cols = [gw.view(float) for gw in gws]
    wts = _SUB_FROM_GW @ np.concatenate(cols, axis=1)
    out, at = [], 0
    for gw, col in zip(gws, cols):
        part = wts[:, at:at + col.shape[1]]
        out.append(part.view(complex) if np.iscomplexobj(gw) else part)
        at += col.shape[1]
    return out


def _partial_moments(weighted: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """einsum("bs...,bsa->ba...", weighted, _PARTIAL_L) by batched matmul.

    weighted holds sub-node values node-major, shape (6, 8, ...): Gauss node
    b, sub-node s, then the cells.  The result, shape (6, 6, ...), maps the
    6 Gauss values a of a cell to its partial integrals up to node b.  Each
    b is one real (6 x 8) @ (8 x m) product over every cell (a complex array
    enters as its real view); einsum has no BLAS path for this contraction.
    A complex (6, 6, n) out, contiguous along the cells, takes the result.
    """
    lead = weighted.shape[2:]
    cols = np.ascontiguousarray(weighted).reshape(6, 8, -1)
    if np.iscomplexobj(cols):
        if out is not None:
            np.matmul(_PARTIAL_LT, cols.view(float), out=out.view(float))
            return out
        res = np.matmul(_PARTIAL_LT, cols.view(float)).view(complex)
    else:
        res = np.matmul(_PARTIAL_LT, cols)
    return res.reshape((6, 6) + lead)

_BARY_W = np.array(
    [
        1.0
        / np.prod([_G6_NODES[a] - _G6_NODES[b] for b in range(6) if b != a])
        for a in range(6)
    ]
)


def _interp(values: np.ndarray, edges: np.ndarray, xs: np.ndarray,
            cells: np.ndarray) -> np.ndarray:
    """Barycentric interpolation of per-cell Gauss values at points xs.

    values has shape (n, 6); cells holds the cell of each point.  A point
    within 1e-14 (reference coordinates) of a Gauss node, placed in floats
    exactly as the mesh geometry places it, takes that node's value exactly.
    The arithmetic is real and elementwise, so a point gets the same bits
    whatever array it is evaluated in.
    """
    lo, hi = edges[cells], edges[cells + 1]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (lo + hi))[:, None] + half[:, None] * _G6_NODES
    diff = (xs[:, None] - nodes) / half[:, None]
    hit = np.argmin(np.abs(diff), axis=1)
    exact = np.abs(diff[np.arange(len(xs)), hit]) < 1e-14
    diff[exact] = 1.0  # these rows take the node value below
    wts = _BARY_W / diff
    re, im = values.real[cells], values.imag[cells]
    num_re, num_im, den = wts[:, 0] * re[:, 0], wts[:, 0] * im[:, 0], wts[:, 0]
    for a in range(1, 6):
        num_re = num_re + wts[:, a] * re[:, a]
        num_im = num_im + wts[:, a] * im[:, a]
        den = den + wts[:, a]
    out = np.empty(len(xs), dtype=complex)
    out.real = num_re / den
    out.imag = num_im / den
    out[exact] = values[cells[exact], hit[exact]]
    return out


def cube_root(lam: complex) -> complex:
    """Principal cube root; every exported quantity is branch-invariant."""
    lam = complex(lam)
    if lam == 0:
        return 0.0 + 0.0j
    return lam ** (1.0 / 3.0)


def xi_bound(x: float, lam: complex) -> float:
    """Growth envelope exp(sum_j |Im(omega^j k / 2)| * x)."""
    k = cube_root(lam)
    rate = sum(abs((w * k / 2.0).imag) for w in _OMEGA_POW)
    return math.exp(rate * float(x))


def _series_rows(lam: complex, s: np.ndarray) -> np.ndarray:
    """(y1, y2, y3) at the points s, (3, len(s)), by zero_potential_rows'
    power series alone; its accuracy holds for |k s| below the switch."""
    u = (-1j * complex(lam)) * (s * s * s)
    acc = _SERIES_COEF[:, -1:] * u + _SERIES_COEF[:, -2:-1]
    for m in range(_SERIES_COEF.shape[1] - 3, -1, -1):
        acc *= u
        acc += _SERIES_COEF[:, m:m + 1]
    acc[1] *= s
    acc[2] *= s * s
    return acc


def zero_potential_rows(lam: complex, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First row (y1, y2, y3) of the zero-potential fundamental matrix at s.

    Exponential sums for |k s| above the series switch; below it the power
    series in u = -i lambda s^3,

        y1 = sum_m u^m / (3m)!,  y2 = s sum_m u^m / (3m+1)!,
        y3 = s^2 sum_m u^m / (3m+2)!,

    cut after m = 6 (|u| < 1/8 there, so the first term left out is below
    1e-26 relative) and summed by Horner's rule.  The branches overlap
    stably around |k s| ~ 0.5, and lambda = 0 needs no special case.

    Accuracy is relative to the size of the exponential channels, not to
    the value: where two growing channels cancel (lambda near the imaginary
    axis) a small entry carries their rounding.  At lambda = -7e5 i and
    s = 0.61965, y3 = 1185.8 sits under channels of 3.7e7 and errs by
    1.4e-9 relative.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    k = cube_root(lam)
    y1 = np.empty(s.shape, dtype=complex)
    y2 = np.empty(s.shape, dtype=complex)
    y3 = np.empty(s.shape, dtype=complex)
    small = abs(k) * np.abs(s) < _SERIES_SWITCH
    if np.any(small):
        y1[small], y2[small], y3[small] = _series_rows(lam, s[small])
    if not np.all(small):
        zb = k * s[~small]
        e = np.exp(1j * np.multiply.outer(_OMEGA_POW, zb))
        y1[~small] = np.sum(e, axis=0) / 3.0
        y2[~small] = np.sum(_OMEGA_NEG[:, None] * e, axis=0) / (3j * k)
        y3[~small] = -np.sum(_OMEGA_POW[:, None] * e, axis=0) / (3.0 * k * k)
    return y1, y2, y3


@dataclass(frozen=True)
class InitialTriple:
    """State at x=0: (y(0), y'(0), (y')*(0))."""

    y0: complex
    z0: complex
    w0: complex

    def __post_init__(self):
        vals = (complex(self.y0), complex(self.z0), complex(self.w0))
        if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
            raise BadArgumentError("initial triple must be finite")
        object.__setattr__(self, "y0", vals[0])
        object.__setattr__(self, "z0", vals[1])
        object.__setattr__(self, "w0", vals[2])

    def as_vector(self) -> np.ndarray:
        return np.array([self.y0, self.z0, self.w0])


def _initial(init) -> InitialTriple:
    return init if isinstance(init, InitialTriple) else InitialTriple(*init)


@dataclass(frozen=True)
class SolverConfig:
    """mesh_size is the unit of the level-0 ladder (see _n_uniform), tol the
    sup-norm target; the Picard term cap is the module constant _MAX_TERMS."""

    mesh_size: int = 256
    tol: float = 1e-9

    def __post_init__(self):
        size = _integer(self.mesh_size, "mesh_size")
        if size < 1:
            raise BadArgumentError("mesh_size must be positive")
        object.__setattr__(self, "mesh_size", size)
        object.__setattr__(self, "tol", _positive(self.tol, "tolerance"))


@dataclass(frozen=True)
class FundamentalMatrix:
    """3x3 matrix whose column j is the state of the j-th canonical solution."""

    x: float
    lam: complex
    entries: np.ndarray

    @property
    def det(self) -> complex:
        return complex(np.linalg.det(self.entries))


def zero_potential(x: float, lam: complex) -> FundamentalMatrix:
    """Closed-form fundamental matrix of the unperturbed problem at x."""
    y1, y2, y3 = (v[0] for v in zero_potential_rows(lam, [float(x)]))
    il = 1j * complex(lam)
    entries = np.array(
        [
            [y1, y2, y3],
            [-il * y3, y1, y2],
            [-il * y2, -il * y3, y1],
        ]
    )
    return FundamentalMatrix(x=float(x), lam=complex(lam), entries=entries)


# ---------------------------------------------------------------------------
# mesh geometry, shared across lambdas


def _gauss_cells(cuts: np.ndarray):
    """Widths h and the 6-point Gauss nodes and weights (n, 6) of the cells
    between consecutive cuts."""
    h = np.diff(cuts)
    centers = 0.5 * (cuts[:-1] + cuts[1:])
    return (h, centers[:, None] + 0.5 * h[:, None] * _G6_NODES,
            0.5 * h[:, None] * _G6_WEIGHTS)


def _interior_atoms(p: Measure, q: Measure) -> list[tuple[float, complex]]:
    """(x, dq + i dp) for each atom of p or q in (0, 1], by increasing x."""
    return [(x_a, q.atom_weight(x_a) + 1j * p.atom_weight(x_a))
            for x_a in sorted({a.x for a in p.atoms + q.atoms if a.x > 0})]


def _edge_index(edges: np.ndarray, x: float) -> int:
    """Index of the mesh edge at the atom x."""
    idx = int(np.searchsorted(edges, x))
    if idx >= len(edges) or abs(edges[idx] - x) > 1e-13:
        raise BadArgumentError(f"atom at {x} is not a mesh edge", x=x)
    return idx


def _running_budget(p: Measure, q: Measure, x):
    """V(x) = 3 (2 |q|(0,1] x + |p|(0,x] + |q|(0,x]), the budget of the Picard
    stop (_Engine.iterate), at a point or an array; an atom at 0 is inert."""
    return 3.0 * (2.0 * q.tv_function(1.0) * x + p.tv_function(x) + q.tv_function(x))


class _Geometry:
    """Mesh plus every lambda-free quadrature tensor for one (p, q) pair.

    It stores what engines read, and nothing else: the Gauss nodes tg,
    (n, 6); the weight products gw_rho = (gw rho)^T and gw_q = (gw q)^T,
    (6, n), with gw the Gauss weights, rho the density of q + i p and q
    its drift; the edges and the distinct widths.  gw and q at the nodes
    (qg) and edges (q_edge) are formed for those products and dropped:
    only the recovery and spectrum's norm read them, and each is built
    again on first use, with the same bits.  The measures are asked for
    values at the nodes (and at the edges for q_edge) only.

    The measures reach the sub-nodes of the partial integrals only through
    gw_rho and gw_q: _SUB_FROM_GW maps a column gw f to 0.5 h W g(tau) at
    the 48 sub-nodes tau of its cell, g the degree-5 interpolant of f at
    the Gauss nodes.  That is exact when f is a polynomial of degree <= 5
    on the cell, as rho is for densities of degree <= 5 and the drift q
    for densities of q of degree <= 4 (every benchmark pair's are of
    degree <= 1), and O(h^6) otherwise, the order at which the in-cell
    kernel already interpolates the solution.  Engines form these
    weights per setup; m_rho0 (against d(q + i p)) forms them once.  It and
    m_p0 (against dt) serve only the recovery of w and y' after a verified
    solve; each is built on first use, as are budget_logs, gw, qg and
    q_edge.

    rho is float64 when the density of p is 0 at every Gauss node (p
    atomic or zero, the shifted p + dx excepted), and so are gw_rho and
    m_rho0; otherwise complex128.  The bits of every solve are those of a
    complex rho with +0 imaginary parts: numpy widens a float64 operand of
    a complex product or sum to exactly that before the operation.
    """

    def __init__(self, p: Measure, q: Measure, edges: np.ndarray,
                 picard_budget: float | None = None):
        self.p = p
        self.q = q
        self.edges = edges
        if picard_budget is None:
            picard_budget = _running_budget(p, q, 1.0)
        self.picard_budget = picard_budget
        h, self.tg, gw = _gauss_cells(edges)
        if np.any(h <= 0):
            # refinement halves a cell of one ulp into a zero-width one
            x = float(edges[np.argmax(h <= 0)])
            raise BadArgumentError(
                f"mesh edges must be strictly increasing: the cell at {x!r} "
                f"has no width", x=x)
        self.n = len(h)
        # distinct float widths: the engine tabulates its exponentials over
        # a cell once per width and gathers them by width_of
        self.widths, self.width_of = np.unique(h, return_inverse=True)
        # the densities at the Gauss nodes: rho = q' + i p' is real where p'
        # vanishes at every node; gw and q at the nodes are dropped once
        # multiplied in, and rebuilt by their cached properties
        nodes = self.tg.ravel()
        p_rho, rho = p.density_many(nodes), q.density_many(nodes)
        if np.any(p_rho):
            rho = 1j * p_rho + rho
        self.gw_rho = np.ascontiguousarray((gw * rho.reshape(self.n, 6)).T)
        qg = q.drift_many(nodes).reshape(self.n, 6)
        self.gw_q = np.ascontiguousarray((gw * qg).T)
        # (edge index, x, dq + i dp) of each atom in (0, 1], on a mesh edge
        self.atoms = [(_edge_index(edges, x_a), x_a, d_mu)
                      for x_a, d_mu in _interior_atoms(p, q)]

    # the Gauss weights (n, 6) and q at the nodes (n, 6) and edges (n+1,)
    # serve the recovery and spectrum's norm only: built on first use by
    # __init__'s expressions, so with the bits it multiplied in
    @cached_property
    def gw(self) -> np.ndarray:
        return _gauss_cells(self.edges)[2]

    @cached_property
    def qg(self) -> np.ndarray:
        return self.q.drift_many(self.tg.ravel()).reshape(self.n, 6)

    @cached_property
    def q_edge(self) -> np.ndarray:
        return self.q.drift_many(self.edges)

    @cached_property
    def budget_logs(self) -> np.ndarray:
        """log(V / V(x)) of _running_budget, V = V(1) = picard_budget, (7, n):
        rows 0-5 at the Gauss nodes of each cell, row 6 at its right edge;
        _NO_ENVELOPE where V(x) = 0."""
        v_x = _running_budget(self.p, self.q, np.vstack([self.tg.T, self.edges[1:]]))
        logs = np.full(v_x.shape, _NO_ENVELOPE)
        pos = v_x > 0.0
        # V = 0 only without mass, where pos is empty: _log(0) does not raise
        logs[pos] = np.maximum(_log(self.picard_budget) - np.log(v_x[pos]), 0.0)
        return logs

    # lambda-free partial tensors for the moment recovery kernels, (6, 6, n)
    @cached_property
    def m_rho0(self) -> np.ndarray:
        out = np.empty((6, 6, self.n), dtype=self.gw_rho.dtype)
        for lo in range(0, self.n, _SETUP_BLOCK):
            cells = slice(lo, lo + _SETUP_BLOCK)
            (w_rho,) = _sub_weights(self.gw_rho[:, cells])
            out[:, :, cells] = _partial_moments(w_rho.reshape(6, 8, -1))
        return out

    @cached_property
    def m_p0(self) -> np.ndarray:
        # 0.5 h W with h taken by the same np.diff as in _gauss_cells
        return _partial_moments(0.5 * np.diff(self.edges) * _PARTIAL_W[:, :, None])

    def refined(self) -> "_Geometry":
        """Split every cell in half; parent edges appear at even indices."""
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        new_edges = np.empty(2 * self.n + 1)
        new_edges[0::2] = self.edges
        new_edges[1::2] = mids
        return _Geometry(self.p, self.q, new_edges, self.picard_budget)

    def conjugated(self) -> "_Geometry":
        """The geometry of (-p, q) on the same edges, bit for bit.

        A density of p.scaled(-1.0) is the exact negation of p's, so the
        view conjugates the atom weights and a complex gw_rho, leaving
        m_rho0 to be rebuilt, and shares every other array, the lazy ones
        the geometry has built included (one it has not built the view
        builds for itself).  A real rho is its own conjugate, so the view
        shares gw_rho and m_rho0 too.  A conjugated complex copy would hold
        -0 imaginary parts where the widened real array gives +0, so products
        with it can differ only in the sign of a zero;
        test_real_rho_solves_with_the_bits_of_a_complex_one checks that
        every solve keeps its bytes.  The view is built per solve and
        cached nowhere.  The view of (p + dx, q) at -lambda - 1 solves
        (-p, q) at -lambda: the shift identity, c = -1.
        """
        view = object.__new__(_Geometry)
        view.__dict__.update(self.__dict__)
        view.p = self.p.scaled(-1.0)
        view.atoms = [(idx, x_a, d_mu.conjugate()) for idx, x_a, d_mu in self.atoms]
        if np.iscomplexobj(self.gw_rho):
            view.gw_rho = self.gw_rho.conjugate()
            view.__dict__.pop("m_rho0", None)
        return view

    def prefix(self, vals, weights, moments, jumps=()):
        """Integrals of f against one measure from 0 to every node and edge.

        vals holds f at the Gauss nodes, shape (n, 6); weights are the
        Gauss weights times the measure's density there, (n, 6), and
        moments the matching partial tensor (6, 6, n) of _partial_moments.
        jumps lists (edge index, mass) for the atoms: a mass counts at its
        own edge and beyond (right-continuous convention).  Returns node
        integrals (n, 6) and edge integrals (n+1,).
        """
        cell = np.sum(weights * vals, axis=1)
        edge = np.concatenate([[0.0 + 0.0j], np.cumsum(cell)])
        node = edge[:-1, None] + np.einsum("bai,ia->ib", moments, vals)
        for idx, mass in jumps:
            node[idx:, :] += mass
            edge[idx:] += mass
        return node, edge


# level-0 sizes (rungs of _n_uniform's ladder) whose levels a Workspace keeps
_CACHED_RUNGS = 3


class Workspace:
    """Geometry cache for one coefficient pair, reusable across lambdas.

    It keeps the levels of the _CACHED_RUNGS most recently used rungs, a
    rung being a (shift_c, n_uniform) key, and evicts the least recently
    used rung whole when a new one is built.  The ladder has at most two
    rungs per octave, so a scan that turns around, or a contour that
    straddles one rung boundary, rebuilds nothing.  Every geometry is a
    pure function of its key, so a rebuilt one has the same bits.
    """

    def __init__(self, p: Measure, q: Measure, extra_breakpoints=()):
        self.p = p
        self.q = q
        self.extra = tuple(sorted({float(b) for b in extra_breakpoints}))
        for b in self.extra:
            if not 0.0 <= b <= 1.0:  # refuses NaN and infinities too
                raise BadArgumentError(f"extra breakpoint {b} outside [0, 1]")
        self._cache: dict[tuple[float, int, int], _Geometry] = {}
        # the cached rungs, least recently used first
        self._rungs: dict[tuple[float, int], None] = {}

    def _base_edges(self, n_uniform: int) -> np.ndarray:
        pts = {0.0, 1.0}
        pts.update(self.p.breakpoints())
        pts.update(self.q.breakpoints())
        pts.update(self.extra)
        base = sorted(pts)
        edges = []
        for lo, hi in zip(base[:-1], base[1:]):
            m = max(1, math.ceil((hi - lo) * n_uniform))
            edges.append(np.linspace(lo, hi, m + 1)[:-1])
        edges.append(np.array([1.0]))
        return np.concatenate(edges)

    def geometry(self, shift_c: float, n_uniform: int, level: int) -> _Geometry:
        """The geometry of one engine run, built on first use and cached.

        Each engine run looks its geometry up here once, and nothing else
        does: _build makes one ahead of its run without a lookup.  A level
        above 0 looks its parent up first, so a build that is not made
        ahead is seen by a lookup.  A lookup makes its rung the most
        recently used.
        """
        key = (shift_c, n_uniform, level)
        if key not in self._cache:
            if level > 0:
                self.geometry(shift_c, n_uniform, level - 1)
            self._build(shift_c, n_uniform, level)
        rung = (shift_c, n_uniform)
        self._rungs[rung] = self._rungs.pop(rung)
        return self._cache[key]

    def _build(self, shift_c: float, n_uniform: int, level: int) -> None:
        """Cache the geometry of a later engine run, and the levels below it.

        A new rung first evicts the least recently used one when
        _CACHED_RUNGS are cached.
        """
        key = (shift_c, n_uniform, level)
        if key in self._cache:
            return
        if level > 0:
            self._build(shift_c, n_uniform, level - 1)
            self._cache[key] = self._cache[(shift_c, n_uniform, level - 1)].refined()
            return
        if len(self._rungs) == _CACHED_RUNGS:
            old = next(iter(self._rungs))
            del self._rungs[old]
            for stale in [k for k in self._cache if k[:2] == old]:
                del self._cache[stale]
        p_eff = self.p.plus(Measure.lebesgue(shift_c)) if shift_c else self.p
        self._cache[key] = _Geometry(p_eff, self.q, self._base_edges(n_uniform))
        self._rungs[(shift_c, n_uniform)] = None


def _workspace_for(p: Measure, q: Measure, workspace: Workspace | None) -> Workspace:
    """workspace, refused unless built for (p, q); a new one when it is None."""
    if workspace is None:
        return Workspace(p, q)
    if (workspace.p, workspace.q) != (p, q):  # identity first, then equality
        raise BadArgumentError("workspace was built for a different coefficient pair")
    return workspace


# ---------------------------------------------------------------------------
# Picard engine


def _supported_root(lam_eff: complex) -> complex:
    """cube_root(lam_eff), refused beyond the growth ceiling."""
    k = cube_root(lam_eff)
    _check_ceiling(abs(k))
    return k


def _check_ceiling(k_abs: float) -> None:
    """Refuse |k| = |lambda|^(1/3) beyond the growth ceiling."""
    if k_abs > _K_CEILING:
        raise NumericalError(
            f"|lambda|^(1/3) = {k_abs:.3g} beyond the supported ceiling"
        )


@lru_cache(maxsize=1024)
def _log_tail_sum(m: int, budget: float) -> float:
    """log S_m(V), where S_m(V) = sum_{j >= 1} V^j m! / (m + j)!.

    The terms are summed in logarithms until they fall below e^-40 of the
    largest with ratio V / (m + j + 1) under 1/2; the geometric bound on
    the rest is added, so the value bounds S_m(V) from above.
    """
    if budget <= 0.0:
        return -math.inf
    log_v = math.log(budget)
    logs = []
    log_t, top = 0.0, -math.inf
    j = 0
    while True:
        j += 1
        log_t += log_v - math.log(m + j)
        logs.append(log_t)
        top = max(top, log_t)
        ratio = budget / (m + j + 1)
        if ratio < 0.5 and log_t < top - 40.0:
            break
    logs.append(log_t + math.log(ratio / (1.0 - ratio)))
    return top + math.log(sum(math.exp(v - top) for v in logs))


def _log(b: float) -> float:
    """math.log extended to 0 (-inf) and NaN."""
    if b > 0.0:
        return math.log(b)
    return -math.inf if b == 0.0 else math.nan


class _Engine:
    """One (geometry, lambda) pairing of the Picard iteration.

    A Picard term maps f to the integral over (0, x] of
    y3(x - t) f(t) d(q + i p)(t) - 2 y2(x - t) q(t) f(t) dt, where y2 and
    y3 are the zero-potential kernels.  Each is a sum over channels j of
    a_j exp(i omega^j k (x - t)), and for a Gauss node x_b of the cell with
    left edge x_i the exponential splits as

        exp(i omega^j k (x_b - t))
            = exp(i omega^j k (x_b - x_i)) exp(i omega^j k x_i) exp(-i omega^j k t).

    Across cells, the integral over (0, x_i] is a cumulative sum of the three
    channels, kept at the edges only; the phase exp(i omega^j k (x_b - x_i)),
    tabulated once per distinct cell width, carries the value at each left
    edge to the nodes of its cell.  Inside a cell the kernels depend only on
    x_b - t, so the integral over (x_i, x_b] is one (6, 6) matrix per cell,
    built at setup from y2 and y3 at the 48 sub-node offsets of each width.
    A term then costs 18 complex multiply-adds per cell for the cell
    weights, 36 in the cell and 18 for the phases.

    A setup computes per lambda only what the series reads:
    - the edge exponentials u_edge, (3, n+1), and the width phases;
    - one _series_rows call for the edges and nodes below the series
      switch and the 48 sub-node offsets of each width;
    - the cell weights cell_w, (3, 6, n): reciprocal edge exponentials and
      width phases times the geometry's gw_rho and gw_q;
    - the in-cell kernel, (6, 6, n), from y2 and y3 gathered by width
      against the sub-node weights of rho and q.  Those are formed in
      blocks of _SETUP_BLOCK cells, one GEMM of _SUB_FROM_GW over gw_rho
      and gw_q side by side per block: 0.5 h W times the degree-5
      interpolants of rho and q at the sub-nodes, exact where they are
      polynomials of degree <= 5 on the cell (see _Geometry);
    - the atom phases.
    The phases, the cell weights and the in-cell kernel are filled in the
    same blocks, each block's temporaries dropped before the next, so no
    setup temporary spans more than _SETUP_BLOCK cells but the (n,) and
    (6, n) ones of the series switch.  Everything lambda-free, the
    recovery tensors included, lives on the geometry.
    """

    def __init__(self, geo: _Geometry, lam_eff: complex, cfg: SolverConfig):
        self.geo = geo
        self.lam = lam_eff
        self.cfg = cfg
        self.k = k = _supported_root(lam_eff)
        iok = 1j * k * _OMEGA_POW
        self.a2 = a2 = _OMEGA_NEG / (3j * k)
        self.a3 = a3 = -_OMEGA_POW / (3.0 * k * k)
        self.u_edge = np.exp(np.multiply.outer(iok, geo.edges))  # (3, n+1)
        # kernel[b, :, i] maps the 6 values of f in cell i and the 3 edge
        # channels at its left edge to the term at node b: columns 0-5 hold
        # the in-cell integral, the last 3 the phases exp(i omega^j k (x_b - x_i))
        self.kernel = np.empty((6, 9, geo.n), dtype=complex)
        self.phase = self.kernel[:, 6:]
        # node offsets from the left edge, per distinct width: (6, 3, widths),
        # gathered by width block by block below; np.take keeps the
        # gathered arrays C-ordered, cells last (fancy indexing would not)
        offset = np.multiply.outer(np.multiply.outer(_PARTIAL_SPAN, iok), geo.widths)
        e_phase = np.exp(offset)
        # one _series_rows call, all of it on zero_potential_rows' series
        # branch: the edges and nodes where the exponential sums cancel,
        # then the in-cell offsets of every width (_n_uniform's ladder
        # keeps |k| h <= _KH_MAX < _SERIES_SWITCH on every level)
        self.near_edge = abs(k) * geo.edges < _SERIES_SWITCH
        self.near_node = abs(k) * geo.tg.T < _SERIES_SWITCH
        pts = [geo.edges[self.near_edge], geo.tg.T[self.near_node],
               np.multiply.outer(_SUB_OFFSET, geo.widths).ravel()]
        rows = _series_rows(lam_eff, np.concatenate(pts))
        n_edge, n_node = len(pts[0]), len(pts[1])
        self.rows_edge = rows[:, :n_edge]
        self.rows_node = rows[:, n_edge:n_edge + n_node]
        # the growth rate r of w(x) = e^(r x), the largest channel exponent;
        # log(w(1) / w(x)) at the left edge of each cell
        rate = float(np.max(-(k * _OMEGA_POW).imag))
        self.log_w_ratio = rate * (1.0 - geo.edges[:-1])
        # cell weights (3, 6, n): channel j, node a, cell; filled block by
        # block below, every product elementwise, so the bits do not depend
        # on the blocks
        self.cell_w = np.empty((3, 6, geo.n), dtype=complex)
        e_cell = np.ascontiguousarray(np.exp(-offset).transpose(1, 0, 2))
        u_left = self.u_edge[:, :-1]
        y2, y3 = rows[1:, n_edge + n_node:].reshape(2, 48, -1)
        y2 = -2.0 * y2
        for lo in range(0, geo.n, _SETUP_BLOCK):
            cells = slice(lo, lo + _SETUP_BLOCK)
            width_of = geo.width_of[cells]
            self.phase[:, :, cells] = np.take(e_phase, width_of, axis=-1)
            gw_rho, gw_q = geo.gw_rho[:, cells], geo.gw_q[:, cells]
            block = self.cell_w[:, :, cells]
            np.multiply(np.take(e_cell, width_of, axis=-1),
                        (1.0 / u_left[:, cells])[:, None, :], out=block)
            mixed = np.multiply.outer(a3, gw_rho)
            mixed -= np.multiply.outer(2.0 * a2, gw_q)
            block *= mixed
            w_rho, w_q = _sub_weights(gw_rho, gw_q)
            sub = np.take(y3, width_of, axis=-1)
            sub *= w_rho
            sub_q = np.take(y2, width_of, axis=-1)
            sub_q *= w_q
            sub += sub_q
            _partial_moments(sub.reshape(6, 8, -1), out=self.kernel[:, :6, cells])
            # the next block's temporaries replace these, not join them
            del mixed, w_rho, w_q, sub, sub_q
        # leading rows per chunk of term's contractions (see term)
        self.term_rows = max(1, 6 * _SETUP_BLOCK // geo.n)
        xs = np.array([a[1] for a in geo.atoms], dtype=float)
        self.atom_phase = a3[:, None] * np.exp(-np.multiply.outer(iok, xs))

    def initial_rows(self, init: InitialTriple):
        """y0 y1 + z0 y2 + w0 y3 at every node (6, n) and edge (n+1,).

        Node arrays of the engine are node-major: Gauss node b, then cell.
        The rows are sum_j (y0 / 3 + z0 a2_j + w0 a3_j) exp(i omega^j k x),
        built from the engine's edge exponentials and width phases; points
        with |k x| below the series switch, where the sum cancels, take the
        zero_potential_rows values tabulated at setup instead.
        """
        coef = init.y0 / 3.0 + init.z0 * self.a2 + init.w0 * self.a3
        chan = coef[:, None] * self.u_edge
        edge = np.sum(chan, axis=0)
        node = np.sum(self.phase * chan[:, :-1], axis=1)
        vec = init.as_vector()
        edge[self.near_edge] = vec @ self.rows_edge
        node[self.near_node] = vec @ self.rows_node
        return node, edge

    def term(self, vals, edge_vals):
        """The next Picard term from f at the nodes (6, n) and edges (n+1,).

        Returns the term at every node (6, n) and edge (n+1,).  Each
        contraction runs over chunks of term_rows = max(1, 6 * _SETUP_BLOCK
        // n) leading rows, channels of cell_w and then nodes of the
        kernel: one chunk up to _SETUP_BLOCK cells, one row from 1,537
        cells up, so a product temporary covers at most max(6 *
        _SETUP_BLOCK, n) cells of a row, not the whole kernel.  numpy sums
        the middle axis in the same sequential order whatever the leading
        rows, so the bits are those of one contraction over every row.
        (Chunks of cells would not keep them: the summation order of a
        reduction depends on its strides.)
        """
        geo, rows = self.geo, self.term_rows
        stacked = np.empty((9, geo.n), dtype=complex)
        stacked[:6] = vals
        cell = np.empty((3, geo.n), dtype=complex)
        for lo in range(0, 3, rows):
            np.sum(self.cell_w[lo:lo + rows] * vals, axis=1, out=cell[lo:lo + rows])
        chan = np.zeros((3, geo.n + 1), dtype=complex)
        np.cumsum(cell, axis=1, out=chan[:, 1:])
        del cell
        for pos, (idx, _, d_mu) in enumerate(geo.atoms):
            contrib = self.atom_phase[:, pos] * (d_mu * edge_vals[idx])
            chan[:, idx:] += contrib[:, None]
        chan *= self.u_edge
        stacked[6:] = chan[:, :-1]
        # cell and chan go before the node chunks, where a term peaks
        edge = np.sum(chan, axis=0)
        del chan
        node = np.empty((6, geo.n), dtype=complex)
        for lo in range(0, 6, rows):
            np.sum(self.kernel[lo:lo + rows] * stacked, axis=1, out=node[lo:lo + rows])
        return node, edge

    # an overflow is refused by type below, not announced by numpy
    @np.errstate(over="ignore", invalid="ignore")
    def iterate(self, init: InitialTriple):
        """Accumulate the fixed-point iterates; returns y at nodes and edges.

        Each term is one call of term.  By exp(i omega^j k (x_b - t)) =
        exp(i omega^j k (x_b - x_i)) exp(i omega^j k (x_i - t)), it sums the
        three exponential channels across cells at the edges only, then
        makes one contraction per cell: the in-cell kernel on f and the
        width phases on the edge channels.  The series starts from the
        engine's own initial rows.  Node values come back cell-major, (n, 6).

        The series stops after the first term m whose remainder bound
        falls below 0.5 tol scale, with scale = max |y| over the nodes (at
        least 1).  The bound is the smaller of
            crude: max_x |c_m(x)| (w(1) / w(x)) (e^V - 1),
            sharp: max_x |c_m(x)| (w(1) / w(x)) (V / V(x))^m S_m(V),
        over the nodes and edges, S_m(V) = sum_{j >= 1} V^j m! / (m + j)!,
        V(x) the running budget below, V = V(1) = picard_budget, and
        log(V / V(x)) the geometry's budget_logs; where V(x) = 0 only the
        crude bound applies.  Both are computed in logarithms
        (log_tail_bound), and only once max |c_m| S_m(V), below both since
        w(1) / w >= 1 and S_m(V) <= e^V - 1, is below the target.  A term
        whose bound exceeds the float range even at that smallest value, and
        the _MAX_TERMS-th term, are refused with ConvergenceError carrying
        V, m and log10 of the bound.  With no mass in (0, 1], p = q = 0
        included, V = 0: the first term is exactly 0, its bound -inf, and
        the series stops there.

        Derivation.  The term operator is the Volterra operator
            (T f)(x) = int_(0,x] y3(x - t) f(t) d(q + i p)(t)
                       - 2 int_0^x y2(x - t) q(t) f(t) dt.
        Let w(x) = e^(r x) with r = max_j -Im(omega^j k), the largest growth
        exponent of the channels, so |exp(i omega^j k s)| <= w(s) for each.
        The exponents sum to 0, so r >= 0, and r is at most the rate
        sum_j |Im(omega^j k / 2)| of xi_bound; the two differ only when two
        channels grow (lambda near the negative imaginary axis), where
        xi_bound's weight grows up to twice as fast as the solutions.  Hence
        |y1(s)| <= w(s), and since y2' = y1 and y3' = y2 vanish at 0,
        |y2(s)| <= s w(s) and |y3(s)| <= s^2 w(s) / 2 on [0, 1], for every
        k, |k| < 1 included (the shifted solves run down to |k| ~ 0.3).  The
        estimate lab.bound_audit checks, |y_j(x)| <= 3 / |k|^(j-1) w(x)
        e^(V(x)), counts the three channels without their 1/3: for |k| >= 1
        it bounds the kernels by 3 w, and that 3 multiplies the variations
        in its exponent.  With w(x - t) w(t) = w(x) and |q(t)| <= |q|(0,1],
            |T f(x)| <= w(x) int_(0,x] (|f(t)| / w(t)) dV(t) / 3
        for V(x) = 3 (2 |q|(0,1] x + |p|(0,x] + |q|(0,x]) (_running_budget),
        whose V(1) is picard_budget; the kernels need only a third of the
        constant the budget keeps.  Every term is continuous, so at an atom
        the integrand takes V's left limit, and induction on j turns
        |f| <= A w V^m / m! into |T^j f| <= A w V^(m+j) / (m+j)!.  Summed
        over j >= 1, with A = max |c_m| / w (m = 0 in the induction) this is
        the crude bound, and with A = max |c_m(x)| m! / (w(x) V(x)^m) the
        sharp one.  The maxima run over the measured points, the edge at 0
        left out (every term vanishes there), with a point's weight taken at
        the left edge of its cell, where it is larger.
        """
        geo, cfg = self.geo, self.cfg
        c_node, c_edge = self.initial_rows(init)
        y_node = c_node.copy()
        y_edge = c_edge.copy()
        scale = max(1.0, float(np.max(np.abs(y_node))))
        budget = geo.picard_budget
        for m in range(1, _MAX_TERMS + 1):
            c_node, c_edge = self.term(c_node, c_edge)
            y_node += c_node
            y_edge += c_edge
            scale = max(scale, float(np.max(np.abs(y_node))), 1.0)
            log_target = math.log(0.5 * cfg.tol * scale)
            # both bounds are at least max |c_m| S_m(V): w(1) / w >= 1,
            # V / V(x) >= 1 and S_m(V) <= e^V - 1
            floor = _log(float(np.max(np.abs(c_node)))) + _log_tail_sum(m, budget)
            if floor < log_target:
                if self.log_tail_bound(m, c_node, c_edge) < log_target:
                    break
            elif not floor <= _LOG_FLOAT_MAX:
                self._refuse("the Picard tail bound exceeds the float range",
                             m, c_node, c_edge)
        else:
            self._refuse(f"Picard iteration did not converge in {_MAX_TERMS} terms",
                         _MAX_TERMS, c_node, c_edge)
        if not (np.all(np.isfinite(y_node)) and np.all(np.isfinite(y_edge))):
            raise NumericalError("solution overflowed or produced NaN")
        return np.ascontiguousarray(y_node.T), y_edge, m

    def log_tail_bound(self, m: int, c_node, c_edge) -> float:
        """log of iterate's bound on the remainder sum_{j > m} c_j.

        c_node (6, n) and c_edge (n+1,) hold the measured term m >= 1.
        """
        budget = self.geo.picard_budget
        if budget == 0.0:
            return -math.inf  # no mass in (0, 1]: every term vanishes
        # log(|c_m| w(1) / w), (7, n) as budget_logs, every point weighted
        # at the left edge of its cell; c_m(0) = 0, an empty integral
        mag = np.empty((7, self.geo.n))
        np.abs(c_node, out=mag[:6])
        np.abs(c_edge[1:], out=mag[6])
        with np.errstate(divide="ignore"):
            np.log(mag, out=mag)
        mag += self.log_w_ratio
        # log(e^V - 1) as V + log(1 - e^-V), which cannot overflow
        crude = float(mag.max()) + budget + math.log(-math.expm1(-budget))
        mag += m * self.geo.budget_logs
        sharp = float(mag.max()) + _log_tail_sum(m, budget)
        return sharp if sharp < crude else crude

    def _refuse(self, message: str, m: int, c_node, c_edge):
        bound = self.log_tail_bound(m, c_node, c_edge)
        raise ConvergenceError(message, budget=self.geo.picard_budget, terms=m,
                               log10_bound=bound / math.log(10.0))

    def recover(self, init: InitialTriple, y_node, y_edge):
        """Stacked (y, y', w) at every node (3, n, 6) and edge (3, n+1).

        w comes from the exact moment identity and y' from dy' = w dx.  With
        dnu = d(q + i p) - i lambda dt and integrals over (0, x]:
            w(x)  = w0 - 2 q(x) y(x) + int y dnu,
            y'(x) = z0 + int_0^x w dt.
        Atoms and density breakpoints sit on mesh edges, so w is smooth
        inside every cell and the Gauss rule integrates it there.
        """
        geo = self.geo
        il = 1j * self.lam
        rho0 = geo.prefix(y_node, geo.gw_rho.T, geo.m_rho0,
                          [(i, d_mu * y_edge[i]) for i, _, d_mu in geo.atoms])
        p0 = geo.prefix(y_node, geo.gw, geo.m_p0)
        nu_node, nu_edge = (r0 - il * l0 for r0, l0 in zip(rho0, p0))
        w_node = init.w0 - 2.0 * geo.qg * y_node + nu_node
        w_edge = init.w0 - 2.0 * geo.q_edge * y_edge + nu_edge
        z_node, z_edge = geo.prefix(w_node, geo.gw, geo.m_p0)
        return (np.stack([y_node, init.z0 + z_node, w_node]),
                np.stack([y_edge, init.z0 + z_edge, w_edge]))


# ---------------------------------------------------------------------------
# solution paths


class SolutionPath:
    """State of one solve: the channels y, y', w at nodes and mesh edges.

    edge holds the three channels at the mesh edges, shape (3, n+1), and
    node at the Gauss nodes, shape (3, n, 6); y, yprime and w_post are row
    views of edge.  nodes are the mesh edges; y and yprime are continuous,
    w_post carries the right-continuous value and w_pre the left limit
    (they differ only at atoms).  eval_y, eval_yprime and eval_w take a
    point or an array of points in [0, 1]; off-node points interpolate the
    Gauss values.
    """

    def __init__(self, lam, init, geo, node, edge, n_terms):
        self.lam = complex(lam)
        self.init = init
        self.nodes = geo.edges
        self.node = node
        self.edge = edge
        self.y, self.yprime, self.w_post = edge
        self.w_pre = self.w_post.copy()
        self.jumps = []
        for idx, x_a, d_mu in geo.atoms:  # one atom per edge, by increasing x
            delta = 0.0 - self.y[idx] * d_mu.conjugate()
            self.w_pre[idx] = self.w_post[idx] - delta
            self.jumps.append((x_a, complex(delta)))
        self.n_terms = n_terms

    # -- boundary accessors ----------------------------------------------

    @property
    def y_at_one(self) -> complex:
        return complex(self.y[-1])

    @property
    def yprime_at_one(self) -> complex:
        return complex(self.yprime[-1])

    @property
    def w_at_one(self) -> complex:
        return complex(self.w_post[-1])

    # -- evaluation --------------------------------------------------------

    def _eval(self, channel: int, x, side: str = "right"):
        """Channel 0, 1, 2 (y, y', w) at a scalar or an array of points.

        A scalar returns a complex, an array an ndarray of its shape.
        """
        if side not in ("right", "left"):
            raise BadArgumentError("side must be 'right' or 'left'")
        xs = np.asarray(float(x) if _is_real(x) else x)
        if xs.dtype.kind not in "iuf":  # a bool, a string, None, ...
            raise BadArgumentError(f"evaluation points must be real numbers, got {_shown(x)}")
        xs = xs.astype(float)
        inside = (xs >= 0.0) & (xs <= 1.0)
        if not np.all(inside):
            bad = xs[~inside].flat[0] if xs.ndim else xs
            raise BadArgumentError(f"evaluation point {bad} outside [0, 1]")
        out = self._values(channel, xs.ravel(), side).reshape(xs.shape)
        return complex(out) if xs.ndim == 0 else out

    def _values(self, channel: int, xs: np.ndarray, side: str) -> np.ndarray:
        """Edge values at mesh edges, interpolated Gauss values elsewhere."""
        edge_vals = self.w_pre if channel == 2 and side == "left" else self.edge[channel]
        j = np.searchsorted(self.nodes, xs)  # nodes end at 1.0: j stays in range
        on_edge = self.nodes[j] == xs
        out = np.empty(len(xs), dtype=complex)
        out[on_edge] = edge_vals[j[on_edge]]
        off = ~on_edge
        if np.any(off):  # matrix(1.0) and other edge-only calls skip this
            out[off] = _interp(self.node[channel], self.nodes, xs[off], j[off] - 1)
        return out

    def eval_y(self, x):
        return self._eval(0, x)

    def eval_yprime(self, x):
        return self._eval(1, x)

    def eval_w(self, x, side: str = "right"):
        return self._eval(2, x, side)

    def to_rows(self):
        """Output rows (x, y, y', w, is_atom); atoms produce pre then post."""
        atom_idx = {}
        for x_a, _ in self.jumps:
            atom_idx[int(np.searchsorted(self.nodes, x_a))] = x_a
        rows = []
        for i, x in enumerate(self.nodes):
            if i in atom_idx:
                rows.append((float(x), self.y[i], self.yprime[i], self.w_pre[i], 1))
                rows.append((float(x), self.y[i], self.yprime[i], self.w_post[i], 1))
            else:
                rows.append((float(x), self.y[i], self.yprime[i], self.w_post[i], 0))
        return rows


# ---------------------------------------------------------------------------
# public solvers


def _finite_lambda(lam) -> complex:
    """lam as a finite complex; a bool, a string or None is refused."""
    if isinstance(lam, bool) or not isinstance(lam, numbers.Complex):
        raise BadArgumentError(f"lambda must be a number, got {_shown(lam)}")
    if not (_is_finite_real(lam.real) and _is_finite_real(lam.imag)):
        raise BadArgumentError("lambda must be finite")
    return complex(lam)


def _effective(lam: complex) -> tuple[complex, float]:
    lam = _finite_lambda(lam)
    if abs(lam) < _SHIFT_MIN:
        return lam + 1.0, 1.0
    return lam, 0.0


def _n_uniform(cfg: SolverConfig, k: complex) -> int:
    """Level-0 cells per unit length n, with |k| <= n * _KH_MAX.

    n is mesh_size times the lowest rung of the ladder 1, 2, 3, 4, 6, 8, 12,
    16, ... (2^j and 3 * 2^(j - 1)) that meets the rule; Workspace._base_edges
    keeps every cell at most 1/n wide, so |k| h <= _KH_MAX.  At most two
    rungs fall in each octave, so the _CACHED_RUNGS = 3 rungs a workspace
    keeps cover 1.5 octaves of |k|.
    """
    n = cfg.mesh_size
    while n * _KH_MAX < abs(k):
        n *= 2
    if n >= 4 * cfg.mesh_size and abs(k) <= (3 * n // 4) * _KH_MAX:
        n = 3 * n // 4
    return n


def _iterate_on_level(ws: Workspace, lam: complex, inits, cfg: SolverConfig,
                      level: int, mirror: bool = False):
    """Run the engine once per initial triple on the given refinement level.

    mirror solves (-p, q) at -conj(lam) on the conjugated view of ws's geometry.
    """
    lam_eff, shift_c = _effective(lam)
    # refused beyond the growth ceiling before any mesh is built
    n_uni = _n_uniform(cfg, _supported_root(lam_eff))
    geo = ws.geometry(shift_c, n_uni, level)
    if mirror:
        geo = geo.conjugated()
        lam_eff = -lam_eff.conjugate()
    eng = _Engine(geo, lam_eff, cfg)
    return eng, [eng.iterate(t) for t in inits]


def _solve_verified(ws: Workspace, lam: complex, inits, cfg: SolverConfig,
                    mirror: bool = False):
    """Solve on doubling meshes until two resolutions agree at shared edges.

    A target 10 * tol below float64 resolution is refused after the first
    comparison: two levels can meet it only by a chance agreement of their
    rounding errors, which certifies nothing.

    One engine is alive at a time: a level that does not settle the solve
    keeps only its edge values for the next comparison, and its engine and
    node values are dropped before the next level's engine is set up.
    """
    # level 1, which every verified solve runs, is built before the level-0
    # engine: a mesh that cannot be refined is refused at no engine run
    lam_eff, shift_c = _effective(lam)
    ws._build(shift_c, _n_uniform(cfg, _supported_root(lam_eff)), 1)
    prev_edges = None
    gap = math.inf
    for level in range(_MAX_DOUBLINGS):
        eng, results = _iterate_on_level(ws, lam, inits, cfg, level, mirror)
        edges = [r[1] for r in results]
        if prev_edges is not None:
            gap = 0.0
            for fine, coarse in zip(edges, prev_edges):
                scale = max(1.0, float(np.max(np.abs(fine))))
                gap = max(gap, float(np.max(np.abs(fine[::2] - coarse))) / scale)
            if 10.0 * cfg.tol < _EPS:
                raise MeshRefinementError(
                    f"tolerance {cfg.tol:.3g} is below float64 resolution; "
                    f"the doubling gap was {gap:.3g}",
                    doublings=level, gap=gap,
                )
            if gap <= 10.0 * cfg.tol:
                return eng, results
        prev_edges = edges
        del eng, results
    raise MeshRefinementError(
        "mesh doubling failed to stabilize the solution",
        doublings=_MAX_DOUBLINGS - 1, gap=gap,
    )


def _solve_columns(ws: Workspace, lam: complex, inits, cfg: SolverConfig | None):
    """Verified solves of several initial triples on one shared mesh.

    Returns the mesh geometry and one SolutionPath per triple.
    """
    cfg = cfg or SolverConfig()
    eng, results = _solve_verified(ws, lam, inits, cfg)
    paths = [
        SolutionPath(lam, init, eng.geo, *eng.recover(init, y_node, y_edge), n_terms)
        for init, (y_node, y_edge, n_terms) in zip(inits, results)
    ]
    return eng.geo, paths


def solve_picard(p: Measure, q: Measure, lam: complex, init: InitialTriple,
                 cfg: SolverConfig | None = None,
                 workspace: Workspace | None = None) -> SolutionPath:
    """Fixed-point solve; the mesh is doubled until two resolutions agree."""
    ws = _workspace_for(p, q, workspace)
    _, (path,) = _solve_columns(ws, lam, [_initial(init)], cfg)
    return path


def solve_value(p: Measure, q: Measure, lam: complex, init: InitialTriple,
                cfg: SolverConfig | None = None,
                workspace: Workspace | None = None,
                verify: bool = True) -> complex:
    """y(1) only; the root-scan hot path.

    verify=False runs a single resolution without the doubling cross-check.
    Root scans use it for bracketing; anything whose value is reported must
    go through a verified solve.
    """
    cfg = cfg or SolverConfig()
    init = _initial(init)
    ws = _workspace_for(p, q, workspace)
    if ws.p.is_zero and ws.q.is_zero:
        # the closed form is exact, near 0 too: no mesh, nothing to verify
        _supported_root(_finite_lambda(lam))
        y1, y2, y3 = zero_potential_rows(lam, [1.0])
        return complex((init.y0 * y1 + init.z0 * y2 + init.w0 * y3)[0])
    if verify:
        _, results = _solve_verified(ws, lam, [init], cfg)
    else:
        _, results = _iterate_on_level(ws, lam, [init], cfg, 0)
    return complex(results[0][1][-1])


def _mirror_value(ws: Workspace, lam: float, init: InitialTriple,
                  cfg: SolverConfig | None) -> complex:
    """Verified y(1) of the conjugated problem (-p, q) at -lam, for real lam.

    It equals solve_value(ws.p.scaled(-1.0), ws.q, -lam, init, cfg) on a
    workspace with ws's breakpoints, but runs on the _Geometry.conjugated
    view of ws's meshes (of p + dx below _SHIFT_MIN: c = -1), building
    only levels of (p, q) the direct solves never reached.  The zero pair,
    its own mirror, takes the closed form.
    """
    if ws.p.is_zero and ws.q.is_zero:
        return solve_value(ws.p, ws.q, -lam, init, cfg, ws)
    _, results = _solve_verified(ws, lam, [init], cfg or SolverConfig(), mirror=True)
    return complex(results[0][1][-1])


# ---------------------------------------------------------------------------
# transfer solver for purely atomic coefficients


def _propagator(q_c: float, lam: complex, s) -> np.ndarray:
    """exp(s A) for A = [[0,1,0],[0,0,1],[-i lam, -2 q_c, 0]].

    s is a scalar, giving (3, 3), or an array, giving s.shape + (3, 3); the
    roots are found and polished once per call.  Separated characteristic
    roots take the Lagrange-Sylvester sum of e^(r s) P_r over the roots r,
    its three projectors P_r formed once.  Crowded ones (repeated included) take
    scaling and squaring at each s, which does not break down as roots
    merge (Moler and Van Loan, SIAM Review 45, 2003), on D^-1 A D with
    D = diag(1, rho, rho^2): its entries are of the root scale rho, so it
    needs fewer squarings than A, whose largest entry is |lam|.
    """
    s = np.asarray(s, dtype=float)
    A = np.array([[0, 1, 0], [0, 0, 1], [-1j * lam, -2.0 * q_c, 0]], dtype=complex)
    roots = np.roots([1.0, 0.0, 2.0 * q_c, 1j * lam])
    for _ in range(3):  # Newton polish of np.roots output
        f = roots**3 + 2.0 * q_c * roots + 1j * lam
        fp = 3.0 * roots**2 + 2.0 * q_c
        safe = np.abs(fp) > 1e-30
        roots[safe] = roots[safe] - f[safe] / fp[safe]
    scale = max(1.0, float(np.max(np.abs(roots))))
    dmin = min(abs(roots[0] - roots[1]), abs(roots[0] - roots[2]),
               abs(roots[1] - roots[2]))
    if dmin < _CROWDED * scale:
        d = np.array([1.0, scale, scale * scale])
        balanced = A * d / d[:, None]
        out = np.array([_expm_taylor(t * balanced) for t in s.ravel()])
        return out.reshape(s.shape + (3, 3)) * (d[:, None] / d)
    eye = np.eye(3, dtype=complex)
    proj = np.empty((3, 3, 3), dtype=complex)
    for j in range(3):
        term = eye
        for l in range(3):
            if l != j:
                term = term @ (A - roots[l] * eye) / (roots[j] - roots[l])
        proj[j] = term
    return np.einsum("...j,jab->...ab", np.exp(np.multiply.outer(s, roots)), proj)


def _expm_taylor(m: np.ndarray) -> np.ndarray:
    """exp(m) for a small matrix by Taylor series with scaling and squaring."""
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    halvings = max(0, math.ceil(math.log2(4.0 * norm))) if norm > 0.0 else 0
    x = m / 2.0**halvings
    term = np.eye(len(m), dtype=complex)
    out = term.copy()
    # ||x|| <= 1/4, so the first term left out is below 1e-28
    for n in range(1, 19):
        term = term @ x / n
        out = out + term
    for _ in range(halvings):
        out = out @ out
    return out


class TransferPath(SolutionPath):
    """Exact path for purely atomic (p, q), propagated segment by segment.

    Holds the drift q_c and the post-jump state at each segment start (0
    and every interior atom), and propagates each segment's points from its
    start with one _propagator call; a point at a start returns the stored
    state.  The edge arrays sample a uniform 129-point grid joined with the
    atoms.  It has no mesh, so it fills the public attributes itself
    instead of calling the mesh constructor.
    """

    def __init__(self, p: Measure, q: Measure, lam: complex,
                 init: InitialTriple):
        self.lam = complex(lam)
        self.init = init
        self.n_terms = 0
        atoms = _interior_atoms(p, q)
        atom_xs = [x_a for x_a, _ in atoms]
        self._starts = np.array([0.0] + atom_xs)
        ends = atom_xs + [1.0]
        self._q_c = [q.drift(0.5 * (start + end))
                     for start, end in zip(self._starts, ends)]
        self._states = np.empty((len(ends), 3), dtype=complex)
        state = init.as_vector()
        for i, (start, end) in enumerate(zip(self._starts, ends)):
            if i > 0:
                state[2] -= state[0] * atoms[i - 1][1].conjugate()
            self._states[i] = state
            if end > start:
                state = _propagator(self._q_c[i], self.lam, end - start) @ state
        self.nodes = np.array(sorted(set(np.linspace(0.0, 1.0, 129)) | set(atom_xs)))
        self.edge = self._state(self.nodes, "right").T.copy()
        self.y, self.yprime, self.w_post = self.edge
        self.w_pre = self.w_post.copy()
        at = np.searchsorted(self.nodes, atom_xs)
        self.w_pre[at] = self._state(self.nodes[at], "left")[:, 2]
        self.jumps = [(x_a, complex(self.w_post[i] - self.w_pre[i]))
                      for i, x_a in zip(at, atom_xs)]

    def _state(self, xs: np.ndarray, side: str) -> np.ndarray:
        """(y, y', w) at the points xs, shape (len(xs), 3)."""
        seg = np.searchsorted(self._starts, xs, side="right") - 1
        if side == "left":  # an atom's left limit ends the segment before it
            seg -= (seg > 0) & (self._starts[seg] == xs)
        s = xs - self._starts[seg]
        out = self._states[seg]
        moving = s > 0
        for i in np.unique(seg[moving]):
            hit = moving & (seg == i)
            out[hit] = _propagator(self._q_c[i], self.lam, s[hit]) @ self._states[i]
        return out

    def _values(self, channel: int, xs: np.ndarray, side: str) -> np.ndarray:
        return self._state(xs, side)[:, channel]


def solve_transfer(p: Measure, q: Measure, lam: complex,
                   init: InitialTriple) -> TransferPath:
    """Exact segment-by-segment propagation for purely atomic (p, q)."""
    if not (p.is_atomic and q.is_atomic):
        raise UnsupportedMeasureError(
            "transfer solver needs purely atomic coefficients"
        )
    return TransferPath(p, q, _finite_lambda(lam), _initial(init))


# ---------------------------------------------------------------------------
# fundamental matrix


_CANONICAL = (
    InitialTriple(1, 0, 0),
    InitialTriple(0, 1, 0),
    InitialTriple(0, 0, 1),
)


class FundamentalPath:
    """The three canonical solves on one shared mesh; evaluates N(x) anywhere."""

    def __init__(self, p: Measure, q: Measure, lam: complex,
                 cfg: SolverConfig | None = None,
                 workspace: Workspace | None = None):
        cfg = cfg or SolverConfig()
        ws = _workspace_for(p, q, workspace)
        self.lam = _finite_lambda(lam)
        self.cfg = cfg
        self._geo, self.columns = _solve_columns(ws, lam, _CANONICAL, cfg)

    def matrix(self, x: float) -> np.ndarray:
        cols = [
            [c.eval_y(x), c.eval_yprime(x), c.eval_w(x)] for c in self.columns
        ]
        return np.array(cols).T

    def check_det(self, x: float) -> float:
        n = self.matrix(x)
        scale = max(1.0, float(np.max(np.abs(n)))) ** 2
        err = abs(np.linalg.det(n) - 1.0)
        if err > 10.0 * self.cfg.tol * scale:
            raise DeterminantError(
                f"det N drifted from 1 by {err:.3g} at x={x}", x=x, drift=err
            )
        return err


def fundamental_matrix(p: Measure, q: Measure, lam: complex, x: float,
                       cfg: SolverConfig | None = None) -> FundamentalMatrix:
    """N(x) from three canonical solves, determinant-checked."""
    x = _finite(x, "evaluation point")  # before any solve
    fp = FundamentalPath(p, q, lam, cfg)
    fp.check_det(x)
    return FundamentalMatrix(x=x, lam=complex(lam), entries=fp.matrix(x))


# entry j of column 3 of adj N is y_a z_b - y_b z_a for (a, b) = _ADJ_PAIRS[j]
_ADJ_PAIRS = ((1, 2), (2, 0), (0, 1))


def _adjugate_column3(y_rows, yp_rows):
    """Third column of N^{-1} from the continuous rows of N.

    y_rows, yp_rows: arrays (..., 3) of (y_j, y_j') values.  det N = 1, so
    the inverse is the adjugate, and column 3 needs only rows 1 and 2.
    """
    return np.stack([y_rows[..., a] * yp_rows[..., b] - y_rows[..., b] * yp_rows[..., a]
                     for a, b in _ADJ_PAIRS], axis=-1)
