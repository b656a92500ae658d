"""Initial value solvers for the third-order equation with measure coefficients.

The first-order system for the state (y, y', (y')*) reads

    dy = z dx,   dz = w dx,   dw = -2 q(x) z dx - y dmu,

with mu = q - i p + i lambda x.  Here q(x), p(x) denote induced functions and
dq, dp their measures.  y and y' stay continuous; w jumps at every atom a in
(0, 1] by -y(a) (dq{a} - i dp{a}).  Atoms sitting exactly at 0 never act on
the path: the initial triple already encodes the state at 0.

Two independent solvers are provided.  solve_picard iterates the fixed-point
form built on the zero-potential kernels (exact for the unperturbed problem at
the same lambda, so the iteration count is controlled by the measure norms
alone, not by lambda).  solve_transfer propagates constant-coefficient
segments for purely atomic coefficients and is exact up to roundoff.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgumentError,
    ConvergenceError,
    DegeneracyError,
    DeterminantError,
    MeshRefinementError,
    NumericalError,
    UnsupportedMeasureError,
)
from .measure import Measure

OMEGA = complex(-0.5, 0.5 * math.sqrt(3.0))
_OMEGA_POW = np.array([1.0 + 0.0j, OMEGA, OMEGA * OMEGA])
_OMEGA_NEG = _OMEGA_POW[[0, 2, 1]]  # omega^(-j) for j = 0, 1, 2

# |k s| below this uses the power series of the exponential sums
_SERIES_SWITCH = 0.5
# |lambda| below this is solved at lambda+1 with p shifted by Lebesgue
_SHIFT_MIN = 0.027
# hard ceiling on |k|: growth factors approach the float64 range beyond it
_K_CEILING = 420.0
# mesh rule: cells are refined until |k| * h stays below this
_KH_MAX = 0.12
_MAX_DOUBLINGS = 4
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


def zero_potential_rows(lam: complex, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """First row (y1, y2, y3) of the zero-potential fundamental matrix at s.

    Exponential sums for |k s| above the series switch, power series below;
    the two branches overlap stably around |k s| ~ 0.5.
    """
    s = np.atleast_1d(np.asarray(s, dtype=float))
    k = cube_root(lam)
    if k == 0:
        return (
            np.ones_like(s, dtype=complex),
            s.astype(complex),
            (0.5 * s * s).astype(complex),
        )
    z = k * s
    y1 = np.empty(s.shape, dtype=complex)
    y2 = np.empty(s.shape, dtype=complex)
    y3 = np.empty(s.shape, dtype=complex)
    small = np.abs(z) < _SERIES_SWITCH
    if np.any(small):
        zs = 1j * z[small]
        t0 = np.ones_like(zs)  # (i z)^(3m) / (3m)!
        t1 = zs.copy()
        t2 = zs * zs / 2.0
        g1, g2, g3 = t0.copy(), t1.copy(), t2.copy()
        n = 2
        while n <= 62:
            t0 = t2 * zs / (n + 1)
            t1 = t0 * zs / (n + 2)
            t2 = t1 * zs / (n + 3)
            g1 += t0
            g2 += t1
            g3 += t2
            n += 3
            if np.max(np.abs(t0)) < 1e-18:
                break
        y1[small] = g1
        y2[small] = g2 / (1j * k)
        y3[small] = -g3 / (k * k)
    if np.any(~small):
        zb = z[~small]
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


@dataclass(frozen=True)
class SolverConfig:
    """mesh_size is the uniform refinement floor, tol the sup-norm target."""

    mesh_size: int = 256
    tol: float = 1e-9
    max_iter: int = 200

    def __post_init__(self):
        if self.mesh_size < 1:
            raise BadArgumentError("mesh_size must be positive")
        if not self.tol > 0:
            raise BadArgumentError("tolerance must be positive")
        if self.max_iter < 1:
            raise BadArgumentError("max_iter must be positive")


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


class _Geometry:
    """Mesh plus every lambda-free quadrature tensor for one (p, q) pair."""

    def __init__(self, p: Measure, q: Measure, edges: np.ndarray):
        self.p = p
        self.q = q
        self.edges = edges
        h = np.diff(edges)
        if np.any(h <= 0):
            raise BadArgumentError("mesh edges must be strictly increasing")
        self.h = h
        self.n = len(h)
        centers = 0.5 * (edges[:-1] + edges[1:])
        self.tg = centers[:, None] + 0.5 * h[:, None] * _G6_NODES[None, :]
        self.gw = 0.5 * h[:, None] * _G6_WEIGHTS[None, :]
        self.qg = q.drift_many(self.tg.ravel()).reshape(self.n, 6)
        self.q_edge = q.drift_many(edges)
        rho = q.density_many(self.tg.ravel()) + 1j * p.density_many(self.tg.ravel())
        self.rho_g = rho.reshape(self.n, 6)
        self.tau = centers[:, None, None] + 0.5 * h[:, None, None] * _PARTIAL_ETA[None]
        flat = self.tau.reshape(-1)
        self.w_plain = 0.5 * h[:, None, None] * _PARTIAL_W[None]
        self.w_q = self.w_plain * q.drift_many(flat).reshape(self.tau.shape)
        self.w_rho = self.w_plain * (
            q.density_many(flat) + 1j * p.density_many(flat)
        ).reshape(self.tau.shape)
        # atoms strictly inside (0, 1]; each must sit on a mesh edge
        joint: dict[float, list[float]] = {}
        for a in q.atoms:
            if a.x > 0:
                joint.setdefault(a.x, [0.0, 0.0])[0] += a.w
        for a in p.atoms:
            if a.x > 0:
                joint.setdefault(a.x, [0.0, 0.0])[1] += a.w
        self.atoms = []
        for x_a in sorted(joint):
            idx = int(np.searchsorted(edges, x_a))
            if idx >= len(edges) or abs(edges[idx] - x_a) > 1e-13:
                raise BadArgumentError(f"atom at {x_a} is not a mesh edge")
            dq, dp = joint[x_a]
            self.atoms.append((idx, x_a, dq + 1j * dp, dq - 1j * dp))
        # lambda-free partial tensors for the moment recovery kernels
        self.m_rho0 = np.einsum("ibs,bsa->iba", self.w_rho, _PARTIAL_L)
        self.m_rho1 = np.einsum("ibs,ibs,bsa->iba", self.w_rho, self.tau, _PARTIAL_L)
        self.m_q0 = np.einsum("ibs,bsa->iba", self.w_q, _PARTIAL_L)
        self.m_p0 = np.einsum("ibs,bsa->iba", self.w_plain, _PARTIAL_L)
        self.m_p1 = np.einsum("ibs,ibs,bsa->iba", self.w_plain, self.tau, _PARTIAL_L)

    def refined(self) -> "_Geometry":
        """Split every cell in half; parent edges appear at even indices."""
        mids = 0.5 * (self.edges[:-1] + self.edges[1:])
        new_edges = np.empty(2 * self.n + 1)
        new_edges[0::2] = self.edges
        new_edges[1::2] = mids
        return _Geometry(self.p, self.q, new_edges)

    # -- generic prefix accumulation over this mesh ----------------------

    def prefix_dx(self, vals, weight=None):
        """Integrals of (weight * f) dx from 0 to every Gauss node and edge.

        vals holds f at the Gauss nodes, shape (n, 6); weight is None, "q"
        or "t".  Returns node integrals (n, 6) and edge integrals (n+1,).
        """
        if weight is None:
            gw, m = self.gw, self.m_p0
        elif weight == "q":
            gw, m = self.gw * self.qg, self.m_q0
        elif weight == "t":
            gw, m = self.gw * self.tg, self.m_p1
        else:
            raise ValueError(weight)
        cell = np.sum(gw * vals, axis=1)
        edge = np.concatenate([[0.0 + 0.0j], np.cumsum(cell)])
        node = edge[:-1, None] + np.einsum("iba,ia->ib", m, vals)
        return node, edge

    def prefix_dmu(self, vals, edge_vals, moment: int):
        """Same, against d(q + i p): density part plus interior atoms.

        moment 0 integrates f dmu; moment 1 integrates t f dmu.  Nodes in
        cell i pick up atoms at edges <= i; edge l includes an atom sitting
        exactly at edge l (right-continuous convention).
        """
        m = self.m_rho0 if moment == 0 else self.m_rho1
        gw = self.gw * self.rho_g if moment == 0 else self.gw * self.rho_g * self.tg
        cell = np.sum(gw * vals, axis=1)
        edge = np.concatenate([[0.0 + 0.0j], np.cumsum(cell)])
        node = edge[:-1, None] + np.einsum("iba,ia->ib", m, vals)
        for idx, x_a, d_mu, _ in self.atoms:
            contrib = d_mu * edge_vals[idx] * (x_a if moment else 1.0)
            node[idx:, :] += contrib
            edge[idx:] += contrib
        return node, edge


class Workspace:
    """Geometry cache for one coefficient pair, reusable across lambdas."""

    def __init__(self, p: Measure, q: Measure, extra_breakpoints=()):
        self.p = p
        self.q = q
        self.extra = tuple(sorted({float(b) for b in extra_breakpoints}))
        self._cache: dict[tuple[float, int, int], _Geometry] = {}

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
        key = (shift_c, n_uniform, level)
        if key not in self._cache:
            if level > 0:
                parent = self.geometry(shift_c, n_uniform, level - 1)
                self._cache[key] = parent.refined()
            else:
                p_eff = (
                    self.p if shift_c == 0.0
                    else self.p.plus(Measure.lebesgue(shift_c))
                )
                self._cache[key] = _Geometry(p_eff, self.q, self._base_edges(n_uniform))
        return self._cache[key]


# ---------------------------------------------------------------------------
# Picard engine


class _Engine:
    """One (geometry, lambda) pairing with the exponential channel tensors."""

    def __init__(self, geo: _Geometry, lam_eff: complex, cfg: SolverConfig):
        self.geo = geo
        self.lam = lam_eff
        self.cfg = cfg
        k = cube_root(lam_eff)
        if abs(k) > _K_CEILING:
            raise NumericalError(
                f"|lambda|^(1/3) = {abs(k):.3g} beyond the supported ceiling"
            )
        self.k = k
        iok = 1j * k * _OMEGA_POW
        self.e_node = np.exp(-np.multiply.outer(iok, geo.tg))  # (3, n, 6)
        self.u_node = np.exp(np.multiply.outer(iok, geo.tg))
        self.e_edge = np.exp(-np.multiply.outer(iok, geo.edges))
        self.u_edge = np.exp(np.multiply.outer(iok, geo.edges))
        e_sub = np.exp(-np.multiply.outer(iok, geo.tau))  # (3, n, 6, 8)
        self.m_q = np.einsum("ibs,jibs,bsa->jiba", geo.w_q, e_sub, _PARTIAL_L)
        self.m_rho = np.einsum("ibs,jibs,bsa->jiba", geo.w_rho, e_sub, _PARTIAL_L)
        # channel coefficients of the kernels y2(x-t) and y3(x-t)
        self.a2 = _OMEGA_NEG / (3j * k)
        self.a3 = -_OMEGA_POW / (3.0 * k * k)
        if geo.atoms:
            xs = np.array([a[1] for a in geo.atoms])
            self.atom_phase = np.exp(-np.multiply.outer(iok, xs))
        else:
            self.atom_phase = np.zeros((3, 0), dtype=complex)

    def _channel_prefix(self, vals, edge_vals):
        """Exponential-channel integrals feeding one Picard term.

        Returns integrals of exp(-i omega^j k t) f(t) against d(q+ip) and
        against q(t) dt, at nodes (3, n, 6) and edges (3, n+1).
        """
        geo = self.geo
        wq_vals = geo.gw * geo.qg * vals
        wrho_vals = geo.gw * geo.rho_g * vals
        cell_q = np.einsum("jia,ia->ji", self.e_node, wq_vals)
        cell_rho = np.einsum("jia,ia->ji", self.e_node, wrho_vals)
        zero = np.zeros((3, 1), dtype=complex)
        edge_q = np.concatenate([zero, np.cumsum(cell_q, axis=1)], axis=1)
        edge_rho = np.concatenate([zero, np.cumsum(cell_rho, axis=1)], axis=1)
        node_q = edge_q[:, :-1, None] + np.einsum("jiba,ia->jib", self.m_q, vals)
        node_rho = edge_rho[:, :-1, None] + np.einsum("jiba,ia->jib", self.m_rho, vals)
        for pos, (idx, _, d_mu, _) in enumerate(geo.atoms):
            contrib = self.atom_phase[:, pos] * (d_mu * edge_vals[idx])
            node_rho[:, idx:, :] += contrib[:, None, None]
            edge_rho[:, idx:] += contrib[:, None]
        return node_rho, edge_rho, node_q, edge_q

    def iterate(self, init: InitialTriple):
        """Accumulate the fixed-point iterates; returns y at nodes and edges."""
        geo, cfg = self.geo, self.cfg
        y1n, y2n, y3n = zero_potential_rows(self.lam, geo.tg.ravel())
        c_node = (init.y0 * y1n + init.z0 * y2n + init.w0 * y3n).reshape(geo.n, 6)
        y1e, y2e, y3e = zero_potential_rows(self.lam, geo.edges)
        c_edge = init.y0 * y1e + init.z0 * y2e + init.w0 * y3e
        y_node = c_node.copy()
        y_edge = c_edge.copy()
        if geo.p.is_zero and geo.q.is_zero:
            return y_node, y_edge, 0
        scale = max(1.0, float(np.max(np.abs(y_node))))
        budget = 3.0 * (
            2.0 * geo.q.total_variation()
            + geo.p.tv_function(1.0)
            + geo.q.tv_function(1.0)
        )
        term = math.inf
        m = 0
        for m in range(1, cfg.max_iter + 1):
            node_rho, edge_rho, node_q, edge_q = self._channel_prefix(c_node, c_edge)
            mix_n = (
                self.a3[:, None, None] * node_rho
                - 2.0 * self.a2[:, None, None] * node_q
            )
            c_node = np.sum(self.u_node * mix_n, axis=0)
            mix_e = self.a3[:, None] * edge_rho - 2.0 * self.a2[:, None] * edge_q
            c_edge = np.sum(self.u_edge * mix_e, axis=0)
            c_edge[0] = 0.0
            y_node += c_node
            y_edge += c_edge
            term = float(np.max(np.abs(c_node)))
            scale = max(scale, float(np.max(np.abs(y_node))), 1.0)
            ratio = budget / (m + 1.0)
            if ratio < 1.0 and term * ratio / (1.0 - ratio) < 0.5 * cfg.tol * scale:
                break
        else:
            raise ConvergenceError(
                f"Picard iteration did not converge in {cfg.max_iter} terms",
                residual=term / scale,
            )
        if not (np.all(np.isfinite(y_node)) and np.all(np.isfinite(y_edge))):
            raise NumericalError("solution overflowed or produced NaN")
        return y_node, y_edge, m

    def recover(self, init: InitialTriple, y_node, y_edge):
        """Derivative and w rows from the exact moment identities.

        With dnu = d(q + i p) - i lambda dt and integrals over (0, x]:
            y'(x) = z0 + w0 x - 2 int q y dt + int (x - t) y dnu,
            w(x)  = w0 - 2 q(x) y(x) + int y dnu.
        """
        geo = self.geo
        il = 1j * self.lam
        q0_n, q0_e = geo.prefix_dx(y_node, weight="q")
        p0_n, p0_e = geo.prefix_dx(y_node)
        p1_n, p1_e = geo.prefix_dx(y_node, weight="t")
        r0_n, r0_e = geo.prefix_dmu(y_node, y_edge, 0)
        r1_n, r1_e = geo.prefix_dmu(y_node, y_edge, 1)
        nu0_n = r0_n - il * p0_n
        nu0_e = r0_e - il * p0_e
        nu1_n = r1_n - il * p1_n
        nu1_e = r1_e - il * p1_e
        yp_node = init.z0 + init.w0 * geo.tg - 2.0 * q0_n + geo.tg * nu0_n - nu1_n
        yp_edge = (
            init.z0 + init.w0 * geo.edges - 2.0 * q0_e + geo.edges * nu0_e - nu1_e
        )
        w_node = init.w0 - 2.0 * geo.qg * y_node + nu0_n
        w_edge = init.w0 - 2.0 * geo.q_edge * y_edge + nu0_e
        return yp_node, yp_edge, w_node, w_edge


# ---------------------------------------------------------------------------
# solution paths


class SolutionPath:
    """State of one solve: nodes, values, one-sided w, jump records.

    nodes are the mesh edges; y and yprime are continuous, w_post carries the
    right-continuous value and w_pre the left limit (they differ only at
    atoms).  eval_y, eval_yprime and eval_w take a point or an array of
    points in [0, 1]; off-node points interpolate the internal Gauss values.
    """

    def __init__(self, lam, init, geo, y_node, y_edge, yp_node, yp_edge,
                 w_node, w_edge, n_terms, extra_jumps=()):
        self.lam = complex(lam)
        self.init = init
        self.nodes = geo.edges
        self.y = y_edge
        self.yprime = yp_edge
        self.w_post = w_edge
        deltas: dict[int, complex] = {}
        locs: dict[int, float] = {}
        for idx, x_a, _, d_conj in geo.atoms:
            deltas[idx] = deltas.get(idx, 0.0) - y_edge[idx] * d_conj
            locs[idx] = x_a
        for x_a, delta in extra_jumps:
            idx = int(np.searchsorted(geo.edges, x_a))
            deltas[idx] = deltas.get(idx, 0.0) + delta
            locs[idx] = x_a
        w_pre = w_edge.copy()
        jumps = []
        for idx, delta in sorted(deltas.items()):
            w_pre[idx] = w_edge[idx] - delta
            jumps.append((locs[idx], complex(delta)))
        self.w_pre = w_pre
        self.jumps = jumps
        self.n_terms = n_terms
        self._y_node = y_node
        self._yp_node = yp_node
        self._w_node = w_node

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
        xs = np.asarray(x, dtype=float)
        inside = (xs >= 0.0) & (xs <= 1.0)
        if not np.all(inside):
            bad = xs[~inside].flat[0] if xs.ndim else xs
            raise BadArgumentError(f"evaluation point {bad} outside [0, 1]")
        out = self._values(channel, xs.ravel(), side).reshape(xs.shape)
        return complex(out) if xs.ndim == 0 else out

    def _values(self, channel: int, xs: np.ndarray, side: str) -> np.ndarray:
        """Edge values at mesh edges, interpolated Gauss values elsewhere."""
        edge_vals = (self.y, self.yprime,
                     self.w_post if side == "right" else self.w_pre)[channel]
        node_vals = (self._y_node, self._yp_node, self._w_node)[channel]
        j = np.searchsorted(self.nodes, xs)  # nodes end at 1.0: j stays in range
        on_edge = self.nodes[j] == xs
        out = np.empty(len(xs), dtype=complex)
        out[on_edge] = edge_vals[j[on_edge]]
        off = ~on_edge
        out[off] = _interp(node_vals, self.nodes, xs[off], j[off] - 1)
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


def _effective(lam: complex) -> tuple[complex, float]:
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise BadArgumentError("lambda must be finite")
    if abs(lam) < _SHIFT_MIN:
        return lam + 1.0, 1.0
    return lam, 0.0


def _n_uniform(cfg: SolverConfig, k: complex) -> int:
    n = cfg.mesh_size
    while n * _KH_MAX < abs(k):
        n *= 2
    return n


def _iterate_on_level(ws: Workspace, lam: complex, inits, cfg: SolverConfig,
                      level: int):
    """Run the engine once per initial triple on the given refinement level."""
    lam_eff, shift_c = _effective(lam)
    n_uni = _n_uniform(cfg, cube_root(lam_eff))
    geo = ws.geometry(shift_c, n_uni, level)
    eng = _Engine(geo, lam_eff, cfg)
    return eng, [eng.iterate(t) for t in inits]


def _solve_verified(ws: Workspace, lam: complex, inits, cfg: SolverConfig):
    """Solve on doubling meshes until two resolutions agree at shared edges."""
    prev_edges = None
    gap = math.inf
    for level in range(_MAX_DOUBLINGS):
        eng, results = _iterate_on_level(ws, lam, inits, cfg, level)
        edges = [r[1] for r in results]
        if prev_edges is not None:
            gap = 0.0
            for fine, coarse in zip(edges, prev_edges):
                scale = max(1.0, float(np.max(np.abs(fine))))
                gap = max(gap, float(np.max(np.abs(fine[::2] - coarse))) / scale)
            if gap <= 10.0 * cfg.tol:
                return eng, results
        prev_edges = edges
    raise MeshRefinementError(
        "mesh doubling failed to stabilize the solution",
        doublings=_MAX_DOUBLINGS - 1, gap=gap,
    )


def _assemble_path(eng: _Engine, lam: complex, init: InitialTriple, result):
    y_node, y_edge, n_terms = result
    yp_node, yp_edge, w_node, w_edge = eng.recover(init, y_node, y_edge)
    return SolutionPath(lam, init, eng.geo, y_node, y_edge, yp_node, yp_edge,
                        w_node, w_edge, n_terms)


def solve_picard(p: Measure, q: Measure, lam: complex, init: InitialTriple,
                 cfg: SolverConfig | None = None,
                 workspace: Workspace | None = None) -> SolutionPath:
    """Fixed-point solve; the mesh is doubled until two resolutions agree."""
    cfg = cfg or SolverConfig()
    if not isinstance(init, InitialTriple):
        init = InitialTriple(*init)
    ws = workspace if workspace is not None else Workspace(p, q)
    eng, results = _solve_verified(ws, lam, [init], cfg)
    return _assemble_path(eng, lam, init, results[0])


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
    if not isinstance(init, InitialTriple):
        init = InitialTriple(*init)
    ws = workspace if workspace is not None else Workspace(p, q)
    if verify:
        _, results = _solve_verified(ws, lam, [init], cfg)
    else:
        _, results = _iterate_on_level(ws, lam, [init], cfg, 0)
    return complex(results[0][1][-1])


# ---------------------------------------------------------------------------
# transfer solver for purely atomic coefficients


def _propagator(q_c: float, lam: complex, s: float) -> np.ndarray:
    """exp(s A) for A = [[0,1,0],[0,0,1],[-i lam, -2 q_c, 0]]."""
    A = np.array([[0, 1, 0], [0, 0, 1], [-1j * lam, -2.0 * q_c, 0]], dtype=complex)
    roots = np.roots([1.0, 0.0, 2.0 * q_c, 1j * lam])
    for _ in range(3):  # Newton polish of np.roots output
        f = roots**3 + 2.0 * q_c * roots + 1j * lam
        fp = 3.0 * roots**2 + 2.0 * q_c
        safe = np.abs(fp) > 1e-30
        roots[safe] = roots[safe] - f[safe] / fp[safe]
    scale = max(1.0, float(np.max(np.abs(roots))))
    dists = [abs(roots[0] - roots[1]), abs(roots[0] - roots[2]),
             abs(roots[1] - roots[2])]
    dmin, dmax = min(dists), max(dists)
    eye = np.eye(3, dtype=complex)
    if dmin >= _CROWDED * scale:
        out = np.zeros((3, 3), dtype=complex)
        for j in range(3):
            term = eye * cmath.exp(roots[j] * s)
            for l in range(3):
                if l != j:
                    term = term @ (A - roots[l] * eye) / (roots[j] - roots[l])
            out += term
        return out
    if dmin >= 1e-6 * scale:
        return _expm_taylor(s * A)
    if dmin >= 1e-12 * scale:
        raise DegeneracyError(
            "characteristic roots too close to classify",
            separation=dmin / scale,
        )
    if dmax < 1e-12 * scale:  # triple root
        r = roots.mean()
        B = A - r * eye
        return cmath.exp(r * s) * (eye + s * B + 0.5 * s * s * (B @ B))
    # double root: average the repeated pair, keep the separate one exact
    pair = min(((d, i) for i, d in enumerate(dists)))[1]
    order = [(0, 1, 2), (0, 2, 1), (1, 2, 0)][pair]
    r = 0.5 * (roots[order[0]] + roots[order[1]])
    r3 = roots[order[2]]
    f_r = cmath.exp(r * s)
    fp_r = s * f_r
    c2 = (cmath.exp(r3 * s) - f_r - fp_r * (r3 - r)) / ((r3 - r) ** 2)
    B = A - r * eye
    return f_r * eye + fp_r * B + c2 * (B @ B)


def _expm_taylor(m: np.ndarray) -> np.ndarray:
    """exp(m) for a small matrix by Taylor series with scaling and squaring."""
    norm = float(np.max(np.sum(np.abs(m), axis=1)))
    halvings = max(0, math.ceil(math.log2(4.0 * norm)))
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

    Holds the post-jump state at each segment start (0 and every interior
    atom) and propagates from the nearest start to any point; the edge
    arrays sample a uniform 129-point grid joined with the atoms.  It has
    no mesh, so it fills the public attributes itself instead of calling
    the mesh constructor.
    """

    def __init__(self, p: Measure, q: Measure, lam: complex,
                 init: InitialTriple):
        self.lam = complex(lam)
        self.init = init
        self.n_terms = 0
        self._q = q
        atom_xs = sorted(
            {a.x for a in p.atoms if a.x > 0} | {a.x for a in q.atoms if a.x > 0}
        )
        self._starts = np.array([0.0] + atom_xs)
        self._states = []
        state = init.as_vector()
        for i, start in enumerate(self._starts):
            if i > 0:
                d_conj = q.atom_weight(start) - 1j * p.atom_weight(start)
                state = state.copy()
                state[2] -= state[0] * d_conj
            self._states.append(state)
            end = self._starts[i + 1] if i + 1 < len(self._starts) else 1.0
            if end > start:
                q_c = q.drift(0.5 * (start + end))
                state = _propagator(q_c, self.lam, end - start) @ state
        self.nodes = np.array(sorted(set(np.linspace(0.0, 1.0, 129)) | set(atom_xs)))
        post = np.array([self._state(float(x), "right") for x in self.nodes])
        self.y, self.yprime, self.w_post = post.T.copy()
        self.w_pre = self.w_post.copy()
        self.jumps = []
        for i, x in enumerate(self.nodes):
            if x in atom_xs:
                self.w_pre[i] = self._state(float(x), "left")[2]
                self.jumps.append((float(x), complex(self.w_post[i] - self.w_pre[i])))

    def _state(self, x: float, side: str) -> np.ndarray:
        i = int(np.searchsorted(self._starts, x, side="right")) - 1
        if side == "left" and i > 0 and self._starts[i] == x:
            i -= 1
        start = self._starts[i]
        if x == start:
            return self._states[i]
        q_c = self._q.drift(0.5 * (start + x))
        return _propagator(q_c, self.lam, x - start) @ self._states[i]

    def _values(self, channel: int, xs: np.ndarray, side: str) -> np.ndarray:
        return np.array([self._state(float(x), side)[channel] for x in xs],
                        dtype=complex)


def solve_transfer(p: Measure, q: Measure, lam: complex,
                   init: InitialTriple) -> TransferPath:
    """Exact segment-by-segment propagation for purely atomic (p, q)."""
    if not (p.is_atomic and q.is_atomic):
        raise UnsupportedMeasureError(
            "transfer solver needs purely atomic coefficients"
        )
    lam = complex(lam)
    if not (math.isfinite(lam.real) and math.isfinite(lam.imag)):
        raise BadArgumentError("lambda must be finite")
    if not isinstance(init, InitialTriple):
        init = InitialTriple(*init)
    return TransferPath(p, q, lam, init)


# ---------------------------------------------------------------------------
# fundamental matrix and inhomogeneous solve


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
        ws = workspace if workspace is not None else Workspace(p, q)
        self.lam = complex(lam)
        self.cfg = cfg
        eng, results = _solve_verified(ws, lam, _CANONICAL, cfg)
        self.columns = [
            _assemble_path(eng, lam, t, r) for t, r in zip(_CANONICAL, results)
        ]
        self._geo = eng.geo

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
    fp = FundamentalPath(p, q, lam, cfg)
    fp.check_det(x)
    return FundamentalMatrix(x=float(x), lam=complex(lam), entries=fp.matrix(x))


def _adjugate_column3(y_rows, yp_rows):
    """Third column of N^{-1} from the continuous rows of N.

    y_rows, yp_rows: arrays (..., 3) of (y_j, y_j') values.  det N = 1, so
    the inverse is the adjugate, and column 3 needs only rows 1 and 2.
    """
    y1, y2, y3 = (y_rows[..., j] for j in range(3))
    z1, z2, z3 = (yp_rows[..., j] for j in range(3))
    return np.stack(
        [y2 * z3 - y3 * z2, y3 * z1 - y1 * z3, y1 * z2 - y2 * z1], axis=-1
    )


def solve_inhomogeneous(p: Measure, q: Measure, lam: complex,
                        init: InitialTriple, h, nu: Measure,
                        cfg: SolverConfig | None = None) -> SolutionPath:
    """Variation of constants: N(x) (init + int_[0,x] N^{-1} (0,0,h)^T dnu).

    The forcing integral runs over the closed interval, so an atom of nu at 0
    offsets the state immediately.  w jumps by h(a) nu{a} at atoms of nu and
    by the usual -y(a) (dq{a} - i dp{a}) at atoms of the coefficients.
    """
    cfg = cfg or SolverConfig()
    if not isinstance(init, InitialTriple):
        init = InitialTriple(*init)
    ws = Workspace(p, q, extra_breakpoints=nu.breakpoints())
    fp = FundamentalPath(p, q, lam, cfg, ws)
    geo = fp._geo
    tg, edges = geo.tg, geo.edges
    y_rows_n = np.stack([c._y_node for c in fp.columns], axis=-1)
    yp_rows_n = np.stack([c._yp_node for c in fp.columns], axis=-1)
    w_rows_n = np.stack([c._w_node for c in fp.columns], axis=-1)
    y_rows_e = np.stack([c.y for c in fp.columns], axis=-1)
    yp_rows_e = np.stack([c.yprime for c in fp.columns], axis=-1)
    w_rows_e = np.stack([c.w_post for c in fp.columns], axis=-1)

    h_node = np.asarray([h(float(t)) for t in tg.ravel()], dtype=complex)
    h_node = h_node.reshape(tg.shape)
    h_edge = np.asarray([h(float(x)) for x in edges], dtype=complex)
    g_node = _adjugate_column3(y_rows_n, yp_rows_n) * h_node[..., None]
    g_edge = _adjugate_column3(y_rows_e, yp_rows_e) * h_edge[..., None]

    rho_nu = nu.density_many(tg.ravel()).reshape(tg.shape)
    tau_rho = nu.density_many(geo.tau.reshape(-1)).reshape(geo.tau.shape)
    m_nu = np.einsum("ibs,ibs,bsa->iba", geo.w_plain, tau_rho, _PARTIAL_L)
    j_node = np.empty(tg.shape + (3,), dtype=complex)
    j_edge = np.empty((len(edges), 3), dtype=complex)
    for comp in range(3):
        vals = g_node[..., comp]
        cell = np.sum(geo.gw * rho_nu * vals, axis=1)
        edge = np.concatenate([[0.0 + 0.0j], np.cumsum(cell)])
        j_node[..., comp] = edge[:-1, None] + np.einsum("iba,ia->ib", m_nu, vals)
        j_edge[:, comp] = edge
    extra_jumps = []
    for a in nu.atoms:
        idx = int(np.searchsorted(edges, a.x))
        if idx >= len(edges) or abs(edges[idx] - a.x) > 1e-13:
            raise BadArgumentError(f"forcing atom at {a.x} is not a mesh edge")
        contrib = a.w * g_edge[idx]
        if a.x > 0:
            j_node[idx:] += contrib
            j_edge[idx:] += contrib
            extra_jumps.append((a.x, a.w * complex(h_edge[idx])))
        else:
            j_node += contrib
            j_edge += contrib

    vec = init.as_vector()
    y_node = np.einsum("iaj,iaj->ia", y_rows_n, vec + j_node)
    yp_node = np.einsum("iaj,iaj->ia", yp_rows_n, vec + j_node)
    w_node = np.einsum("iaj,iaj->ia", w_rows_n, vec + j_node)
    y_edge = np.einsum("ej,ej->e", y_rows_e, vec + j_edge)
    yp_edge = np.einsum("ej,ej->e", yp_rows_e, vec + j_edge)
    w_edge = np.einsum("ej,ej->e", w_rows_e, vec + j_edge)
    return SolutionPath(lam, init, geo, y_node, y_edge, yp_node, yp_edge,
                        w_node, w_edge, max(c.n_terms for c in fp.columns),
                        extra_jumps=extra_jumps)
