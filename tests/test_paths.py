"""The solution-path contract shared by every solver.

A path stores the channels (y, y', w) stacked: edge (3, n+1) at the mesh
edges and node (3, n, 6) at the Gauss nodes.  Evaluation hands back exactly
what is stored wherever something is stored, and an eigenfunction is the
plain linear combination of its two canonical columns.
"""

import numpy as np
import pytest

from stieltjes_spec import ivp, spectrum
from stieltjes_spec.charfn import _E1, _E2
from stieltjes_spec.ivp import (
    FundamentalPath,
    SolverConfig,
    Workspace,
    solve_picard,
    solve_transfer,
)
from stieltjes_spec.measure import Measure
from stieltjes_spec.spectrum import find_eigenvalue

P = Measure.point(0.4, 0.3)
Q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
MESH_PATHS = ("picard", "column0", "column1", "column2", "eigenfunction")
CHANNELS = ("eval_y", "eval_yprime", "eval_w")


@pytest.fixture(scope="module")
def pair():
    return find_eigenvalue(P, Q, 1, 2)


@pytest.fixture(scope="module")
def paths(pair):
    out = {"picard": solve_picard(P, Q, 64.0, (1.0, 0.3, -0.2))}
    for j, col in enumerate(FundamentalPath(P, Q, 300 - 40j).columns):
        out[f"column{j}"] = col
    out["eigenfunction"] = pair.E
    out["transfer"] = solve_transfer(P, Measure.point(0.5, 0.7), 64.0,
                                     (1.0, 0.3, -0.2))
    return out


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and got.tobytes() == want.tobytes())


def _gauss_points(edges):
    """The Gauss nodes of every cell, placed as the mesh geometry places them."""
    h = np.diff(edges)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return centers[:, None] + 0.5 * h[:, None] * ivp._G6_NODES[None, :]


@pytest.mark.parametrize("name", MESH_PATHS + ("transfer",))
def test_edges_return_the_stacked_edge_rows(paths, name):
    path = paths[name]
    assert path.edge.shape == (3, len(path.nodes))
    for c, (row, channel) in enumerate(zip((path.y, path.yprime, path.w_post),
                                           CHANNELS)):
        assert np.shares_memory(row, path.edge)
        assert _same_bits(row, path.edge[c])
        assert _same_bits(getattr(path, channel)(path.nodes), path.edge[c])
    assert _same_bits(path.eval_w(path.nodes, "left"), path.w_pre)
    # the left limit leaves w only at the recorded jumps, by their size
    at = np.searchsorted(path.nodes, [x for x, _ in path.jumps])
    elsewhere = np.setdiff1d(np.arange(len(path.nodes)), at)
    assert _same_bits(path.w_pre[elsewhere], path.w_post[elsewhere])
    for i, (_, size) in zip(at, path.jumps):
        assert abs(path.w_post[i] - path.w_pre[i] - size) <= 1e-12 * max(1.0, abs(size))


@pytest.mark.parametrize("name", MESH_PATHS)
def test_gauss_nodes_return_the_stacked_node_rows(paths, name):
    path = paths[name]
    tg = _gauss_points(path.nodes)
    assert path.node.shape == (3,) + tg.shape
    for c, channel in enumerate(CHANNELS):
        assert _same_bits(getattr(path, channel)(tg), path.node[c])
    assert _same_bits(path.eval_w(tg, "left"), path.node[2])


def _assert_combination(path, cols, a, b):
    """Stored values of path are a col0 + b col1, bit for bit."""
    for pts in (path.nodes, _gauss_points(path.nodes)):
        for channel in CHANNELS:
            want = (a * getattr(cols[0], channel)(pts)
                    + b * getattr(cols[1], channel)(pts))
            assert _same_bits(getattr(path, channel)(pts), want)


def test_combine_is_the_linear_combination_of_its_columns():
    lam = 300 - 40j
    geo, cols = ivp._solve_columns(Workspace(P, Q), lam, (_E1, _E2),
                                   SolverConfig())
    a, b = 0.3 - 1.2j, -0.7 + 0.1j
    _assert_combination(spectrum._combine(geo, lam, cols, (a, b)), cols, a, b)


def test_eigenfunction_is_its_coefficients_times_the_columns(pair):
    _, cols = ivp._solve_columns(Workspace(P, Q), complex(pair.lam),
                                 (_E1, _E2), SolverConfig())
    _assert_combination(pair.E, cols, pair.a, pair.b)
