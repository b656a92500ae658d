import math

import numpy as np
import pytest

from stieltjes_spec import charfn
from stieltjes_spec.errors import BadArgumentError, ConjugateMismatchError
from stieltjes_spec.measure import Measure
from stieltjes_spec import ivp
from stieltjes_spec.charfn import RealSplit, boundary_matrix, delta, real_split
from stieltjes_spec.ivp import (
    InitialTriple,
    SolverConfig,
    Workspace,
    solve_picard,
    solve_value,
    xi_bound,
)
from stieltjes_spec.spectrum import eigenfunction


def closed_form_split(k):
    # p = q = 0, real k: exponential-sum reduction of y1(1, k^3)
    y1 = (4.0 * math.cos(k / 2)
          * (math.cosh(math.sqrt(3) * k / 4) ** 2 - math.sin(k / 4) ** 2) - 1.0) / 3.0
    z1 = -(4.0 / 3.0) * math.sin(k / 2) * (
        math.sinh(math.sqrt(3) * k / 4) ** 2 + math.sin(k / 4) ** 2)
    return y1, z1


ZERO = Measure.zero()


def test_real_split_closed_form_zero_potential():
    for k in (0.7, 1.3, math.pi, 4.0, 2 * math.pi, 9.1):
        got = real_split(ZERO, ZERO, k**3)
        y1, z1 = closed_form_split(k)
        scale = max(1.0, abs(y1), abs(z1))
        assert abs(got.Y1 - y1) <= 1e-11 * scale
        assert abs(got.Z1 - z1) <= 1e-11 * scale
        assert got.residue < 1e-10


# 40-digit reference values of y1(1, k^3) at lattice points
def test_real_split_frozen_lattice_values():
    got = real_split(ZERO, ZERO, (2 * math.pi) ** 3)
    assert abs(got.Y1 - (-76.5896405798852875)) < 1e-10 * 76.6
    assert abs(got.Z1) < 1e-10 * 76.6
    got3 = real_split(ZERO, ZERO, (3 * math.pi) ** 3)
    assert abs(got3.Y1 - (-1.0 / 3.0)) < 1e-10 * 1168.5
    assert abs(got3.Z1 - 1168.51025688355916) < 1e-10 * 1168.5


def test_first_pairing_roots_sit_on_even_lattice():
    # Z1 vanishes exactly at k = 2 n pi
    for n in (1, 2, 3):
        k = 2 * n * math.pi
        got = real_split(ZERO, ZERO, k**3)
        assert abs(got.Z1) <= 1e-10 * xi_bound(1.0, k**3)


def test_second_pairing_offset_value():
    # at k = pi the second pairing determinant is -2/3, not zero: the
    # odd lattice only pins these roots asymptotically
    got = real_split(ZERO, ZERO, math.pi**3)
    assert abs(got.Y1 + 1.0 / 3.0) < 1e-9
    d = delta(ZERO, ZERO, math.pi**3, 2)
    assert abs(d - (-2.0 / 3.0)) < 1e-9


def test_delta_at_lambda_zero():
    assert abs(delta(ZERO, ZERO, 0.0, 1)) < 1e-11
    assert abs(delta(ZERO, ZERO, 0.0, 2) - 2.0) < 1e-11


def test_delta_matches_real_split_on_real_axis():
    p = Measure.point(0.3, 0.4).plus(Measure.from_density(0.1, 0.6, (0.5, -0.2)))
    q = Measure.point(0.7, -0.6)
    ws = Workspace(p, q)
    for lam in (7.0, -40.0, 150.0):
        rs = real_split(p, q, lam, workspace=ws)
        d1 = delta(p, q, lam, 1, workspace=ws)
        d2 = delta(p, q, lam, 2, workspace=ws)
        scale = max(1.0, abs(rs.Y1), abs(rs.Z1))
        assert abs(d1 - (-2j * rs.Z1)) <= 1e-8 * scale
        assert abs(d2 - 2.0 * rs.Y1) <= 1e-8 * scale


def test_delta_conjugation_symmetry():
    # reflections across the real axis: symmetric for xi=2, antisymmetric
    # for xi=1 (which is why Delta_1 is purely imaginary on the real axis)
    p = Measure.from_density(0.2, 0.8, (0.3, 0.1))
    q = Measure.point(0.5, 0.9)
    ws = Workspace(p, q)
    lam = 45.0 + 17.0j
    d1 = delta(p, q, lam, 1, workspace=ws)
    d1c = delta(p, q, lam.conjugate(), 1, workspace=ws)
    d2 = delta(p, q, lam, 2, workspace=ws)
    d2c = delta(p, q, lam.conjugate(), 2, workspace=ws)
    assert abs(d1c + d1.conjugate()) <= 1e-8 * max(1.0, abs(d1))
    assert abs(d2c - d2.conjugate()) <= 1e-8 * max(1.0, abs(d2))


def test_delta_refuses_routes_that_disagree(monkeypatch):
    # the one-solve route pushed 1e-6 relative off the determinant route
    one_solve = charfn._one_solve
    monkeypatch.setattr(charfn, "_one_solve",
                        lambda *args: one_solve(*args) * (1.0 + 1e-6))
    p = Measure.from_density(0.2, 0.8, (0.3, 0.1))
    q = Measure.point(0.5, 0.9)
    with pytest.raises(ConjugateMismatchError) as err:
        delta(p, q, 45.0 + 17.0j, 1)
    assert err.value.exit_code == 4
    context = err.value.context
    assert {"det_route", "one_solve_route", "gap"} <= set(context)
    assert context["gap"] == abs(context["det_route"] - context["one_solve_route"])


def test_boundary_matrix_entries_are_canonical_columns():
    q = Measure.from_density(0.25, 0.75, (1.2,))
    lam = 33.0
    m = boundary_matrix(ZERO, q, lam, 2)
    c1 = solve_picard(ZERO, q, lam, InitialTriple(1, 0, 0))
    c2 = solve_picard(ZERO, q, lam, InitialTriple(0, 1, 0))
    assert abs(m[0, 0] - c1.y_at_one) < 1e-12 * max(1, abs(m[0, 0]))
    assert abs(m[0, 1] - c2.y_at_one) < 1e-12 * max(1, abs(m[0, 1]))
    assert abs(m[1, 0] - c1.yprime_at_one) < 1e-11 * max(1, abs(m[1, 0]))
    assert abs(m[1, 1] - (c2.yprime_at_one + 1.0)) < 1e-11 * max(1, abs(m[1, 1]))
    m1 = boundary_matrix(ZERO, q, lam, 1)
    assert abs((m[1, 1] - m1[1, 1]) - 2.0) < 1e-12


def test_residue_stays_small_for_random_real_problems():
    rng = np.random.default_rng(29)
    for _ in range(4):
        q = Measure.point(rng.uniform(0.2, 0.8), rng.uniform(-1, 1))
        p = Measure.from_density(0.1, 0.9, tuple(rng.uniform(-0.8, 0.8, 2)))
        lam = rng.uniform(-200, 200)
        rs = real_split(p, q, lam)
        assert isinstance(rs, RealSplit)
        assert rs.residue < 1e-10


def test_validation():
    with pytest.raises(BadArgumentError):
        real_split(ZERO, ZERO, 1.0 + 1e-12j)
    with pytest.raises(BadArgumentError):
        delta(ZERO, ZERO, 1.0, 3)
    with pytest.raises(BadArgumentError):
        delta(ZERO, ZERO, float("inf"), 1)
    with pytest.raises(BadArgumentError):
        boundary_matrix(ZERO, ZERO, 1.0, 0)


E1 = InitialTriple(1, 0, 0)
MIRROR_PAIRS = {
    "zero": (ZERO, ZERO),
    "atomic": (Measure.point(0.4, 0.3), Measure.point(0.5, 0.7)),
    "roadmap": (Measure.point(0.4, 0.3),
                Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))),
}


@pytest.mark.parametrize("name,lam", [
    ("zero", 500.0), ("zero", 0.015),
    ("atomic", 300.0), ("atomic", -4e4), ("atomic", -0.02), ("atomic", 0.0),
    ("roadmap", 64.0), ("roadmap", -2e5), ("roadmap", 0.01), ("roadmap", -0.015),
])
def test_mirror_solve_shares_the_direct_mesh_bit_for_bit(name, lam, monkeypatch):
    """The conjugation residue is the one a fresh (-p, q) solve gives.

    real_split and eigenfunction compare y1(1, lambda) with one solve of
    the conjugated problem; it runs on the direct pair's meshes, building
    no geometry and caching nothing.  Below _SHIFT_MIN those meshes are of
    (p + dx, q), and the mirror is the fresh solve of (-p - dx, q) at
    -lambda - 1; the zero pair takes its closed form at every lambda.
    """
    p, q = MIRROR_PAIRS[name]
    if abs(lam) < ivp._SHIFT_MIN and not p.is_zero:
        mirror = solve_value(p.plus(Measure.lebesgue(1.0)).scaled(-1.0), q,
                             -lam - 1.0, E1, SolverConfig())
    else:
        mirror = solve_value(p.scaled(-1.0), q, -lam, E1, SolverConfig())

    def residue(v1):
        return abs(v1 - mirror.conjugate()) / max(1.0, abs(v1))

    split = real_split(p, q, lam, workspace=Workspace(p, q))
    assert split.residue == residue(complex(split.Y1, split.Z1))
    pair = eigenfunction(p, q, 1, lam, workspace=Workspace(p, q))
    assert pair.realness_residue == residue(boundary_matrix(p, q, lam, 1)[0, 0])

    builds = []
    build = ivp._Geometry.__init__

    def counted(geo, *args, **kwargs):
        builds.append(args)
        build(geo, *args, **kwargs)

    monkeypatch.setattr(ivp._Geometry, "__init__", counted)
    ws = Workspace(p, q)
    solve_value(p, q, lam, E1, workspace=ws)
    cached = len(ws._cache)
    builds.clear()
    assert real_split(p, q, lam, workspace=ws) == split
    assert not builds
    assert len(ws._cache) == cached
