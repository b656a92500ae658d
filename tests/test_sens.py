"""Sensitivity formulas cross-checked against centered finite differences."""

import dataclasses
import math

import numpy as np
import pytest

from stieltjes_spec.errors import BadArgumentError, UnsupportedMultiplicityError
from stieltjes_spec.ivp import FundamentalPath, SolverConfig, Workspace
from stieltjes_spec.measure import Measure, ramp_sequence
from stieltjes_spec.sens import (
    eigenvalue_gradient_p,
    eigenvalue_gradient_q,
    fd_check,
    fundamental_fd_check,
    fundamental_gradient_p,
    fundamental_gradient_q,
)
from stieltjes_spec.spectrum import find_eigenvalue

P_ATOM = Measure.point(0.4, 0.3)
Q_ATOM = Measure.point(0.5, 0.7)

# fd rows should sit far below this; the formulas and the tracked roots are
# both good to ~1e-9 relative, so 1e-6 leaves real headroom without being
# loose enough to hide a wrong term
FD_RTOL = 1e-6

_PAIRS = {}


def _pair(xi, n):
    key = (xi, n)
    if key not in _PAIRS:
        _PAIRS[key] = find_eigenvalue(P_ATOM, Q_ATOM, xi, n)
    return _PAIRS[key]


def _rel_rows(rows):
    return [r.abs_error / max(1.0, abs(r.formula_value)) for r in rows]


def test_lebesgue_direction_has_unit_slope():
    # adding c to p rigidly translates the eigenvalue by c, so the
    # derivative along Lebesgue must be exactly 1
    leb = Measure.lebesgue(1.0)
    assert abs(eigenvalue_gradient_p(_pair(1, 1), leb) - 1.0) < 1e-9
    assert abs(eigenvalue_gradient_p(_pair(2, 0), leb) - 1.0) < 1e-9


def test_p_channel_matches_fd():
    rows = fd_check(P_ATOM, Q_ATOM, 1, 1, Measure.point(0.25, 1.0),
                    channel="p", epsilons=(1e-2, 1e-4))
    assert all(r < FD_RTOL for r in _rel_rows(rows))
    assert rows[0].epsilon == 1e-2 and rows[1].epsilon == 1e-4


def test_p_channel_ramp_direction():
    rows = fd_check(P_ATOM, Q_ATOM, 1, 1, ramp_sequence(10),
                    channel="p", epsilons=(1e-3,))
    assert _rel_rows(rows)[0] < FD_RTOL
    assert rows[0].formula_value > 0.0


def test_q_channel_matches_fd():
    rows = fd_check(P_ATOM, Q_ATOM, 2, 0, Measure.lebesgue(1.0),
                    channel="q", epsilons=(1e-2, 1e-4))
    assert all(r < FD_RTOL for r in _rel_rows(rows))
    # moving mass into q drags this eigenvalue downward
    assert rows[0].formula_value < 0.0


def test_q_channel_atom_direction():
    rows = fd_check(P_ATOM, Q_ATOM, 2, 0, Measure.point(0.25, 1.0),
                    channel="q", epsilons=(1e-3,))
    assert _rel_rows(rows)[0] < FD_RTOL


def test_zero_atom_is_inert_in_p():
    nu0 = Measure.point(0.0, 2.0)
    assert eigenvalue_gradient_p(_pair(1, 1), nu0) == 0.0
    grad = fundamental_gradient_p(P_ATOM, Q_ATOM, 37.0, nu0)
    assert np.max(np.abs(grad)) == 0.0
    fd, formula, err = fundamental_fd_check(P_ATOM, Q_ATOM, 37.0, nu0,
                                            channel="p", epsilon=1e-3)
    assert np.max(np.abs(fd)) == 0.0
    assert err == 0.0


def test_zero_atom_is_inert_in_q():
    # the dynamics integrate over a right-open window, so an origin mass in
    # q reaches neither the jump nor the drift; the direction is flat
    nu0 = Measure.point(0.0, 1.0)
    assert eigenvalue_gradient_q(_pair(1, 1), nu0) == 0.0
    rows = fd_check(P_ATOM, Q_ATOM, 1, 1, nu0, channel="q",
                    epsilons=(1e-3,))
    assert rows[0].formula_value == 0.0
    assert abs(rows[0].fd_value) < 1e-9
    grad = fundamental_gradient_q(P_ATOM, Q_ATOM, 37.0, nu0)
    assert np.max(np.abs(grad)) == 0.0


def test_fundamental_p_matches_fd():
    fd, formula, err = fundamental_fd_check(
        P_ATOM, Q_ATOM, 37.0, ramp_sequence(10), channel="p")
    scale = max(1.0, float(np.max(np.abs(formula))))
    assert err < FD_RTOL * scale
    assert np.max(np.abs(formula)) > 1e-3


def test_fundamental_q_matches_fd():
    fd, formula, err = fundamental_fd_check(
        P_ATOM, Q_ATOM, 37.0, ramp_sequence(10), channel="q")
    scale = max(1.0, float(np.max(np.abs(formula))))
    assert err < FD_RTOL * scale
    assert np.max(np.abs(formula)) > 1e-3


def test_fundamental_gradient_at_interior_point():
    nu = Measure.point(0.25, 0.8)
    fd, formula, err = fundamental_fd_check(P_ATOM, Q_ATOM, 11.0, nu,
                                            channel="p", x=0.5)
    scale = max(1.0, float(np.max(np.abs(formula))))
    assert err < FD_RTOL * scale
    # an atom past the evaluation point cannot influence N there
    beyond = fundamental_gradient_p(P_ATOM, Q_ATOM, 11.0,
                                    Measure.point(0.75, 1.0), x=0.5)
    assert np.max(np.abs(beyond)) == 0.0


def test_fundamental_p_lebesgue_is_minus_lambda_slope():
    lam = 37.0
    h = 1e-5
    grad = fundamental_gradient_p(P_ATOM, Q_ATOM, lam, Measure.lebesgue(1.0))
    hi = FundamentalPath(P_ATOM, Q_ATOM, lam + h).matrix(1.0)
    lo = FundamentalPath(P_ATOM, Q_ATOM, lam - h).matrix(1.0)
    slope = (hi - lo) / (2.0 * h)
    assert np.max(np.abs(grad + slope)) < 1e-7


def test_channel_and_epsilon_validation():
    with pytest.raises(BadArgumentError):
        fd_check(P_ATOM, Q_ATOM, 1, 1, Measure.lebesgue(1.0), channel="z")
    with pytest.raises(BadArgumentError):
        fd_check(P_ATOM, Q_ATOM, 1, 1, Measure.lebesgue(1.0),
                 epsilons=(-1e-3,))
    with pytest.raises(BadArgumentError):
        fundamental_fd_check(P_ATOM, Q_ATOM, 37.0, Measure.lebesgue(1.0),
                             epsilon=0.0)
    with pytest.raises(BadArgumentError):
        fundamental_gradient_q(P_ATOM, Q_ATOM, 37.0, Measure.lebesgue(1.0),
                               x=1.5)


def test_bad_steps_are_refused_before_any_solve(monkeypatch):
    calls = []
    geometry = Workspace.geometry

    def counted(ws, *args):
        calls.append(args)
        return geometry(ws, *args)

    monkeypatch.setattr(Workspace, "geometry", counted)
    leb = Measure.lebesgue(1.0)
    for step in (math.nan, math.inf):
        with pytest.raises(BadArgumentError, match="finite difference steps"):
            fd_check(P_ATOM, Q_ATOM, 1, 1, leb, epsilons=(1e-3, step))
        with pytest.raises(BadArgumentError, match="finite difference steps"):
            fundamental_fd_check(P_ATOM, Q_ATOM, 37.0, leb, epsilon=step)
    assert calls == []


def test_double_eigenvalue_is_rejected():
    fake = dataclasses.replace(_pair(1, 1), g_mult=2)
    with pytest.raises(UnsupportedMultiplicityError):
        eigenvalue_gradient_p(fake, Measure.lebesgue(1.0))
    with pytest.raises(UnsupportedMultiplicityError):
        eigenvalue_gradient_q(fake, Measure.lebesgue(1.0))


# ---------------------------------------------------------------------------
# ROADMAP problem, xi = 1, n = 4: gradients against an independent rule

ROADMAP_P = Measure.point(0.4, 0.3)
ROADMAP_Q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))


@pytest.fixture(scope="module")
def roadmap_pair():
    return find_eigenvalue(ROADMAP_P, ROADMAP_Q, 1, 4)


def _composite_gauss(f, nu, panels=64, order=8):
    """Composite Gauss-Legendre over (0, 1), split at every breakpoint."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    cuts = sorted({0.0, 1.0} | {b for mu in (nu, ROADMAP_P, ROADMAP_Q)
                                for b in mu.breakpoints() if 0.0 < b < 1.0})
    total = 0.0
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        edges = np.linspace(lo, hi, panels + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (a + b), 0.5 * (b - a)
            total += half * sum(w * f(float(mid + half * t))
                                for t, w in zip(nodes, weights))
    return total


@pytest.mark.parametrize("channel, nu", [
    ("p", Measure.from_density(0.1, 1.0, (1.0,))),
    ("q", Measure.from_density(0.1, 1.0, (1.0,))),
    ("q", Measure.point(0.3, 1.0).plus(Measure.from_density(0.2, 0.7, (1.0,)))),
], ids=["p-density", "q-density", "q-atom-density"])
def test_roadmap_gradients_match_composite_gauss(roadmap_pair, channel, nu):
    e = roadmap_pair.E
    if channel == "p":
        got = eigenvalue_gradient_p(roadmap_pair, nu)
        want = sum(a.w * abs(e.eval_y(a.x)) ** 2 for a in nu.atoms if a.x > 0)
        want += _composite_gauss(
            lambda t: nu.density_many(np.array([t]))[0] * abs(e.eval_y(t)) ** 2, nu)
    else:
        got = eigenvalue_gradient_q(roadmap_pair, nu)
        want = _composite_gauss(
            lambda t: -2.0 * (e.eval_y(t).conjugate() * e.eval_yprime(t)).imag
            * nu.drift(t), nu)
    # relative to max(1, |want|), as the benchmark's oracle compares: the
    # 64-panel rule straddles the interpolant's cell edges and is itself
    # only good to about 3e-7 absolute on the atom direction
    assert math.isfinite(got)
    assert abs(got - want) < 1e-7 * max(1.0, abs(want))


def test_fd_check_takes_the_solver_config():
    rows = fd_check(P_ATOM, Q_ATOM, 1, 1, Measure.lebesgue(1.0),
                    epsilons=(1e-3,), cfg=SolverConfig(tol=1e-11))
    assert len(rows) == 1
    assert abs(rows[0].formula_value - 1.0) < 1e-9
    assert all(r < FD_RTOL for r in _rel_rows(rows))


def test_empty_step_list_is_refused_before_any_solve(monkeypatch):
    calls = []
    geometry = Workspace.geometry

    def counted(ws, *args):
        calls.append(args)
        return geometry(ws, *args)

    monkeypatch.setattr(Workspace, "geometry", counted)
    with pytest.raises(BadArgumentError, match="at least one"):
        fd_check(P_ATOM, Q_ATOM, 1, 1, Measure.lebesgue(1.0), epsilons=())
    assert calls == []
