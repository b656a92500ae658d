import math

import numpy as np
import pytest

from stieltjes_spec import lab
from stieltjes_spec.errors import BadArgumentError
from stieltjes_spec.ivp import SolverConfig
from stieltjes_spec.lab import (
    ConvergenceReport,
    asymptotic_residuals,
    bound_audit,
    solution_continuity,
    weakstar_eig,
)
from stieltjes_spec.measure import Measure, oscillation_sequence, ramp_sequence
from stieltjes_spec.spectrum import find_eigenvalue

HALF_ATOM = Measure.point(0.5, 1.0)


# ---------------------------------------------------------------------------
# weak-star eigenvalue continuity


def test_constant_sequence_is_flat():
    q = Measure.point(0.5, 0.7)
    rep = weakstar_eig(lambda m: q, (1, 2, 3), q, Measure.zero(), 1, 1,
                       channel="q")
    assert rep.verdict
    assert rep.errors == (0.0, 0.0, 0.0)
    assert all(v == rep.reference for v in rep.values)


def test_ramp_to_atom_in_p():
    rep = weakstar_eig(ramp_sequence, (10, 100, 1000), HALF_ATOM,
                       Measure.zero(), 1, 1, channel="p")
    assert rep.verdict
    assert rep.errors[0] > rep.errors[1] > rep.errors[2]
    assert rep.errors[-1] < 1e-2
    assert rep.params == (10.0, 100.0, 1000.0)


def test_ramp_to_atom_in_q():
    rep = weakstar_eig(ramp_sequence, (10, 100), HALF_ATOM,
                       Measure.point(0.3, 0.2), 1, 1, channel="q")
    assert rep.verdict
    assert rep.errors[1] < rep.errors[0]
    assert rep.errors[-1] < 0.1


def test_weakstar_rejects_bad_input():
    with pytest.raises(BadArgumentError):
        weakstar_eig(ramp_sequence, (10,), HALF_ATOM, Measure.zero(), 1, 1,
                     channel="z")
    with pytest.raises(BadArgumentError):
        weakstar_eig(ramp_sequence, (), HALF_ATOM, Measure.zero(), 1, 1)


# ---------------------------------------------------------------------------
# solution continuity


def test_zero_perturbation_is_exact():
    rep = solution_continuity(Measure.point(0.4, 0.3), Measure.point(0.5, 0.7),
                              [(None, None)], lams=(5.0 + 2.0j,))
    assert rep.values == (0.0,)
    assert rep.verdict


def test_shrinking_lebesgue_perturbation():
    rep = solution_continuity(
        Measure.zero(), Measure.zero(),
        [(Measure.lebesgue().scaled(eps), None) for eps in (1e-1, 1e-2, 1e-3)],
        lams=(0.0, 1.0 + 8.0j))
    assert rep.verdict
    assert rep.params == (0.1, 0.01, 0.001)
    assert rep.values[0] > rep.values[1] > rep.values[2]
    assert rep.values[-1] < 5e-3


def test_oscillating_q_converges_in_all_channels():
    rep = solution_continuity(
        Measure.zero(), Measure.zero(),
        [(None, oscillation_sequence(m)) for m in (1, 2, 3)],
        lams=(8.0,))
    assert rep.verdict
    names = tuple(name for name, _ in rep.channels)
    assert names == ("y", "yprime", "w")
    y_errs = rep.channels[0][1]
    assert y_errs[0] > y_errs[1] > y_errs[2]
    assert y_errs[-1] < 1e-2
    # the combined value is the worst channel, here w
    assert rep.values == rep.channels[2][1]
    # measured perturbation size tracks the 1/m sup norm
    assert rep.params[0] > rep.params[1] > rep.params[2]


def test_w_channel_jump_gap_survives():
    # base has an atom in p; the perturbed coefficient smears it out. The
    # y channel converges but w keeps a unit gap at the atom site.
    rep = solution_continuity(
        HALF_ATOM, Measure.zero(),
        [(ramp_sequence(m).plus(Measure.point(0.5, -1.0)), None)
         for m in (10, 100)],
        lams=(0.0,))
    y_errs = rep.channels[0][1]
    w_errs = rep.channels[2][1]
    assert y_errs[1] < y_errs[0] < 0.05
    assert all(e > 0.9 for e in w_errs)
    assert all(v > 0.9 for v in rep.values)


def test_continuity_rejects_empty_lambdas():
    with pytest.raises(BadArgumentError):
        solution_continuity(Measure.zero(), Measure.zero(), [(None, None)],
                            lams=())


# ---------------------------------------------------------------------------
# bound audit


def test_audit_zero_potential():
    rep = bound_audit(Measure.zero(), Measure.zero(),
                      (64.0, 1000.0, (6 * math.pi) ** 3))
    assert rep.ok
    assert rep.points > 0
    for r in rep.solution_ratios:
        assert 0.2 < r <= 1.0
    for r in rep.comparison_ratios:
        assert r < 1e-6


def test_audit_random_atomic_pairs():
    rng = np.random.default_rng(20260816)
    for _ in range(3):
        p = Measure.zero()
        q = Measure.zero()
        for _ in range(2):
            p = p.plus(Measure.point(float(rng.uniform(0.05, 1.0)),
                                     float(rng.uniform(-0.5, 0.5))))
            q = q.plus(Measure.point(float(rng.uniform(0.05, 1.0)),
                                     float(rng.uniform(-0.5, 0.5))))
        rep = bound_audit(p, q, (64.0, 27.0 + 8.0j))
        assert rep.ok
        assert all(k >= 1.0 for k in rep.k_mags)


def test_audit_rejects_small_k():
    with pytest.raises(BadArgumentError):
        bound_audit(Measure.zero(), Measure.zero(), (0.5,))
    with pytest.raises(BadArgumentError):
        bound_audit(Measure.zero(), Measure.zero(), ())


# ---------------------------------------------------------------------------
# eigenvalue asymptotics


def test_asymptotics_zero_potential():
    rep = asymptotic_residuals(Measure.zero(), Measure.zero(), 1, 1, 4)
    assert rep.q_integral == 0.0
    assert rep.ns == (1, 2, 3, 4)
    for n, lead, res, lam in zip(rep.ns, rep.leading, rep.residuals, rep.lams):
        base = 2 * n * math.pi
        assert lead == base ** 3
        assert res == lam - lead
        assert abs(res) < 1e-6
    assert rep.bounded


def test_asymptotics_lebesgue_q():
    rep = asymptotic_residuals(Measure.zero(), Measure.lebesgue(), 1, 5, 7)
    assert rep.q_integral == 0.5
    base = 10 * math.pi
    assert abs(rep.leading[0] - (base ** 3 - base)) < 1e-9 * base ** 3
    for res in rep.residuals:
        # the next-order term is O(1); it must not be confused with the
        # linear correction, which is ~30 at these indices
        assert 0.5 < abs(res) < 3.0
    assert rep.bounded
    assert rep.upper_max <= 2.0 * rep.lower_max + 1e-6


def test_asymptotics_second_condition():
    rep = asymptotic_residuals(Measure.zero(), Measure.lebesgue(), 2, 5, 6)
    base = 11 * math.pi
    assert abs(rep.leading[0] - (base ** 3 - base)) < 1e-9 * base ** 3
    assert all(abs(r) < 3.0 for r in rep.residuals)
    assert rep.bounded


def test_asymptotics_share_one_workspace(monkeypatch):
    # one workspace serves every index, with the bits of a fresh one each
    p, q = Measure.point(0.4, 0.3), Measure.point(0.5, 0.7)
    built = []
    real = lab.Workspace

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(lab, "Workspace", counted)
    rep = asymptotic_residuals(p, q, 1, 1, 3)
    assert len(built) == 1
    assert rep.lams == tuple(find_eigenvalue(p, q, 1, n).lam
                             for n in (1, 2, 3))


def test_asymptotics_validation():
    with pytest.raises(BadArgumentError):
        asymptotic_residuals(Measure.zero(), Measure.zero(), 3, 1, 2)
    with pytest.raises(BadArgumentError):
        asymptotic_residuals(Measure.zero(), Measure.zero(), 1, 4, 2)


def test_asymptotics_refuse_a_fractional_index():
    # a fractional index is refused, not cut down to the integers below it
    for n_min, n_max in ((1.5, 2.9), (1, 2.9), (1.5, 3), (1, math.inf)):
        with pytest.raises(BadArgumentError, match="index"):
            asymptotic_residuals(Measure.zero(), Measure.zero(), 1, n_min,
                                 n_max)


def test_eigenvalue_drivers_take_the_solver_config():
    cfg = SolverConfig(tol=1e-11)
    q = Measure.point(0.5, 0.7)
    rep = weakstar_eig(lambda m: q, (1,), q, Measure.zero(), 1, 1, cfg,
                       channel="q")
    assert rep.errors == (0.0,)
    res = asymptotic_residuals(Measure.zero(), Measure.zero(), 1, 1, 2, cfg)
    assert all(abs(r) < 1e-6 for r in res.residuals)


def test_continuity_rejects_an_empty_perturbation_list():
    # an empty report would pass its trend verdict vacuously
    with pytest.raises(BadArgumentError, match="perturbation"):
        solution_continuity(Measure.zero(), Measure.zero(), [], lams=(64.0,))
