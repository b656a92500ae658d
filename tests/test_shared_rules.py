"""Rules the solver enforces once, for every driver that reaches it.

A non-finite lambda is refused by one check in ivp, whichever entry point
it arrives through, and a missing config resolves to SolverConfig() in the
solver, so a driver that passes cfg on gives the same bits for None as for
the default.  Integer and real arguments pass one number rule each, which
refuses bools, strings and None.
"""

import dataclasses
import functools
import math
from fractions import Fraction
import warnings

import numpy as np
import pytest

from stieltjes_spec.charfn import boundary_matrix, delta, real_split
from stieltjes_spec.errors import BadArgumentError, MeasureFormatError
from stieltjes_spec import ivp
from stieltjes_spec.ivp import (
    FundamentalPath,
    InitialTriple,
    SolutionPath,
    SolverConfig,
    Workspace,
    fundamental_matrix,
    solve_picard,
    solve_transfer,
    solve_value,
)
from stieltjes_spec.lab import bound_audit, solution_continuity
from stieltjes_spec import spectrum
from stieltjes_spec.measure import Measure, oscillation_sequence, ramp_sequence
from stieltjes_spec.sens import (
    fd_check,
    fundamental_fd_check,
    fundamental_gradient_p,
    fundamental_gradient_q,
)
from stieltjes_spec.spectrum import (
    count_zeros_disc,
    counting_threshold,
    eigenfunction,
    find_eigenvalue,
    localize,
    spectral_shift,
)

P = Measure.point(0.4, 0.3)
Q = Measure.point(0.5, 0.7).plus(Measure.lebesgue(0.5))
Q_ATOMIC = Measure.point(0.5, 0.7)
NU = Measure.point(0.3, 1.0).plus(Measure.from_density(0.2, 0.7, (1.0,)))
INIT = InitialTriple(1.0, 0.3, -0.2)

REAL_BAD = (math.inf, -math.inf, math.nan, complex(math.nan, 0.0))
COMPLEX_BAD = REAL_BAD + (complex(0.0, math.inf), complex(math.nan, math.nan))

ENTRY_POINTS = {
    "solve_value": (lambda lam: solve_value(P, Q, lam, INIT), COMPLEX_BAD),
    "solve_value_zero": (lambda lam: solve_value(Measure.zero(), Measure.zero(),
                                                 lam, INIT), COMPLEX_BAD),
    "solve_picard": (lambda lam: solve_picard(P, Q, lam, INIT), COMPLEX_BAD),
    "solve_transfer": (lambda lam: solve_transfer(P, Q_ATOMIC, lam, INIT),
                       COMPLEX_BAD),
    "FundamentalPath": (lambda lam: FundamentalPath(P, Q, lam), COMPLEX_BAD),
    "real_split": (lambda lam: real_split(P, Q, lam), REAL_BAD),
    "delta": (lambda lam: delta(P, Q, lam, 1), COMPLEX_BAD),
    # eigenfunction takes a float
    "eigenfunction": (lambda lam: eigenfunction(P, Q, 1, lam), REAL_BAD[:3]),
}


@pytest.mark.parametrize("name,lam", [
    (name, lam) for name, (_, bad) in ENTRY_POINTS.items() for lam in bad
])
def test_a_non_finite_lambda_is_refused_alike_everywhere(name, lam):
    call = ENTRY_POINTS[name][0]
    with pytest.raises(BadArgumentError) as exc:
        call(lam)
    assert str(exc.value) == "lambda must be finite"


def _bits(value):
    """A hashable image of value that two results share only bit for bit."""
    if isinstance(value, SolutionPath):
        return _bits((value.node, value.edge, value.w_pre, value.jumps,
                      value.n_terms))
    if dataclasses.is_dataclass(value):
        return _bits(tuple(getattr(value, f.name)
                           for f in dataclasses.fields(value)))
    if isinstance(value, np.ndarray):
        return (str(value.dtype), value.shape, value.tobytes())
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, (float, complex, np.floating, np.complexfloating)):
        z = complex(value)
        return (repr(z.real), repr(z.imag))
    return repr(value)


DRIVERS = {
    "real_split": lambda cfg: real_split(P, Q, 64.0, cfg),
    "boundary_matrix": lambda cfg: boundary_matrix(P, Q, 300 - 40j, 2, cfg),
    "delta": lambda cfg: delta(P, Q, 300 - 40j, 1, cfg),
    "solve_picard": lambda cfg: solve_picard(P, Q, 64.0, INIT, cfg),
    "eigenfunction": lambda cfg: eigenfunction(P, Q, 1, 64.0, cfg=cfg),
    "fundamental_gradient": lambda cfg: fundamental_gradient_q(
        P, Q, 100.0, NU, 0.8, cfg),
    "fundamental_fd_check": lambda cfg: fundamental_fd_check(
        P, Q, 100.0, NU, "p", cfg=cfg),
    "solution_continuity": lambda cfg: solution_continuity(
        P, Q, [(Measure.lebesgue(1e-2), None)], (64.0,), cfg=cfg),
    "bound_audit": lambda cfg: bound_audit(P, Q, (64.0,), cfg),
}


@pytest.mark.parametrize("name", DRIVERS)
def test_no_config_is_the_default_config_bit_for_bit(name):
    run = DRIVERS[name]
    assert _bits(run(None)) == _bits(run(SolverConfig()))


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.5, math.inf])
def test_workspace_refuses_breakpoints_off_the_unit_interval(bad):
    # -0.5 used to stretch the mesh over [-0.5, 1]; NaN failed in linspace
    with pytest.raises(BadArgumentError, match="outside"):
        Workspace(P, Q, [0.3, bad])


def test_workspace_keeps_breakpoints_inside_the_unit_interval():
    ws = Workspace(P, Q, [1.0, 0.25, 0.0])
    assert ws.extra == (0.0, 0.25, 1.0)
    edges = ws.geometry(0.0, 256, 0).edges
    assert edges[0] == 0.0 and edges[-1] == 1.0 and 0.25 in edges


Z = Measure.zero()

REFUSED = {
    "index string": (lambda: find_eigenvalue(Z, Z, 1, "abc"), "integer"),
    "index bool": (lambda: find_eigenvalue(Z, Z, 1, True), "integer"),
    "xi bool": (lambda: find_eigenvalue(Z, Z, True, 1), "integer"),
    "xi string": (lambda: localize("1", 0), "integer"),
    "c_pi string": (lambda: counting_threshold(Z, Z, 1, c_pi="abc"),
                    "positive and finite"),
    "c_pi None": (lambda: counting_threshold(Z, Z, 1, c_pi=None),
                  "positive and finite"),
    "tol None": (lambda: SolverConfig(tol=None), "positive and finite"),
    "tol string": (lambda: SolverConfig(tol="1e-9"), "positive and finite"),
    "tol bool": (lambda: SolverConfig(tol=True), "positive and finite"),
    "radius string": (lambda: count_zeros_disc(Z, Z, 1, 0.0, "1"),
                      "positive and finite"),
    "center None": (lambda: count_zeros_disc(Z, Z, 1, None, 1.0), "finite"),
    "center string": (lambda: count_zeros_disc(Z, Z, 1, "12", 1.0), "finite"),
    "step string": (lambda: fundamental_fd_check(P, Q, 64.0, NU, epsilon="1e-4"),
                    "positive and finite"),
    "steps with a string": (lambda: fd_check(Z, Z, 1, 1, NU, epsilons=[1e-3, "1e-4"]),
                            "positive and finite"),
    "oscillation string": (lambda: oscillation_sequence("3"), "integer"),
    "oscillation bool": (lambda: oscillation_sequence(True), "integer"),
    "ramp string": (lambda: ramp_sequence("abc"), "integer"),
    "ramp bool": (lambda: ramp_sequence(True), "integer"),
    "ramp non-integral": (lambda: ramp_sequence(2.5), "integer"),
    # ints beyond the float range: math.isfinite would raise OverflowError
    "index beyond floats": (lambda: find_eigenvalue(Z, Z, 1, 10**400), "integer"),
    # str() refuses an int of more than 4300 digits
    "index beyond str": (lambda: find_eigenvalue(Z, Z, 1, -10**5000),
                         "integer, got a number too long to print"),
    "center beyond str": (lambda: count_zeros_disc(Z, Z, 1, Fraction(10**5000), 1.0),
                          "finite, got a number too long to print"),
    "mesh_size beyond floats": (lambda: SolverConfig(mesh_size=10**400), "integer"),
    "tol beyond floats": (lambda: SolverConfig(tol=10**400), "positive and finite"),
    "center beyond floats": (lambda: count_zeros_disc(Z, Z, 1, -10**400, 1.0),
                             "finite"),
    "epsilon string": (lambda: spectral_shift(Z, Z, 1, 1, "abc"), "finite"),
    "epsilon beyond floats": (lambda: spectral_shift(Z, Z, 1, 1, 10**400), "finite"),
    "eigenfunction non-real": (lambda: eigenfunction(Z, Z, 1, 64.0 + 1.0j),
                               "real spectral parameter"),
    "eigenfunction complex NaN": (
        lambda: eigenfunction(Z, Z, 1, complex(math.nan, math.nan)),
        "lambda must be finite"),
    "eigenfunction infinite imaginary part": (
        lambda: eigenfunction(Z, Z, 1, complex(0.0, math.inf)),
        "lambda must be finite"),
    # lambda passes one rule in ivp: complex() would take "64" and True
    "lambda string": (lambda: solve_value(P, Q, "64", INIT), "lambda must be a number"),
    "lambda bool": (lambda: solve_value(P, Q, True, INIT), "lambda must be a number"),
    "lambda None": (lambda: solve_picard(P, Q, None, INIT), "lambda must be a number"),
    "lambda string, zero pair": (lambda: solve_value(Z, Z, "64", INIT),
                                 "lambda must be a number"),
    "lambda string, transfer": (lambda: solve_transfer(P, Q_ATOMIC, "64", INIT),
                                "lambda must be a number"),
    "lambda None, fundamental path": (lambda: FundamentalPath(P, Q, None),
                                      "lambda must be a number"),
    "lambda bool, delta": (lambda: delta(P, Q, True, 1), "lambda must be a number"),
    "lambda string, boundary matrix": (lambda: boundary_matrix(P, Q, "64", 1),
                                       "lambda must be a number"),
    "lambda string, real split": (lambda: real_split(P, Q, "64"),
                                  "lambda must be a number"),
    "lambda beyond floats": (lambda: solve_value(P, Q, 10**400, INIT),
                             "lambda must be finite"),
    # the evaluation point of the matrix gradients passes the real rule
    "x string": (lambda: fundamental_gradient_p(P, Q, 64.0, NU, "0.5"),
                 "evaluation point must be finite"),
    "x None": (lambda: fundamental_gradient_q(P, Q, 64.0, NU, None),
               "evaluation point must be finite"),
    "x bool": (lambda: fundamental_gradient_p(P, Q, 64.0, NU, True),
               "evaluation point must be finite"),
    "x string, fd check": (lambda: fundamental_fd_check(P, Q, 64.0, NU, x="0.5"),
                           "evaluation point must be finite"),
    # so do those of N(x) and of a path: float() would take "0.5" and True
    "x string, fundamental matrix": (lambda: fundamental_matrix(P, Q, 64.0, "0.5"),
                                     "evaluation point must be finite"),
    "x bool, fundamental matrix": (lambda: fundamental_matrix(P, Q, 64.0, True),
                                   "evaluation point must be finite"),
    "x None, fundamental matrix": (lambda: fundamental_matrix(P, Q, 64.0, None),
                                   "evaluation point must be finite"),
    "x bool, eval_y": (lambda: _path().eval_y(True), "must be real numbers"),
    "x string, eval_yprime": (lambda: _path().eval_yprime("0.5"), "must be real numbers"),
    "x None, eval_w": (lambda: _path().eval_w(None), "must be real numbers"),
    "x numpy bool, eval_y": (lambda: _path().eval_y(np.bool_(True)), "must be real numbers"),
    "x string array, eval_y": (lambda: _path().eval_y(np.array(["0.5", "1"])),
                               "must be real numbers"),
    "x bool array, eval_w": (lambda: _path().eval_w(np.array([True, False])),
                             "must be real numbers"),
}


@functools.cache
def _path():
    return solve_picard(P, Q, 64.0, INIT)


@pytest.mark.parametrize("name", REFUSED)
def test_non_numbers_and_non_real_eigenvalues_are_refused(name):
    call, message = REFUSED[name]
    error = (MeasureFormatError if name.startswith(("oscillation", "ramp"))
             else BadArgumentError)
    with pytest.raises(error, match=message):
        call()


def test_spectral_shift_checks_epsilon_before_any_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the base eigenvalue was searched for")

    monkeypatch.setattr(spectrum, "find_eigenvalue", refuse)
    for bad in ("abc", math.nan, math.inf, None, True):
        with pytest.raises(BadArgumentError, match="epsilon must be finite"):
            spectral_shift(Z, Z, 1, 1, bad)


def test_fundamental_matrix_checks_x_before_any_solve(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the canonical columns were solved")

    monkeypatch.setattr(ivp, "FundamentalPath", refuse)
    for bad in ("0.5", True, None, math.nan, math.inf):
        with pytest.raises(BadArgumentError, match="evaluation point must be finite"):
            fundamental_matrix(P, Q, 64.0, bad)


def test_eigenfunction_takes_a_complex_lambda_with_zero_imaginary_part():
    lam = (2.0 * math.pi) ** 3  # zero pair, xi = 1, n = 1
    want = eigenfunction(Z, Z, 1, lam, n=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's ComplexWarning included
        for arg in (complex(lam), np.complex128(lam)):
            got = eigenfunction(Z, Z, 1, arg, n=1)
            assert type(got.lam) is float
            assert dataclasses.replace(got, E=None) == dataclasses.replace(want, E=None)
            assert np.array_equal(got.E.edge, want.E.edge)


def test_every_other_number_is_a_lambda():
    want = solve_value(P, Q, 64.0, INIT)
    for lam in (64, Fraction(64), np.float64(64.0), np.int64(64),
                np.complex128(64.0), 64.0 + 0j):
        assert _bits(solve_value(P, Q, lam, INIT)) == _bits(want)
