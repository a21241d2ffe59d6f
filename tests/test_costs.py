"""Cost families, numeric regularity checks, schedule sensitivity condition."""

import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copesim.costs import (check_regularity, cost, general_cost, linear_cost,
                           quadratic_cost, theorem3_condition)
from copesim.mechanism import effort_linear, effort_quadratic


def linear_rule(var0):
    return partial(effort_linear, theta_lo=0.0, var0=var0)


def quadratic_rule(var0):
    return partial(effort_quadratic, theta_lo=0.0, var0=var0)


# -- totals -------------------------------------------------------------------

def test_linear_total_cost():
    assert cost(linear_cost(), 2.0, 0.5) == pytest.approx(1.0)


def test_quadratic_total_cost():
    # 0.5 * 0.5 * 2^2 = 1
    assert cost(quadratic_cost(), 2.0, 0.5) == pytest.approx(1.0)


@pytest.mark.parametrize("model", [linear_cost(), quadratic_cost()])
def test_zero_effort_costs_nothing(model):
    assert cost(model, 0.0, 0.7) == 0.0


def test_negative_effort_rejected():
    with pytest.raises(ValueError):
        cost(linear_cost(), -1.0, 0.5)


def test_general_cost_total_by_quadrature():
    model = general_cost(marginal=lambda q, theta: theta * np.asarray(q, float))
    # integral of theta*z from 0 to q is theta*q^2/2
    assert cost(model, 2.0, 0.5) == pytest.approx(1.0, abs=1e-9)
    assert cost(model, 0.0, 0.5) == 0.0


@pytest.mark.parametrize("model", [linear_cost(), quadratic_cost()])
@given(theta=st.floats(0.05, 1.0), q1=st.floats(0, 10), q2=st.floats(0, 10))
def test_total_cost_nondecreasing_in_effort(model, theta, q1, q2):
    lo, hi = sorted((q1, q2))
    assert cost(model, hi, theta) >= cost(model, lo, theta) - 1e-12


# -- regularity ----------------------------------------------------------------

def test_quadratic_marginal_strictly_regular():
    rep = check_regularity(quadratic_cost())
    assert rep.strictly_regular
    assert rep.weakly_regular


def test_linear_marginal_only_weakly_regular():
    # dc/dq = 0 for the linear family: flat in effort, not strictly increasing
    rep = check_regularity(linear_cost())
    assert not rep.marginal_in_q_strict
    assert rep.marginal_in_q_weak
    assert rep.weakly_regular
    assert not rep.strictly_regular


def test_decreasing_marginal_is_flagged():
    model = general_cost(marginal=lambda q, theta:
                         np.asarray(theta, float) / (1.0 + np.asarray(q, float)))
    rep = check_regularity(model)
    assert not rep.marginal_in_q_weak
    assert not rep.weakly_regular


# -- report-sensitivity condition along a schedule -----------------------------

def test_sensitivity_holds_on_linear_schedule_where_active():
    grid = np.linspace(0.05, 0.95, 41)
    rep = theorem3_condition(linear_cost(), linear_rule(1.0), grid)
    assert rep.ok_where_active
    assert np.any(rep.efforts > 0)


def test_sensitivity_holds_on_quadratic_schedule():
    # the curvature-weighted condition needs the prior-free schedule away from
    # the lower type boundary; an informative prior deflates the offset term
    # below the threshold (see the elasticity report test in test_mechanism)
    grid = np.linspace(0.10, 0.95, 41)
    rep = theorem3_condition(quadratic_cost(), quadratic_rule(math.inf),
                             grid, var0=math.inf, theta_rest=(0.4, 0.7))
    assert rep.ok_where_active
    assert np.all(rep.efforts > 0)
    assert np.all(rep.values < 0)


def test_sensitivity_fails_near_lower_boundary_and_under_informative_prior():
    # honest record of where the condition breaks: the offset ratio tends to
    # 1/3 at the boundary, and a unit-variance prior pushes it below 1/2
    # everywhere on this grid
    lo = theorem3_condition(quadratic_cost(), quadratic_rule(math.inf),
                            np.linspace(0.01, 0.05, 5), var0=math.inf,
                            theta_rest=(0.4, 0.7))
    assert not lo.ok_where_active
    info = theorem3_condition(quadratic_cost(), quadratic_rule(1.0),
                              np.linspace(0.10, 0.95, 41), var0=1.0,
                              theta_rest=(0.4, 0.7))
    assert not info.ok_where_active


def test_sensitivity_fails_on_constant_schedule():
    # a schedule that ignores the report cannot offset the rising marginal
    flat = lambda reports: np.ones(len(reports))
    grid = np.linspace(0.05, 0.95, 41)
    rep = theorem3_condition(linear_cost(), flat, grid)
    assert not rep.ok_where_active
