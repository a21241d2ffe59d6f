"""Cost families, their numeric regularity check, and the truthful-bidding
sensitivity condition along an effort schedule (sufficient_ratio_report)."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from copesim.costs import (check_regularity, cost, general_cost, linear_cost,
                           quadratic_cost)
from copesim.mechanism import own_effort, sufficient_ratio_report
from conftest import linear_rule, quadratic_rule


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
# For a cost theta*g(q) the curvature-weighted sensitivity is
# (c/theta)(1 - 2*ratio), so it holds exactly where sufficient_ratio_report's
# ratio -theta Q'/(1/var0 + Q) is at least 1/2.

def _ratios(sched, rest, var0):
    rep = sufficient_ratio_report(sched, rest, 0.0, 1.0, var0)
    return rep, rep.theta_grid, rep.ratios


def test_sensitivity_holds_on_linear_schedule_where_active():
    sched = linear_rule(1.0)
    rep, grid, ratios = _ratios(sched, (), 1.0)
    idle = [own_effort(sched, t, ()) <= 0 for t in grid]
    assert np.array_equal(np.isnan(ratios), idle)
    # skip the t=1e-6 node: its step is clamped to (t - lo)/2 and the
    # central difference truncation error dominates there
    valid = ratios[~np.isnan(ratios) & (grid >= 1e-3)]
    assert valid.size > 0
    assert np.allclose(valid, 0.5, atol=1e-5)
    assert rep.passes_half


def test_sensitivity_holds_on_quadratic_schedule():
    # the condition needs the prior-free schedule away from the lower type
    # boundary; an informative prior deflates the ratio below 1/2
    _, grid, ratios = _ratios(quadratic_rule(math.inf), (0.4, 0.7), math.inf)
    assert not np.isnan(ratios).any()
    hi = ratios[grid >= 0.10]
    assert (hi.min(), hi.max()) == pytest.approx((0.524, 0.865), abs=5e-4)
    assert np.all(hi >= 0.5)


def test_sensitivity_fails_near_lower_boundary_and_under_informative_prior():
    # honest record of where the condition breaks: the ratio tends to 1/3 at
    # the boundary, and a unit-variance prior pushes it below 1/2 everywhere
    # on the grid
    rep, grid, ratios = _ratios(quadratic_rule(math.inf), (0.4, 0.7),
                                math.inf)
    assert ratios[grid <= 0.05].max() == pytest.approx(0.412, abs=5e-4)
    assert not rep.passes_half
    rep, grid, ratios = _ratios(quadratic_rule(1.0), (0.4, 0.7), 1.0)
    assert not np.isnan(ratios).any()
    assert ratios[grid <= 0.05].max() == pytest.approx(0.385, abs=5e-4)
    hi = ratios[grid >= 0.10]
    assert (hi.min(), hi.max()) == pytest.approx((0.124, 0.299), abs=5e-4)
    assert rep.min_ratio == pytest.approx(ratios.min())
    assert not rep.passes_half


def test_sensitivity_fails_on_constant_schedule():
    # a schedule that ignores the report cannot offset the rising marginal
    rep, _, ratios = _ratios(lambda reports: np.ones(len(reports)), (), 1.0)
    assert np.all(ratios == 0.0)
    assert rep.min_ratio == 0.0
    assert not rep.passes_half
