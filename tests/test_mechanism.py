"""Effort schedules, payment rules, predictor, and their independent oracles.

Closed-form values are checked two ways where it matters: against
hand-evaluated numbers and against a reduced-objective numeric search that
does not share code with the implementation.
"""

import inspect
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import IntegrationWarning
from scipy.optimize import minimize, minimize_scalar

from copesim import engine, mechanism
from copesim.costs import (LINEAR, QUADRATIC, general_cost, linear_cost,
                           quadratic_cost)
from copesim.model import CostTypeDistribution, GaussianPrior, posterior_mean_var
from conftest import left_to_right

U01 = CostTypeDistribution.uniform(0.0, 1.0)


def linear_rule(var0):
    return partial(mechanism.effort_linear, theta_lo=0.0, var0=var0)


def quadratic_rule(var0):
    return partial(mechanism.effort_quadratic, theta_lo=0.0, var0=var0)


# -- linear-cost effort schedule ----------------------------------------------

def test_linear_efforts_single_winner():
    # (2*0.125)^(-1/2) - 1 = 1 for the winner, 0 for the rival
    q = mechanism.effort_linear([0.125, 0.9], 0.0, 1.0)
    assert q == pytest.approx([1.0, 0.0])


def test_linear_effort_clamps_to_zero():
    # (2*0.5)^(-1/2) - 1 = 0: the clamp boundary
    q = mechanism.effort_linear([0.5], 0.0, 1.0)
    assert q == pytest.approx([0.0])


def test_linear_nonwinners_get_zero():
    q = mechanism.effort_linear([0.3, 0.2, 0.4], 0.0, 1.0)
    assert q[0] == 0.0 and q[2] == 0.0 and q[1] > 0.0


def test_linear_effort_matches_reduced_objective_search():
    # independent oracle: minimize 1/(1/var0 + q) + gamma(theta) q over q >= 0
    gen = np.random.Generator(np.random.Philox(20240501))
    for _ in range(20):
        theta = float(gen.uniform(0.01, 0.49))
        var0 = float(gen.uniform(0.5, 4.0))
        gamma = 2.0 * theta
        res = minimize_scalar(lambda q: 1.0 / (1.0 / var0 + q) + gamma * q,
                              bounds=(0.0, 50.0), method="bounded",
                              options={"xatol": 1e-10})
        q = mechanism.effort_linear([theta, 0.9], 0.0, var0)[0]
        assert q == pytest.approx(max(res.x, 0.0), abs=1e-6)


def test_argmin_winner_tie_breaking():
    reports = np.array([[0.5, 0.5], [0.5, 0.5], [0.4, 0.5]])
    assert list(mechanism.argmin_winner_batch(reports)) == [0, 0, 0]
    assert list(mechanism.argmin_winner_batch(
        reports, "seeded-random", np.array([0.9, 0.1, 0.9]))) == [1, 0, 0]
    with pytest.raises(ValueError):
        mechanism.effort_linear([], 0.0, 1.0)


def _seeded_winner(theta, u):
    """The seeded-random tie-break by argmin and an equality count."""
    winner = np.argmin(theta, axis=1)
    lowest = theta[np.arange(len(theta)), winner]
    for t in np.flatnonzero((theta == lowest[:, None]).sum(axis=1) > 1):
        ties = np.flatnonzero(theta[t] == lowest[t])
        winner[t] = ties[min(int(u[t] * ties.size), ties.size - 1)]
    return winner


@pytest.mark.parametrize("n", [1, 2, 3, 8, 19])
def test_rank_rows_matches_argmin_and_partition(n):
    # winner, lowest and runner-up equal np.argmin, the min and
    # np.partition(., 1) bit for bit, on general rows and on rows drawn
    # from three values, where the lowest is often tied; the winner and
    # the linear terms read from the ranking keep both tie-breaks
    gen = np.random.default_rng(n)
    T = 600
    general = gen.uniform(1e-6, 1.0, (T, n))
    tied = gen.integers(1, 4, (T, n)) / 4.0
    for theta in (general, tied):
        winner, lowest, second = mechanism.rank_rows(theta)
        want_second = np.partition(theta, 1, axis=1)[:, 1] if n > 1 else \
            np.full(T, np.inf)
        assert np.array_equal(winner, np.argmin(theta, axis=1))
        assert np.array_equal(lowest, theta.min(axis=1))
        assert np.array_equal(second, want_second)
        # leading dimensions and a single vector rank alike
        stacked = mechanism.rank_rows(theta.reshape(2, T // 2, n))
        for got, want in zip(stacked, (winner, lowest, second)):
            assert np.array_equal(got, want.reshape(2, T // 2))
        assert [float(v) for v in mechanism.rank_rows(theta[0])] == \
            [winner[0], lowest[0], second[0]]

        rank = (winner, lowest, second)
        u = gen.random(T)
        assert np.array_equal(mechanism.argmin_winner_batch(
            theta, "lowest-index", u, rank), np.argmin(theta, axis=1))
        assert np.array_equal(mechanism.argmin_winner_batch(
            theta, "seeded-random", u, rank), _seeded_winner(theta, u))
        assert np.array_equal(winner, np.argmin(theta, axis=1))  # not moved
        # one report vector's rule: the winner paid up to the runner-up
        for t in range(20):
            rule = mechanism.payment_rule_linear(theta[t], 0.0, 0.9, 1.0)
            terms = mechanism.linear_winner_components(
                theta[t].min(), min(0.9, want_second[t]), 0.0, 1.0)
            at = np.arange(n) == np.argmin(theta[t])
            for got, want in zip((rule.pi, rule.K, rule.S, rule.efforts),
                                 terms):
                assert np.array_equal(got, np.where(at, want, 0.0))
    if n > 1:
        assert np.any(second == lowest)     # the tied rows did tie


# -- row sums ----------------------------------------------------------------

def _row_sum_cases(gen, lead, n):
    """(lead + (n,)) arrays: magnitudes across 1e-15..1e15 of both signs with
    signed zeros and subnormals, then rows of -0.0, of +-inf and with NaN."""
    size = lead + (n,)
    a = gen.choice([-1.0, 1.0], size) * 10.0 ** gen.uniform(-15, 15, size)
    pick = gen.random(size)
    a[pick < 0.1] = 0.0
    a[(pick >= 0.1) & (pick < 0.2)] = -0.0
    a[(pick >= 0.2) & (pick < 0.25)] = 5e-324 * gen.integers(-9, 10)
    yield a
    if lead and n:
        rows = a.reshape(-1, n)
        rows[0] = -0.0
        rows[1, gen.integers(n)] = np.inf
        rows[2, gen.integers(n)] = -np.inf
        rows[3, :2] = [np.inf, -np.inf][:min(n, 2)]
        rows[4, gen.integers(n)] = np.nan
        rows[5] = 1e-310 * gen.integers(-3, 4, n)
        yield a


@pytest.mark.parametrize("lead", [(60,), (3, 20), ()])
def test_row_sums_match_numpy_bit_for_bit(lead):
    # the left-to-right reference's bits and numpy's result type and shape,
    # N = 0..300
    gen = np.random.default_rng(len(lead))
    for n in [*range(141), 255, 256, 257, 300]:
        for a in _row_sum_cases(gen, lead, n):
            with np.errstate(invalid="ignore"):     # inf - inf
                want = left_to_right(a)
                assert type(want) is type(a.sum(axis=-1))
                got = mechanism.row_sums(a)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True), n
            real = ~np.isnan(want)
            assert np.array_equal(np.signbit(got)[real],
                                  np.signbit(want)[real]), n


# -- aggregate-precision cubic ------------------------------------------------

def _cubic_root_reference(a, b, second_polish=None):
    """cubic_root as one expression per step; second_polish, a list, records
    whether the second polish step ran."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a3 = a * a * a
    t = a3 / 27.0 + b / 2.0
    s = np.sqrt(a3 * b / 27.0 + b * b / 4.0)
    W = a / 3.0 + np.cbrt(t + s) + np.cbrt(t - s)

    def polish(W):
        W2 = W * W
        f = W2 * W - a * W2 - b
        fp = 3.0 * W2 - 2.0 * a * W
        return np.where(fp > 0, W - f / np.where(fp > 0, fp, 1.0), W)

    W = polish(W)
    W2 = W * W
    W3 = W2 * W
    res = np.abs(W3 - a * W2 - b) / np.maximum(1.0, W3)
    if second_polish is not None:
        second_polish.append(bool(np.any(res > 1e-12)))
    if np.any(res > 1e-12):
        W = np.where(res > 1e-12, polish(W), W)
    return W


def test_cubic_root_matches_the_reference_bit_for_bit():
    gen = np.random.default_rng(5)
    n = 9
    cases = {
        "0-d": (np.asarray(0.25), np.asarray(3.0)),
        "floats": (4.0, 0.5),
        "scalar a": (1.0, gen.uniform(0.0, 50.0, 40)),
        "scalar b": (gen.uniform(0.0, 5.0, 40), 2.0),
        "(2, 1) x (2, n)": (gen.uniform(0.1, 5.0, (2, 1)),
                            gen.uniform(0.0, 50.0, (2, n))),
        "b = 0": (np.array([0.5, 1.0, 4.0, 1e6]), 0.0),
        "b << a^3": (np.array([10.0, 100.0, 1e3]),
                     np.array([1e-9, 1e-6, 1e-12])),
        # t - s cancels: the second polish runs
        "b >> a^3": (0.25, np.array([1.0, 1e5, 2e5])),
        "large b": (0.25, np.array([1e8, 1e15, 1e20, 1e100])),
    }
    for name, (a, b) in cases.items():
        fired = []
        want = _cubic_root_reference(a, b, fired)
        got = mechanism.cubic_root(a, b)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(np.asarray(got).view(np.int64),
                              np.asarray(want).view(np.int64)), name
        assert fired == [name == "b >> a^3"]


def test_cubic_root_unit_cases():
    # W^3 = 1 and W^3 - W^2 = 0 with b = 0
    assert float(mechanism.cubic_root(0.0, 1.0)) == pytest.approx(1.0)
    assert float(mechanism.cubic_root(1.0, 0.0)) == pytest.approx(1.0)


def test_effort_quadratic_rejects_nonpositive_virtual_cost():
    with pytest.raises(ValueError):
        mechanism.effort_quadratic([0.1], 0.3, 1.0)


@given(a=st.floats(0, 10), b=st.floats(1e-6, 1e3))
def test_cubic_residual_small(a, b):
    W = float(mechanism.cubic_root(a, b))
    assert W > 0
    assert abs(W ** 3 - a * W ** 2 - b) / max(1.0, W ** 3) < 1e-10


def test_quadratic_efforts_frozen_values():
    q = mechanism.effort_quadratic([0.5], 0.0, math.inf)
    assert q == pytest.approx([1.0])
    q2 = mechanism.effort_quadratic([0.5, 0.5], 0.0, math.inf)
    assert q2 == pytest.approx([2.0 ** (-2.0 / 3.0)] * 2, rel=1e-12)
    assert q2[0] == pytest.approx(0.629961, abs=1e-6)


def test_quadratic_efforts_decrease_in_own_report():
    rest = np.array([0.4, 0.7])
    prev = np.inf
    for t in np.linspace(0.05, 1.0, 40):
        q = mechanism.effort_quadratic(np.concatenate([[t], rest]), 0.0, 1.0)[0]
        assert q < prev
        prev = q
        assert np.all(mechanism.effort_quadratic(
            np.concatenate([[t], rest]), 0.0, 1.0) > 0)


# -- linear-cost payments -----------------------------------------------------

def test_linear_payment_components_at_half():
    # with var0 = 2 the winner effort is positive and K = S = theta/gamma^p
    rule = mechanism.payment_rule_linear([0.5, 0.9], 0.0, 1.0, 2.0)
    assert rule.K[0] == pytest.approx(0.5)
    assert rule.S[0] == pytest.approx(0.5)
    assert rule.K[1] == 0.0 and rule.S[1] == 0.0 and rule.pi[1] == 0.0
    # gamma = 1 so the designated effort is 1 - 1/var0 = 0.5
    assert rule.efforts[0] == pytest.approx(0.5)


def test_linear_zero_rule_when_effort_clamps():
    # winner's designated effort is 0 at theta_hat = 0.5, var0 = 1: no payment
    rule = mechanism.payment_rule_linear([0.5], 0.0, 1.0, 1.0)
    assert np.all(rule.pi == 0) and np.all(rule.K == 0) and np.all(rule.S == 0)
    assert np.all(rule.efforts == 0)


def test_linear_pi_at_top_report_is_cost_only():
    # no room above the report: the rent tail vanishes, pi = theta * q
    rule = mechanism.payment_rule_linear([1.0], 0.0, 1.0, 2.0)
    q = 2.0 ** -0.5 - 0.5
    assert rule.efforts[0] == pytest.approx(q)
    assert rule.pi[0] == pytest.approx(1.0 * q, rel=1e-10)


def test_linear_pi_closed_matches_quadrature():
    gen = np.random.Generator(np.random.Philox(77001))
    for _ in range(25):
        n = int(gen.integers(1, 5))
        theta = np.sort(gen.uniform(0.02, 1.0, n))
        var0 = float(gen.uniform(0.8, 3.0))
        rest = theta[1:]
        via_quad = mechanism.linear_pi_quad(theta[0], rest, 0.0, 1.0, var0)
        upper = min(1.0, rest.min()) if rest.size else 1.0
        via_closed = float(mechanism.linear_winner_components(
            theta[0], upper, 0.0, var0)[0])
        assert via_quad == pytest.approx(via_closed, abs=1e-9)


def test_linear_pi_decreasing_in_winning_report():
    vals = [mechanism.linear_pi_quad(t, (), 0.0, 1.0, 2.0)
            for t in np.linspace(0.05, 0.9, 15)]
    assert np.all(np.diff(vals) < 0)


def test_linear_transfers_nonnegative_and_cover_cost():
    gen = np.random.Generator(np.random.Philox(77002))
    for _ in range(20):
        theta = gen.uniform(0.02, 1.0, int(gen.integers(1, 6)))
        rule = mechanism.payment_rule_linear(theta, 0.0, 1.0, 1.0)
        assert np.all(rule.pi >= 0) and np.all(rule.K >= 0) and np.all(rule.S >= 0)
        live = rule.efforts > 0
        # pi pays at least the winner's cost at the designated effort
        assert np.all(rule.pi[live] >= theta[live] * rule.efforts[live] - 1e-12)


def test_clamp_point_and_tail_integral():
    assert mechanism.linear_clamp_point(0.0, 1.0) == pytest.approx(0.5)
    assert mechanism.linear_clamp_point(0.0, math.inf) == math.inf
    # integral of (2z)^(-1/2) - 1 over [0.125, 0.5]: sqrt(2z) - z evaluated
    got = float(mechanism.linear_tail_closed(0.125, 0.5, 0.0, 1.0))
    want = (1.0 - 0.5) - (0.5 - 0.125)
    assert got == pytest.approx(want, rel=1e-12)
    # beyond the clamp point the schedule is zero: the integral stops growing
    assert float(mechanism.linear_tail_closed(0.125, 0.9, 0.0, 1.0)) == \
        pytest.approx(want, rel=1e-12)


def test_realized_payment_identity(make_scenario):
    # the engine pays pi - K (x - report)^2 + S with the components of the
    # per-vector payment rule
    for kind, mech, rule_for in (
            (LINEAR, engine.COPE_LINEAR, mechanism.payment_rule_linear),
            (QUADRATIC, engine.COPE_QUADRATIC,
             mechanism.payment_rule_quadratic)):
        scen = make_scenario(kind, 3)
        for t in range(4):
            rec = engine.run_trial(scen, mech, engine.TRUTHFUL, seed=2,
                                   trial_index=t)
            rule = rule_for(rec.reported_types, 0.0, 1.0, 1.0)
            assert np.array_equal(rec.efforts > 0, rule.efforts > 0)
            want = rule.pi - rule.K * (rec.x - rec.reports) ** 2 + rule.S
            assert np.allclose(rec.payments, want, rtol=1e-8, atol=1e-12)


# -- quadratic-cost payments --------------------------------------------------

def test_quadratic_payment_components_flat_prior():
    rule = mechanism.payment_rule_quadratic([0.5], 0.0, 1.0, math.inf)
    assert rule.efforts[0] == pytest.approx(1.0)
    assert rule.K[0] == pytest.approx(0.5)
    assert rule.S[0] == pytest.approx(0.5)


def test_quadratic_interim_payoff_zero_at_top_type():
    # pi - K*hA(Q) + S - C(Q) at theta_hat = theta_hi must vanish
    for var0 in (1.0, math.inf):
        rule = mechanism.payment_rule_quadratic([1.0, 0.6], 0.0, 1.0, var0)
        prec = 0.0 if math.isinf(var0) else 1.0 / var0
        Q = rule.efforts[0]
        payoff = rule.pi[0] - rule.K[0] / (prec + Q) + rule.S[0] \
            - 0.5 * 1.0 * Q ** 2
        assert payoff == pytest.approx(0.0, abs=1e-9)


def test_quadratic_pi_decreasing_in_own_report():
    rest = [0.5, 0.8]
    vals = [mechanism.payment_rule_quadratic([t] + rest, 0.0, 1.0, 1.0).pi[0]
            for t in np.linspace(0.05, 0.95, 10)]
    assert np.all(np.diff(vals) < 0)


def test_quadratic_tail_closed_form_matches_adaptive_quadrature():
    gen = np.random.Generator(np.random.Philox(77003))
    for _ in range(10):
        n = int(gen.integers(1, 5))
        theta = gen.uniform(0.02, 1.0, n)
        var0 = float(gen.uniform(0.8, 3.0))
        i = int(gen.integers(0, n))
        adaptive = mechanism.quadratic_pi_quad(i, theta, 0.0, 1.0, var0)
        gamma = 2.0 * theta
        s_rest = float(np.sum(1.0 / gamma)) - 1.0 / gamma[i]
        tail = float(mechanism.quadratic_pi_tail_gl(theta[i], s_rest, 0.0, 1.0,
                                                    var0))
        q = mechanism.effort_quadratic(theta, 0.0, var0)[i]
        fixed = 0.5 * (theta[i] * q ** 2 + tail)
        assert fixed == pytest.approx(adaptive, abs=1e-9)


def test_quadratic_batch_matches_per_agent_rule():
    theta = np.array([[0.3, 0.6, 0.9], [0.1, 0.5, 0.7]])
    pi, K, S, q = mechanism.quadratic_components_batch(theta, 0.0, 1.0, 1.0)
    for r in range(2):
        rule = mechanism.payment_rule_quadratic(theta[r], 0.0, 1.0, 1.0)
        assert np.allclose(q[r], rule.efforts, rtol=1e-12)
        assert np.allclose(K[r], rule.K, rtol=1e-12)
        assert np.allclose(S[r], rule.S, rtol=1e-12)
        via_quad = [mechanism.quadratic_pi_quad(i, theta[r], 0.0, 1.0, 1.0)
                    for i in range(3)]
        assert np.allclose(pi[r], via_quad, rtol=0.0, atol=1e-9)


def _tail_grid_cases():
    """(var0, reports) cases: the own report (index 0) at 1e-6, within 1e-4
    of theta_hi = 1 or uniform, the rivals uniform on [0, 1]; then the own
    report at 10^U(-7, -3) with a rival within a factor of 100 above it."""
    gen = np.random.Generator(np.random.Philox(77005))
    for var0 in (0.25, 1.0, 4.0, math.inf):
        for n in (2, 7, 19):
            for own in ("low", "top", "uniform"):
                for _ in range(10):
                    theta = gen.uniform(0.0, 1.0, n)
                    if own == "low":
                        theta[0] = 1e-6
                    elif own == "top":
                        theta[0] = 1.0 - gen.uniform(0.0, 1e-4)
                    yield var0, theta
    for var0 in (0.25, 1.0, 4.0, math.inf):
        for n in (2, 3, 7, 19):
            for _ in range(10):
                theta = gen.uniform(0.0, 1.0, n)
                theta[0] = 10.0 ** gen.uniform(-7.0, -3.0)
                theta[1] = theta[0] * 10.0 ** gen.uniform(0.0, 2.0)
                yield var0, theta
    # a rival just above a report at the bottom of the support, where the
    # schedule changes fastest
    yield 1.0, np.array([1e-6, 2e-6])


def test_quadratic_tail_closed_form_on_grid():
    with warnings.catch_warnings():
        # quad can miss silently near theta_lo, e.g. [1e-6, 1e-5, 0.5]
        warnings.simplefilter("error", IntegrationWarning)
        for var0, theta in _tail_grid_cases():
            pi, _, _, _ = mechanism.quadratic_components_batch(
                theta, 0.0, 1.0, var0)
            exact = mechanism.quadratic_pi_quad(0, theta, 0.0, 1.0, var0,
                                                tol=1e-13)
            assert abs(pi[0] - exact) <= 1e-12 * exact, (var0, theta)


def test_quadratic_tail_broadcast_shapes():
    gen = np.random.Generator(np.random.Philox(77006))
    theta = gen.uniform(1e-6, 1.0, (5, 19))
    inv = 1.0 / (2.0 * theta)
    s_rest = inv.sum(axis=1, keepdims=True) - inv
    cases = [
        (0.37, 2.5),                                     # scalar
        (theta[:, 0], s_rest[:, 0]),                     # (D,)
        (theta, s_rest),                                 # (T, N)
        (theta, s_rest[:, :1]),                          # (T, N) vs (T, 1)
    ]
    for var0 in (1.0, 4.0):
        for tf, s in cases:
            got = mechanism.quadratic_pi_tail_gl(tf, s, 0.0, 1.0, var0)
            tf_b, s_b = np.broadcast_arrays(tf, s)
            assert np.shape(got) == tf_b.shape
            for idx in np.ndindex(tf_b.shape):
                one = mechanism.quadratic_pi_tail_gl(float(tf_b[idx]),
                                                     float(s_b[idx]), 0.0,
                                                     1.0, var0)
                assert got[idx] == one


@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0, math.inf])
def test_quadratic_tail_from_the_callers_root_is_bitwise_the_default(var0):
    gen = np.random.Generator(np.random.Philox(77007))
    theta = np.concatenate([gen.uniform(1e-6, 1.0, 400),
                            [np.nextafter(1.0, 0.0), 1.0 - 1e-12, 1.0]])
    s_rest = np.concatenate([[0.0], 10.0 ** gen.uniform(-3.0, 3.0,
                                                         theta.size - 1)])
    for tf, s in ((theta, s_rest), (theta[:, None], s_rest)):
        W = mechanism.cubic_root(1.0 / var0, s + 1.0 / (2.0 * tf))
        got = mechanism.quadratic_pi_tail_gl(tf, s, 0.0, 1.0, var0, W_from=W)
        assert np.array_equal(
            got, mechanism.quadratic_pi_tail_gl(tf, s, 0.0, 1.0, var0))
        _, W_at = mechanism.quadratic_effort_at(tf, s, 0.0, var0)
        assert np.array_equal(W_at, W)
    # perfbench's tracer reads a sixth positional argument as the order
    for fn in (mechanism.quadratic_pi_tail_gl, mechanism.quadratic_transfers):
        param = inspect.signature(fn).parameters["W_from"]
        assert param.kind is inspect.Parameter.KEYWORD_ONLY


def test_quadratic_pi_accurate_at_low_reports():
    # one report near the bottom of the support and a rival just above it
    theta = np.concatenate([[1e-6, 1e-4], np.linspace(0.02, 1.0, 17)])
    pi, _, _, _ = mechanism.quadratic_components_batch(theta, 0.0, 1.0, 1.0)
    for i in (0, 1):
        exact = mechanism.quadratic_pi_quad(i, theta, 0.0, 1.0, 1.0, tol=1e-13)
        assert abs(pi[i] - exact) <= 1e-9 * exact


# -- general-cost route -------------------------------------------------------

def _theta_one_plus_q2():
    # c = theta (1 + q^2): under U[0, 1] types the virtual marginal cost is
    # 2 theta (1 + q^2) and the virtual cost 2 theta (q + q^3/3)
    return (general_cost(lambda q, t: np.asarray(t) * (1.0 + np.asarray(q) ** 2),
                         lambda q, t: np.asarray(t) * (np.asarray(q)
                                                       + np.asarray(q) ** 3 / 3.0)),
            lambda q, g: g * (1.0 + q * q), lambda q, g: g * (q + q ** 3 / 3.0))


def _theta_q_plus_q2():
    # c = theta q + q^2: virtual marginal 2 theta q + q^2, virtual cost
    # theta q^2 + q^3/3
    return (general_cost(lambda q, t: np.asarray(t) * np.asarray(q) + np.asarray(q) ** 2,
                         lambda q, t: 0.5 * np.asarray(t) * np.asarray(q) ** 2
                         + np.asarray(q) ** 3 / 3.0),
            lambda q, g: g * q + q * q, lambda q, g: 0.5 * g * q * q + q ** 3 / 3.0)


def test_efforts_at_price_slope_is_the_last_iterates():
    # a rival of type 0.2717 under theta (1 + q^2), U[0, 1] types and
    # var0 = 1, priced at lam = 1/1.3565537^2: dq_dlam is the reciprocal of
    # the forward-difference slope at the iterate before the final Newton
    # step, not 1/vm' = 1/(4 theta q) at the returned effort
    model = _theta_one_plus_q2()[0]
    theta = np.array([0.2717])
    inv_hazard = CostTypeDistribution.uniform(0.0, 1.0).inverse_hazard(theta)
    calls = []

    def vm(q, idx):
        out = mechanism._virtual_marginal(model, q, theta[idx],
                                          inv_hazard[idx])
        calls.append((q.copy(), out.copy()))
        return out

    P = 1.3565537
    q, dq_dlam, evals = mechanism._efforts_at_price(
        vm, 1.0 / (P * P), 2.0 * (P - 1.0), np.array([0.01]))
    assert evals == len(calls)
    (x, _), (v, v_h) = calls[-1]
    h = max(1e-6 * x, 1e-300)
    assert dq_dlam[0] == 1.0 / ((v_h - v) / h)
    assert q[0] != x        # the final Newton step left the last iterate
    assert q[0] == pytest.approx(3.834e-3, rel=1e-3)
    assert dq_dlam[0] == pytest.approx(166.2, rel=1e-3)
    assert 1.0 / (4.0 * theta[0] * q[0]) == pytest.approx(239.96, rel=1e-4)


def _multistart_lbfgsb(vmarg, vcost, gamma, var0, seed=0):
    """The multistart L-BFGS-B effort search the scalar solve replaced (two
    structured starts and six uniform ones on [0, 5]), kept as an oracle."""
    prec = 1.0 / var0

    def neg_objective(q):
        return 1.0 / (prec + q.sum()) + float(np.sum(vcost(q, gamma)))

    def neg_gradient(q):
        return -1.0 / (prec + q.sum()) ** 2 + vmarg(q, gamma)

    gen = np.random.default_rng(seed)
    starts = [np.zeros(gamma.size), np.maximum(gamma ** -0.5 - prec, 0.0)]
    starts += [gen.uniform(0.0, 5.0, gamma.size) for _ in range(6)]
    best = min((minimize(neg_objective, q0, jac=neg_gradient, method="L-BFGS-B",
                         bounds=[(0.0, None)] * gamma.size,
                         options={"maxiter": 500, "ftol": 1e-18, "gtol": 1e-12})
                for q0 in starts), key=lambda r: r.fun)
    return np.maximum(best.x, 0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_optimizer_recovers_linear_corner():
    q = mechanism.effort_general(linear_cost(), U01, 1.0, [0.125, 0.9])
    assert q == pytest.approx([1.0, 0.0], abs=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_optimizer_recovers_quadratic_interior():
    q = mechanism.effort_general(quadratic_cost(), U01, math.inf, [0.5])
    assert q == pytest.approx([1.0], abs=1e-6)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_optimizer_all_zero_when_clamped():
    # every virtual cost exceeds 1: zero effort is optimal under linear cost
    q = mechanism.effort_general(linear_cost(), U01, 1.0, [0.6, 0.9])
    assert np.all(q == 0.0)


def _objective_hessian(model, type_dist, var0, theta_hat, q, h=1e-5):
    """Central-difference Hessian of the effort objective -1/(prec + sum q)
    - sum of virtual costs at q."""
    inv_hazard = np.asarray(type_dist.inverse_hazard(theta_hat), dtype=float)

    def obj(qv):
        return -1.0 / (1.0 / var0 + qv.sum()) - float(np.sum(
            mechanism._virtual_total(model, qv, theta_hat, inv_hazard)))

    step = h * np.eye(q.size)
    return np.array([[(obj(q + ei + ej) - obj(q + ei - ej) - obj(q - ei + ej)
                       + obj(q - ei - ej)) / (4 * h * h) for ej in step]
                     for ei in step])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_objective_concave_at_interior_solution():
    theta = np.array([0.4, 0.7])
    q = mechanism.effort_general(quadratic_cost(), U01, 1.0, theta)
    H = _objective_hessian(quadratic_cost(), U01, 1.0, theta, q)
    assert np.all(np.linalg.eigvalsh(H) < -1e-8)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0, 100.0, math.inf])
@pytest.mark.parametrize("n", [1, 2, 7, 19])
def test_general_solver_matches_quadratic_closed_form(var0, n):
    gen = np.random.default_rng(1000 * n + 7)
    for theta in (np.geomspace(1e-3, 1.0, n), gen.uniform(1e-3, 1.0, n)):
        got = mechanism.effort_general(quadratic_cost(), U01, var0, theta)
        want = mechanism.effort_quadratic(theta, 0.0, var0)
        assert np.max(np.abs(got - want) / want) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("var0", [1e3, math.inf])
@pytest.mark.parametrize("theta_hi", [1e4, 1e6])
def test_general_solver_converges_at_large_cost_scales(theta_hi, var0):
    # types on [0, theta_hi] put 1/P^2, the scale of the virtual marginal
    # cost at the optimum, far above 1; the convergence check scales with it
    dist = CostTypeDistribution.uniform(0.0, theta_hi)
    gen = np.random.default_rng(90210)
    for v in range(30):
        theta = gen.uniform(0.0, theta_hi, 2 + v % 8)
        got = mechanism.effort_general(quadratic_cost(), dist, var0, theta)
        want = mechanism.effort_quadratic(theta, 0.0, var0)
        assert np.max(np.abs(got - want) / want) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_solver_linear_tie_goes_to_lowest_index():
    theta = [0.3, 0.3, 0.9]
    got = mechanism.effort_general(linear_cost(), U01, 1.0, theta)
    want = mechanism.effort_linear(theta, 0.0, 1.0)
    assert want[0] > 0.0
    assert got[1] == 0.0 and got[2] == 0.0
    assert got[0] == pytest.approx(want[0], rel=1e-9)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cost", [_theta_one_plus_q2, _theta_q_plus_q2])
@pytest.mark.parametrize("var0", [0.25, 1.0, 4.0])
def test_general_solver_beats_multistart_oracle(cost, var0):
    model, vmarg, vcost = cost()
    gen = np.random.default_rng(11)
    prec = 1.0 / var0
    for n in (1, 2, 3, 5, 8):
        theta = gen.uniform(0.01, 1.0, n)
        gamma = 2.0 * theta            # U[0, 1]: theta + F/f
        q = mechanism.effort_general(model, U01, var0, theta)
        oracle = _multistart_lbfgsb(vmarg, vcost, gamma, var0)
        objective = lambda v: -1.0 / (prec + v.sum()) - float(np.sum(vcost(v, gamma)))
        assert objective(q) >= objective(oracle) - 1e-12
        g = vmarg(q, gamma) - 1.0 / (prec + q.sum()) ** 2
        kkt = np.where(q > 0.0, g, np.minimum(g, 0.0))
        assert np.linalg.norm(kkt) <= 1e-9


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_general_solver_rejects_free_effort():
    free = general_cost(lambda q, t: 0.0 * np.asarray(q) * np.asarray(t),
                        lambda q, t: 0.0 * np.asarray(q) * np.asarray(t))
    with pytest.raises(mechanism.SolverError) as info:
        mechanism.effort_general(free, U01, 1.0, [0.5])
    diag = info.value.diagnostics
    assert diag["P"] > 1e10
    assert diag["outer_iterations"] > 0 and diag["inner_iterations"] > 0


def test_general_payment_reduces_to_linear_identity():
    # K = -c/hA' at Q: for linear cost and var0 = 4 the winner report 0.5
    # gives Q = 1 - 1/4 ... K = theta_hat/gamma = 0.5
    rule = mechanism.payment_rule_general(linear_cost(), linear_rule(4.0),
                                          U01, [0.5, 0.9], 4.0)
    assert rule.K[0] == pytest.approx(0.5, rel=1e-10)
    assert rule.S[0] == pytest.approx(
        0.5 * (1.0 / (0.25 + rule.efforts[0])), rel=1e-10)


def test_general_payment_matches_quadratic_rule():
    theta = [0.5]
    got = mechanism.payment_rule_general(quadratic_cost(),
                                         quadratic_rule(math.inf), U01, theta,
                                         math.inf)
    want = mechanism.payment_rule_quadratic(theta, 0.0, 1.0, math.inf)
    assert got.K[0] == pytest.approx(want.K[0], abs=1e-8)
    assert got.S[0] == pytest.approx(want.S[0], abs=1e-8)
    assert got.pi[0] == pytest.approx(want.pi[0], abs=1e-8)


def test_general_payment_zero_for_free_effort():
    free = lambda reports: np.ones(len(reports))
    zero_cost = general_cost(marginal=lambda q, theta: 0.0 * np.asarray(q, float),
                             total=lambda q, theta: 0.0 * np.asarray(q, float))
    rule = mechanism.payment_rule_general(zero_cost, free, U01, [0.3], 1.0)
    assert rule.K[0] == 0.0 and rule.S[0] == 0.0
    assert rule.pi[0] == pytest.approx(0.0, abs=1e-10)


def test_general_payment_skips_non_recruited():
    rule = mechanism.payment_rule_general(linear_cost(), linear_rule(1.0),
                                          U01, [0.125, 0.9], 1.0)
    assert rule.efforts[1] == 0.0
    assert rule.K[1] == 0.0 and rule.S[1] == 0.0 and rule.pi[1] == 0.0


def test_general_payment_recruits_one_agent_on_a_tie():
    # the linear rule breaks the tie to the lowest index, and the transfers
    # follow the efforts it designates for the whole report vector
    rule = mechanism.payment_rule_general(linear_cost(), linear_rule(4.0),
                                          U01, [0.3, 0.3], 4.0)
    assert np.count_nonzero(rule.efforts) == 1
    assert rule.efforts[1] == 0.0
    assert rule.K[1] == 0.0 and rule.S[1] == 0.0 and rule.pi[1] == 0.0
    want = mechanism.payment_rule_linear([0.3, 0.3], 0.0, 1.0, 4.0)
    assert np.allclose(rule.efforts, want.efforts, rtol=0.0, atol=1e-12)
    assert np.allclose(rule.pi, want.pi, rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("theta", [
    [0.94847787, 0.03104027, 0.6220928, 0.30476851, 0.40418247],
    [0.03104027]])
def test_general_payment_pays_the_rent_below_the_clamp_point(theta):
    # the winner 0.03104 sits just below its clamp point var0^2/2 = 0.03125,
    # so its rent integrand is nonzero only on a sliver above its report
    got = mechanism.payment_rule_general(linear_cost(), linear_rule(0.25),
                                         U01, theta, 0.25)
    want = mechanism.payment_rule_linear(theta, 0.0, 1.0, 0.25)
    assert want.pi.max() == pytest.approx(4.2016e-4, rel=1e-4)
    assert np.allclose(got.pi, want.pi, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("theta", [
    [0.04901338956309209, 0.38959528429882206, 0.36603905726213826],
    [0.6890271371485683, 0.5550966788978652, 0.04201178906868608,
     0.2961499997837337, 0.9271669354015911]])
def test_general_solver_payment_matches_linear_rule(theta):
    # the winner's rent stops where its report passes the runner-up's, the
    # exit that the rivals-only equilibrium gives
    rule = partial(mechanism.effort_general, linear_cost(), U01, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = mechanism.payment_rule_general(linear_cost(), rule, U01, theta,
                                             1.0)
    want = mechanism.payment_rule_linear(theta, 0.0, 1.0, 1.0)
    assert np.allclose(got.pi, want.pi, rtol=0.0, atol=1e-10)


def test_general_payment_finds_the_exit_without_search():
    # one rule call for the efforts, one for the winner's rivals alone and
    # one per node of the rent quadrature
    calls = []

    def rule(reports):
        calls.append(len(reports))
        return mechanism.effort_general(linear_cost(), U01, 1.0, reports)

    mechanism.payment_rule_general(linear_cost(), rule, U01, [0.2, 0.6], 1.0)
    assert len(calls) <= 30


# -- predictor ----------------------------------------------------------------

def test_predict_unshrinks_single_report():
    # report 0.5 at q = 1 came from raw y = 1; posterior mean of y = 1 is 0.5
    prior = GaussianPrior(0.0, 1.0)
    assert mechanism.predict_batch(prior, np.array([0.5]),
                                   np.array([1.0])) == pytest.approx(0.5)


def test_predict_prior_fixed_point_and_fallback():
    prior = GaussianPrior(0.3, 2.0)
    assert mechanism.predict_batch(prior, np.array([0.3, 0.3]),
                                   np.array([1.0, 2.0])) == pytest.approx(0.3)
    assert mechanism.predict_batch(prior, np.array([99.0]),
                                   np.array([0.0])) == 0.3
    # a flat prior with nobody active still falls back to the prior mean
    flat = GaussianPrior(0.3, math.inf)
    assert mechanism.predict_batch(flat, np.array([0.5]),
                                   np.array([0.0])) == 0.3


def test_predict_consistent_with_posterior_on_raw_observations():
    gen = np.random.Generator(np.random.Philox(77004))
    prior = GaussianPrior(0.4, 1.7)
    for _ in range(30):
        n = int(gen.integers(1, 6))
        q = np.where(gen.random(n) < 0.3, 0.0, gen.uniform(0.1, 4.0, n))
        y = gen.normal(0.0, 2.0, n)
        # agents report their own posterior means of the raw observations
        reports = np.where(q > 0, (prior.mu0 * prior.precision + y * q)
                           / (prior.precision + q), prior.mu0)
        want, _ = posterior_mean_var(prior, list(zip(y, q)))
        got = mechanism.predict_batch(prior, reports, q)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)


def test_predict_batch_rows_match_posterior():
    # a (T, N) batch: each row equals the posterior mean of its own raw
    # observations, idle agents included
    prior = GaussianPrior(0.4, 1.7)
    prec = prior.precision
    y = np.array([[1.0, -0.4], [0.1, 0.7]])
    efforts = np.array([[1.0, 0.0], [2.0, 1.0]])
    reports = np.where(efforts > 0, (prior.mu0 * prec + y * efforts)
                       / (prec + efforts), prior.mu0)
    batch = mechanism.predict_batch(prior, reports, efforts)
    assert batch.shape == (2,)
    for r in range(2):
        want, _ = posterior_mean_var(prior, list(zip(y[r], efforts[r])))
        assert batch[r] == pytest.approx(want, rel=1e-12, abs=1e-12)


# -- schedule diagnostics -----------------------------------------------------

@pytest.mark.parametrize("sched,rest", [
    (linear_rule(1.0), ()),
    (quadratic_rule(1.0), (0.4, 0.7)),
])
def test_schedules_nonincreasing_in_own_report(sched, rest):
    rep = mechanism.schedule_monotonicity_report(sched, rest, 0.0, 1.0, n=200)
    assert rep.nonincreasing
    assert rep.max_increase <= 1e-10


def test_linear_elasticity_sits_at_one_half():
    # -Q'(t) t / (Q + 1/var0) = t/(2t - lo) = 1/2 exactly for lo = 0
    rep = mechanism.sufficient_ratio_report(linear_rule(1.0), (), 0.0, 1.0,
                                            1.0)
    # skip the t=1e-6 node: its step is clamped to (t - lo)/2 and the central
    # difference truncation error dominates there
    keep = (~np.isnan(rep.ratios)) & (rep.theta_grid >= 1e-3)
    valid = rep.ratios[keep]
    assert valid.size > 0
    assert np.allclose(valid, 0.5, atol=1e-5)
    assert rep.passes_half


def test_quadratic_elasticity_reported_honestly():
    # the 1/2 lower bound is sufficient, not necessary; with an informative
    # prior the measured ratio dips below it near the boundaries, and the
    # report must say so rather than smooth it over
    rep = mechanism.sufficient_ratio_report(quadratic_rule(1.0), (0.4, 0.7),
                                            0.0, 1.0, 1.0)
    assert np.isfinite(rep.min_ratio)
    assert rep.min_ratio == pytest.approx(np.nanmin(rep.ratios))
    assert not rep.passes_half
