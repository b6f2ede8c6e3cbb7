import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmdlab.errors import DimMismatch, InvalidInput, UnbalancedProblem
from wmdlab.ot_core import TransportProblem, solve_transport

from conftest import random_balanced_problem, random_simplex_pair
from helpers import certify, from_pairs, plan_to_dense
from oracle import NotNormalized, TooLarge, _enumerate_min_cost, \
    _linprog_min_cost, brute_force_transport, ot_uniform, uniform_cost_matrix


def sparse_from_dense(v):
    return from_pairs(len(v), enumerate(v))


# -- problem validation ---------------------------------------------------------


def test_rejects_negative_supply():
    with pytest.raises(InvalidInput):
        TransportProblem([-0.5, 1.5], [0.5, 0.5], [[0, 1], [1, 0]])


def test_rejects_nan_cost():
    with pytest.raises(InvalidInput):
        TransportProblem([1.0], [1.0], [[float("nan")]])


def test_rejects_infinite_cost():
    with pytest.raises(InvalidInput):
        TransportProblem([1.0], [1.0], [[float("inf")]])


def test_rejects_unbalanced_marginals():
    with pytest.raises(UnbalancedProblem):
        TransportProblem([1.0], [0.5], [[0.0]])


def test_rejects_shape_mismatch():
    with pytest.raises(InvalidInput):
        TransportProblem([1.0], [0.5, 0.5], [[0.0]])


NAN, INF = float("nan"), float("inf")
SWAP = [[0.0, 1.0], [1.0, 0.0]]
HALF = [0.5, 0.5]


@pytest.mark.parametrize("supply, demand, cost, error, message", [
    (HALF, HALF, [0.0, 1.0], InvalidInput,
     "cost shape (2,) does not match (2, 2)"),
    ([1.0], HALF, [[0.0]], InvalidInput,
     "cost shape (1, 1) does not match (1, 2)"),
    ([NAN, 1.0], HALF, SWAP, InvalidInput,
     "supply contains NaN or infinite entries"),
    ([INF, -INF], HALF, SWAP, InvalidInput,
     "supply contains NaN or infinite entries"),
    ([-0.5, 1.5], HALF, SWAP, InvalidInput,
     "supply contains negative entries"),
    (HALF, [-INF, 0.5], SWAP, InvalidInput,
     "demand contains NaN or infinite entries"),
    (HALF, [1.5, -0.5], SWAP, InvalidInput,
     "demand contains negative entries"),
    (HALF, HALF, [[0.0, NAN], [1.0, 0.0]], InvalidInput,
     "cost contains NaN or infinite entries"),
    (HALF, HALF, [[0.0, 1.0], [INF, 0.0]], InvalidInput,
     "cost contains NaN or infinite entries"),
    (HALF, HALF, [[0.0, -1.0], [1.0, 0.0]], InvalidInput,
     "cost contains negative entries"),
    # precedence: supply, then demand, then cost; finiteness before sign
    ([-0.5, 1.5], [NAN, 0.5], SWAP, InvalidInput,
     "supply contains negative entries"),
    (HALF, [1.5, -0.5], [[NAN, 1.0], [1.0, 0.0]], InvalidInput,
     "demand contains negative entries"),
    (HALF, HALF, [[-1.0, NAN], [1.0, 0.0]], InvalidInput,
     "cost contains NaN or infinite entries"),
    ([[NAN], [0.5]], HALF, SWAP, InvalidInput,
     "supply contains NaN or infinite entries"),
    ([1.0], [0.5], [[0.0]], UnbalancedProblem,
     "supply total 1.0 and demand total 0.5 differ by 5.000e-01 (> 1e-09)"),
    # entry checks pass, then the balance sum fails
    ([1e308, 1e308], [1e308, 1e308], SWAP, OverflowError,
     "intermediate overflow in fsum"),
    ([[0.5], [0.5]], HALF, SWAP, TypeError, "must be real number, not list"),
])
def test_invalid_problem_error_and_message(supply, demand, cost, error,
                                           message):
    with pytest.raises(error) as err:
        TransportProblem(supply, demand, cost)
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("supply, demand, cost", [
    ([1.0, -0.0], HALF, [[0.0, -0.0], [1.0, 0.0]]),
    ([], [], np.zeros((0, 0))),
    (1.0, 1.0, [[2.0]]),
])
def test_valid_problem_edge_cases(supply, demand, cost):
    TransportProblem(supply, demand, cost)


def test_repairs_tiny_imbalance():
    # 1e-10 off: must solve, not raise
    plan = solve_transport(
        TransportProblem([0.5, 0.5], [0.25, 0.75 + 1e-10],
                         [[0.0, 1.0], [1.0, 0.0]])
    )
    assert plan.objective == pytest.approx(0.25, abs=1e-9)


# -- solve_transport examples ----------------------------------------------------


def test_single_cell_identity():
    plan = solve_transport(TransportProblem([1.0], [1.0], [[0.0]]))
    assert plan.entries == ((0, 0, 1.0),)
    assert plan.objective == 0.0


def test_two_by_two_known_optimum():
    # hand enumeration of the 2x2 vertices gives 0.25 via the split plan
    plan = solve_transport(
        TransportProblem([0.5, 0.5], [0.25, 0.75], [[0.0, 1.0], [1.0, 0.0]])
    )
    assert plan.objective == pytest.approx(0.25, abs=1e-12)
    assert set(plan.entries) == {(0, 0, 0.25), (0, 1, 0.25), (1, 1, 0.5)}


def test_matches_oracle_on_random_4x4():
    rng = np.random.default_rng(42)
    for _ in range(50):
        supply = rng.multinomial(64, np.ones(4) / 4) / 64
        demand = rng.multinomial(64, np.ones(4) / 4) / 64
        problem = TransportProblem(supply, demand, rng.random((4, 4)))
        plan = solve_transport(problem)
        certify(problem, plan)
        want = brute_force_transport(problem)
        assert plan.objective == pytest.approx(want, abs=1e-9)


def test_zero_mass_marginals_are_dropped():
    problem = TransportProblem([0.0, 1.0], [1.0, 0.0],
                               [[9.0, 9.0], [3.0, 9.0]])
    plan = solve_transport(problem)
    assert plan.entries == ((1, 0, 1.0),)
    assert plan.objective == 3.0
    # the dropped row and column take their tightest feasible duals
    assert plan.row_potentials.tolist() == [9.0 - 3.0, 0.0]
    assert plan.col_potentials.tolist() == [3.0, min(9.0 - 6.0, 9.0 - 0.0)]
    certify(problem, plan)


@pytest.mark.parametrize("supply, demand", [
    ([0.0, 0.0], [0.0, 0.0, 0.0]),
    ([0.0, 0.0], [1e-10, 0.0, 0.0]),
    ([], []),
])
def test_massless_problem_has_feasible_duals(supply, demand):
    cost = np.arange(len(supply) * len(demand), dtype=float).reshape(
        len(supply), len(demand))
    problem = TransportProblem(supply, demand, cost)
    plan = solve_transport(problem)
    assert plan.entries == () and plan.objective == 0.0
    assert plan.pivots == plan.bland_pivots == 0
    certify(problem, plan)


# -- brute force -----------------------------------------------------------------


def test_brute_force_single_route():
    assert brute_force_transport(
        TransportProblem([1.0], [1.0], [[7.0]])
    ) == 7.0


def test_brute_force_identity_matching():
    got = brute_force_transport(
        TransportProblem([0.5, 0.5], [0.5, 0.5], [[0.0, 2.0], [2.0, 0.0]])
    )
    assert got == pytest.approx(0.0, abs=1e-12)


def test_brute_force_forced_move():
    # all mass must reach the second column; half of it crosses at cost 2
    got = brute_force_transport(
        TransportProblem([0.5, 0.5], [0.0, 1.0], [[0.0, 2.0], [2.0, 0.0]])
    )
    assert got == pytest.approx(1.0, abs=1e-12)


def test_brute_force_size_bound():
    with pytest.raises(TooLarge):
        brute_force_transport(
            TransportProblem(np.full(7, 1 / 7), np.full(6, 1 / 6),
                             np.ones((7, 6)))
        )


def test_enumeration_agrees_with_lp_on_4x4():
    # both oracle routes must coincide beyond the internal routing threshold
    rng = np.random.default_rng(7)
    for _ in range(5):
        s = rng.multinomial(32, np.ones(4) / 4) / 32
        d = rng.multinomial(32, np.ones(4) / 4) / 32
        rows = np.flatnonzero(s > 0)
        cols = np.flatnonzero(d > 0)
        sv, dv = s[rows], d[cols]
        cost = rng.random((4, 4))[np.ix_(rows, cols)]
        a = _enumerate_min_cost(sv.tolist(), dv.tolist(), cost)
        b = _linprog_min_cost(sv, dv, cost)
        assert a == pytest.approx(b, abs=1e-9)


# -- ot_uniform ------------------------------------------------------------------


def test_ot_uniform_identical_vectors():
    x = sparse_from_dense([0.25, 0.75])
    assert ot_uniform(x, x) == 0.0


def test_ot_uniform_half_shift():
    x = sparse_from_dense([0.5, 0.5, 0.0])
    y = sparse_from_dense([0.0, 0.5, 0.5])
    # 0.5 mass moves at cost 2
    assert ot_uniform(x, y) == pytest.approx(1.0, abs=1e-12)


def test_ot_uniform_requires_normalization():
    x = sparse_from_dense([0.5, 0.5])
    bad = sparse_from_dense([0.5, 0.4])
    with pytest.raises(NotNormalized):
        ot_uniform(x, bad)


def test_ot_uniform_requires_shared_dim():
    with pytest.raises(DimMismatch):
        ot_uniform(sparse_from_dense([1.0]), sparse_from_dense([0.5, 0.5]))


def test_ot_uniform_matches_explicit_solver():
    rng = np.random.default_rng(3)
    for _ in range(25):
        m = int(rng.integers(1, 21))
        x, y = random_simplex_pair(rng, m)
        closed_form = ot_uniform(sparse_from_dense(x), sparse_from_dense(y))
        problem = TransportProblem(x, y, uniform_cost_matrix(m))
        plan = solve_transport(problem)
        certify(problem, plan)
        assert closed_form == pytest.approx(plan.objective, abs=1e-9)


# -- invariants ------------------------------------------------------------------


def test_plans_feasible_and_basic():
    rng = np.random.default_rng(11)
    for _ in range(100):
        problem = random_balanced_problem(rng, max_side=6)
        plan = solve_transport(problem)
        certify(problem, plan)
        assert len(plan.entries) <= problem.supply.size + problem.demand.size - 1
        assert all(m > 0 for _, _, m in plan.entries)
        recomputed = math.fsum(problem.cost[i, j] * m
                               for i, j, m in plan.entries)
        assert plan.objective == pytest.approx(recomputed, abs=1e-12)


def test_optimality_on_random_small_instances():
    rng = np.random.default_rng(12)
    for _ in range(150):
        problem = random_balanced_problem(rng, max_side=6)
        plan = solve_transport(problem)
        certify(problem, plan)
        want = brute_force_transport(problem)
        assert plan.objective == pytest.approx(want, abs=1e-9 * max(1.0, want))


@st.composite
def balanced_instances(draw):
    ns = draw(st.integers(1, 3))
    nt = draw(st.integers(1, 3))
    total = 16
    supply = np.array(draw(
        st.lists(st.integers(0, total), min_size=ns, max_size=ns)
    ), dtype=float)
    demand = np.array(draw(
        st.lists(st.integers(0, total), min_size=nt, max_size=nt)
    ), dtype=float)
    ssum, dsum = supply.sum(), demand.sum()
    if ssum == 0 or dsum == 0:
        supply = np.ones(ns)
        demand = np.ones(nt)
        ssum, dsum = float(ns), float(nt)
    # scale to integer masses over a power-of-two grain: exactly balanced
    supply = supply * dsum / 64.0
    demand = demand * ssum / 64.0
    cost = np.array(draw(
        st.lists(st.lists(st.integers(0, 40), min_size=nt, max_size=nt),
                 min_size=ns, max_size=ns)
    ), dtype=float) / 4.0
    return TransportProblem(supply, demand, cost)


@settings(max_examples=60, deadline=None)
@given(balanced_instances())
def test_property_solver_matches_enumeration(problem):
    plan = solve_transport(problem)
    certify(problem, plan)
    want = brute_force_transport(problem)
    assert plan.objective == pytest.approx(want, abs=1e-9 * max(1.0, want))


@settings(max_examples=60, deadline=None)
@given(balanced_instances(), st.floats(0.25, 8.0))
def test_property_objective_scales_with_cost(problem, lam):
    base = solve_transport(problem).objective
    scaled = solve_transport(
        TransportProblem(problem.supply, problem.demand, problem.cost * lam)
    ).objective
    assert scaled == pytest.approx(lam * base, abs=1e-9 * max(1.0, lam))


@settings(max_examples=60, deadline=None)
@given(balanced_instances())
def test_property_transpose_symmetry(problem):
    forward = solve_transport(problem).objective
    backward = solve_transport(
        TransportProblem(problem.demand, problem.supply, problem.cost.T)
    ).objective
    assert forward == pytest.approx(backward, abs=1e-9)


def test_uniform_cost_equals_l1_and_saturates_diagonal():
    rng = np.random.default_rng(13)
    for _ in range(60):
        m = int(rng.integers(1, 25))
        x, y = random_simplex_pair(rng, m)
        problem = TransportProblem(x, y, uniform_cost_matrix(m))
        plan = solve_transport(problem)
        certify(problem, plan)
        assert plan.objective == pytest.approx(np.abs(x - y).sum(), abs=1e-9)
        dense = plan_to_dense(plan, m, m)
        assert np.allclose(np.diag(dense), np.minimum(x, y), atol=1e-9)


def test_plan_support_unchanged_under_cost_scaling_unique_optimum():
    # strictly different route costs make the optimum unique
    problem = TransportProblem([0.5, 0.5], [0.25, 0.75],
                               [[1.0, 5.0], [2.0, 3.0]])
    base = solve_transport(problem)
    scaled = solve_transport(
        TransportProblem(problem.supply, problem.demand, problem.cost * 3.0)
    )
    assert [(i, j) for i, j, _ in base.entries] == \
        [(i, j) for i, j, _ in scaled.entries]
    assert scaled.objective == pytest.approx(3.0 * base.objective, abs=1e-12)
