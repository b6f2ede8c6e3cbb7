"""The incremental network simplex against two independent references.

``reference_solve`` is the original full-rebuild pivot loop with its own
least-cost start: with the same start, pricing, leaving and fallback rules
the incremental solver must make the same pivots, so plans, objectives and
duals are compared with exact equality. Started from the northwest corner
instead, it takes another pivot path to the same optimum. HiGHS (through
``scipy.optimize.linprog``) checks optimality on instances far beyond the
brute-force oracle's 36 cells, and every plan is checked against its own
dual certificate.
"""

import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from wmdlab.ot_core import TransportProblem, solve_transport

from conftest import random_simplex_pair
from helpers import certify
from oracle import uniform_cost_matrix
from reference_simplex import reference_solve


def _unit_embedding_problem(rng, ns, nt, dim=50):
    """Euclidean costs between random unit vectors, random marginals."""
    emb = rng.normal(size=(ns + nt, dim))
    emb /= np.linalg.norm(emb, axis=1, keepdims=True)
    cost = np.linalg.norm(emb[:ns, None, :] - emb[None, ns:, :], axis=2)
    supply = rng.random(ns)
    demand = rng.random(nt)
    return TransportProblem(supply / supply.sum(), demand / demand.sum(), cost)


def _random_small(rng):
    ns, nt = (int(k) for k in rng.integers(1, 9, size=2))
    supply = rng.random(ns)
    supply[rng.random(ns) < 0.2] = 0.0  # some zero-mass rows to drop
    if supply.sum() == 0.0:
        supply[0] = 1.0
    demand = rng.random(nt)
    return TransportProblem(supply / supply.sum(), demand / demand.sum(),
                            rng.random((ns, nt)))


def _integer_grain(rng):
    """Marginals on a 1/16 grain with costs in {0, 1, 2}: heavy ties."""
    ns, nt = (int(k) for k in rng.integers(1, 9, size=2))
    supply = rng.multinomial(16, np.ones(ns) / ns) / 16
    demand = rng.multinomial(16, np.ones(nt) / nt) / 16
    cost = rng.integers(0, 3, size=(ns, nt)).astype(float)
    return TransportProblem(supply, demand, cost)


def _uniform_geometry(rng):
    m = int(rng.integers(1, 25))
    x, y = random_simplex_pair(rng, m)
    return TransportProblem(x, y, uniform_cost_matrix(m))


def _assignment(rng):
    """0/1-cost assignment: every basis is maximally degenerate."""
    m = int(rng.integers(20, 61))
    cost = rng.integers(0, 2, size=(m, m)).astype(float)
    return TransportProblem(np.full(m, 1 / m), np.full(m, 1 / m), cost)


FAMILIES = [
    ("random up to 8x8", _random_small, 300),
    ("integer grain, costs 0/1/2", _integer_grain, 300),
    ("0/2 uniform cost", _uniform_geometry, 100),
    ("0/1 assignment 20-60", _assignment, 12),
    ("unit embedding 30x30", lambda rng: _unit_embedding_problem(rng, 30, 30),
     10),
    ("unit embedding 120x120",
     lambda rng: _unit_embedding_problem(rng, 120, 120), 2),
]


def _family(family):
    """The seeded instances of one family."""
    _, make, count = FAMILIES[family]
    rng = np.random.default_rng(family)
    return [make(rng) for _ in range(count)]


each_family = pytest.mark.parametrize("family", range(len(FAMILIES)),
                                      ids=[f[0] for f in FAMILIES])


@each_family
def test_plans_bit_identical_to_reference(family):
    for problem in _family(family):
        plan = solve_transport(problem)
        ref = reference_solve(problem)
        assert plan.entries == ref.entries
        assert plan.objective == ref.objective
        assert np.array_equal(plan.row_potentials, ref.row_potentials)
        assert np.array_equal(plan.col_potentials, ref.col_potentials)
        assert (plan.pivots, plan.bland_pivots) == \
            (ref.pivots, ref.bland_pivots)
        certify(problem, plan)


@each_family
def test_objective_matches_northwest_started_reference(family):
    for problem in _family(family):
        got = solve_transport(problem).objective
        want = reference_solve(problem, start="northwest").objective
        assert math.isclose(got, want, rel_tol=1e-12)


def test_least_cost_start_cuts_median_pivots_threefold():
    family = [f[0] for f in FAMILIES].index("unit embedding 30x30")
    problems = _family(family)
    least_cost = [solve_transport(p).pivots for p in problems]
    northwest = [reference_solve(p, start="northwest").pivots
                 for p in problems]
    assert np.median(least_cost) <= np.median(northwest) / 3


# Found by a seeded hill-climb over 10 x 10 assignments and pinned here:
# cost = 10 ** (k / 4) for the exponents k below, 0 on the diagonal. The
# start is already the optimal flow (the identity), so every pivot is
# degenerate, and the streak reaches the 2 * (10 + 10) degenerate pivots
# after which pricing switches to Bland's rule.
BLAND_EXPONENTS = """
  0 -12  12  12  12  -9  -5  12  12  12
 12   0  12  12  -9  12 -12  12  12 -11
 12  12   0  -1  12  12  12  -7  12  12
 -9  -1  -6   0 -12  12  -7  12   2  12
 -2  -9  12  12   0  -8  -2 -11  12  12
  2  12 -12  12  -9   0  12  12  12  12
 12  12  12  12  12 -11   0  12  12  12
-12  12  -7  12  12  -9  -8   0  -7  12
-10  -3  -4  12  12  12  12  12   0  12
 12   3  -2   4   2 -10  12   3   4   0
"""


def test_degenerate_streak_falls_back_to_bland():
    k = np.array(BLAND_EXPONENTS.split(), dtype=float).reshape(10, 10)
    cost = 10.0 ** (k / 4)
    np.fill_diagonal(cost, 0.0)
    problem = TransportProblem(np.full(10, 0.1), np.full(10, 0.1), cost)
    plan = solve_transport(problem)
    assert plan.bland_pivots > 0
    assert plan.objective == 0.0
    ref = reference_solve(problem)
    assert plan == ref
    assert (plan.pivots, plan.bland_pivots) == (ref.pivots, ref.bland_pivots)
    certify(problem, plan)


def _highs_objective(problem: TransportProblem) -> float:
    ns, nt = problem.supply.size, problem.demand.size
    rows = sparse.kron(sparse.eye(ns), np.ones((1, nt)))
    # the last demand constraint is implied by balance; dropping it keeps
    # the system consistent under floating-point marginals
    cols = sparse.kron(np.ones((1, ns)), sparse.eye(nt)).tocsr()[:-1]
    res = linprog(problem.cost.ravel(),
                  A_eq=sparse.vstack([rows, cols]).tocsr(),
                  b_eq=np.concatenate([problem.supply, problem.demand[:-1]]),
                  method="highs")
    assert res.status == 0, res.message
    return float(res.fun)


def _integer_cost_problem(rng, ns, nt):
    supply = rng.multinomial(4096, np.ones(ns) / ns) / 4096
    demand = rng.multinomial(4096, np.ones(nt) / nt) / 4096
    cost = rng.integers(0, 10, size=(ns, nt)).astype(float)
    return TransportProblem(supply, demand, cost)


@pytest.mark.parametrize("seed,ns,nt,kind", [
    (1, 40, 55, "euclidean"),
    (2, 90, 70, "euclidean"),
    (3, 150, 150, "euclidean"),
    (4, 60, 80, "integer"),
    (5, 150, 140, "integer"),
])
def test_matches_highs_beyond_brute_force_limit(seed, ns, nt, kind):
    rng = np.random.default_rng(seed)
    problem = (_unit_embedding_problem(rng, ns, nt) if kind == "euclidean"
               else _integer_cost_problem(rng, ns, nt))
    plan = solve_transport(problem)
    want = _highs_objective(problem)
    assert math.isclose(plan.objective, want, rel_tol=1e-12)
    certify(problem, plan)
