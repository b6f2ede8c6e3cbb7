"""Reference optima for transportation instances.

``brute_force_transport`` is a deliberately independent cross-check of
``wmdlab.ot_core.solve_transport``: exhaustive vertex enumeration for tiny
instances, an LP solve through SciPy's HiGHS simplex for the rest of its
size range. ``ot_uniform`` is the closed form of the uniform-cost geometry.
Only the tests use them, so the library does not import SciPy's optimizer.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import linprog

from wmdlab.errors import DimMismatch, SolverStalled, WmdlabError
from wmdlab.ot_core import TransportProblem, _repair_balance
from wmdlab.textrep import SparseVector, VectorMetric, vector_distance

_MARGINAL_TOL = 1e-9

BRUTE_FORCE_CELL_LIMIT = 36
# Largest instance routed to exhaustive vertex enumeration; bigger ones
# (still within the cell limit) go through the LP fallback.
ENUMERATION_CELL_LIMIT = 9


class TooLarge(WmdlabError):
    """Instance exceeds the size bound of an exhaustive routine."""


class NotNormalized(WmdlabError):
    """A vector expected to sum to one does not."""


def _enumerate_min_cost(
    supply: list[float], demand: list[float], cost: np.ndarray
) -> float:
    """Exhaustive vertex enumeration by peeling leaf nodes of support forests.

    Every vertex of the transportation polytope has forest support, and any
    forest can be dismantled one leaf at a time; at a leaf its single arc
    carries the leaf's full residual. Branching over all (arc, leaf side)
    choices therefore visits every vertex.
    """
    best = math.inf

    def recurse(rows: list[tuple[int, float]], cols: list[tuple[int, float]],
                acc: float) -> None:
        nonlocal best
        if not rows or not cols:
            best = min(best, acc)
            return
        for ri, (i, si) in enumerate(rows):
            for ci, (j, dj) in enumerate(cols):
                c = cost[i, j]
                if si <= dj:
                    rest_rows = rows[:ri] + rows[ri + 1:]
                    new_cols = cols.copy()
                    new_cols[ci] = (j, dj - si)
                    recurse(rest_rows, new_cols, acc + c * si)
                if dj <= si:
                    rest_cols = cols[:ci] + cols[ci + 1:]
                    new_rows = rows.copy()
                    new_rows[ri] = (i, si - dj)
                    recurse(new_rows, rest_cols, acc + c * dj)

    recurse(list(enumerate(supply)), list(enumerate(demand)), 0.0)
    return best


def _linprog_min_cost(s: np.ndarray, d: np.ndarray, cost: np.ndarray) -> float:
    ns, nt = s.size, d.size
    n = ns * nt
    a_eq = np.zeros((ns + nt - 1, n))
    b_eq = np.zeros(ns + nt - 1)
    for i in range(ns):
        a_eq[i, i * nt:(i + 1) * nt] = 1.0
        b_eq[i] = s[i]
    # Last demand constraint is implied by balance; dropping it keeps the
    # system consistent under floating-point marginals.
    for j in range(nt - 1):
        a_eq[ns + j, j::nt] = 1.0
        b_eq[ns + j] = d[j]
    res = linprog(cost.ravel(), A_eq=a_eq, b_eq=b_eq, method="highs")
    if res.status != 0:
        raise SolverStalled(f"LP reference solve failed: {res.message}")
    return float(res.fun)


def brute_force_transport(problem: TransportProblem) -> float:
    """Reference optimum for small instances, independent of solve_transport.

    Instances up to ENUMERATION_CELL_LIMIT cells are solved by exhaustive
    vertex enumeration; larger ones (up to BRUTE_FORCE_CELL_LIMIT cells)
    by an LP solve with a different algorithm family.
    """
    if problem.supply.size * problem.demand.size > BRUTE_FORCE_CELL_LIMIT:
        raise TooLarge(
            f"{problem.supply.size}x{problem.demand.size} exceeds "
            f"{BRUTE_FORCE_CELL_LIMIT} cells"
        )
    supply, demand = _repair_balance(problem)
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    if rows.size == 0 or cols.size == 0:
        return 0.0
    s = supply[rows]
    d = demand[cols]
    cost = problem.cost[np.ix_(rows, cols)]
    if s.size * d.size <= ENUMERATION_CELL_LIMIT:
        return _enumerate_min_cost(s.tolist(), d.tolist(), cost)
    return _linprog_min_cost(s, d, cost)


def uniform_cost_matrix(n: int) -> np.ndarray:
    """Cost matrix with zero diagonal and 2 off the diagonal.

    This is the word-to-word geometry induced by mutually orthogonal unit
    embeddings scaled to diameter 2: staying on a word is free, any move
    costs the maximum.
    """
    return 2.0 * (np.ones((n, n)) - np.eye(n))


def ot_uniform(x: SparseVector, y: SparseVector) -> float:
    """Transport cost between L1-normalized vectors under the uniform geometry.

    Under the 0/2 cost matrix the optimal plan keeps min(x_i, y_i) in place
    for every coordinate, so the optimum collapses to the closed form
    ||x - y||_1; no LP solve is needed.
    """
    if x.dim != y.dim:
        raise DimMismatch(f"dimensions differ: {x.dim} != {y.dim}")
    for name, vec in (("x", x), ("y", y)):
        total = math.fsum(vec.values.tolist())
        if abs(total - 1.0) > _MARGINAL_TOL:
            raise NotNormalized(f"{name} sums to {total!r}, expected 1")
    return vector_distance(x, y, VectorMetric.L1)
