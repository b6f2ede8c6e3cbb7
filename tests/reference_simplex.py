"""Reference network simplex: the original full-rebuild pivot loop.

Every pivot recomputes all potentials and searches the whole tree for the
cycle. It is kept so tests can assert that the incremental solver in
``wmdlab.ot_core`` makes the same pivots and returns the same plans, bit
for bit. Its least-cost start is written apart from the solver's: each cell
is the first minimum of the costs over the still-open rows and columns.
``start="northwest"`` keeps the solver's former staircase start, so tests
can compare objectives and pivot counts across the two starts.
"""

from __future__ import annotations

import math

import numpy as np

from wmdlab.errors import SolverStalled
from wmdlab.ot_core import TransportPlan, TransportProblem, _repair_balance


def _northwest_corner(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Initial spanning-tree flow via the staircase walk (costs unused).

    Returns the flow matrix and the n_s + n_t - 1 basic cells (some may
    carry zero flow on degenerate instances).
    """
    ns, nt = supply.size, demand.size
    flow = np.zeros((ns, nt))
    basis: list[tuple[int, int]] = []
    rs = supply.copy()
    rd = demand.copy()
    i = j = 0
    while True:
        q = min(rs[i], rd[j])
        flow[i, j] = q
        basis.append((i, j))
        rs[i] -= q
        rd[j] -= q
        if i == ns - 1 and j == nt - 1:
            break
        if j == nt - 1 or (rs[i] <= rd[j] and i < ns - 1):
            i += 1
        else:
            j += 1
    return flow, basis


def _least_cost(
    supply: np.ndarray, demand: np.ndarray, cost: np.ndarray
) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """Initial spanning-tree flow via the least-cost rule.

    Each step takes the cheapest cell whose row and column are both open
    (ties -> lowest row-major index) and ships min(remaining supply,
    remaining demand) on it. The row closes when it is spent no later than
    the column and is not the last open row, or when the column is the
    last open one; otherwise the column closes. The step that meets the
    last open row and column closes both.
    """
    ns, nt = supply.size, demand.size
    flow = np.zeros((ns, nt))
    basis: list[tuple[int, int]] = []
    rs = supply.copy()
    rd = demand.copy()
    row_open = np.ones(ns, dtype=bool)
    col_open = np.ones(nt, dtype=bool)
    while True:
        open_cost = np.where(row_open[:, None] & col_open[None, :], cost,
                             np.inf)
        i, j = divmod(int(np.argmin(open_cost)), nt)
        q = min(rs[i], rd[j])
        flow[i, j] = q
        basis.append((i, j))
        rs[i] -= q
        rd[j] -= q
        n_rows, n_cols = int(row_open.sum()), int(col_open.sum())
        if n_rows == 1 and n_cols == 1:
            break
        if n_cols == 1 or (rs[i] <= rd[j] and n_rows > 1):
            row_open[i] = False
        else:
            col_open[j] = False
    return flow, basis


STARTS = {"least-cost": _least_cost, "northwest": _northwest_corner}


def _tree_duals(
    ns: int,
    nt: int,
    cost: np.ndarray,
    row_adj: list[set[int]],
    col_adj: list[set[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Potentials u, v with u_i + v_j = c_ij on every basic arc (u_0 = 0)."""
    u = np.empty(ns)
    v = np.empty(nt)
    seen_rows = np.zeros(ns, dtype=bool)
    seen_cols = np.zeros(nt, dtype=bool)
    u[0] = 0.0
    seen_rows[0] = True
    stack: list[tuple[bool, int]] = [(True, 0)]
    while stack:
        is_row, k = stack.pop()
        if is_row:
            for j in row_adj[k]:
                if not seen_cols[j]:
                    v[j] = cost[k, j] - u[k]
                    seen_cols[j] = True
                    stack.append((False, j))
        else:
            for i in col_adj[k]:
                if not seen_rows[i]:
                    u[i] = cost[i, k] - v[k]
                    seen_rows[i] = True
                    stack.append((True, i))
    return u, v


def _tree_path(
    start_row: int,
    end_col: int,
    row_adj: list[set[int]],
    col_adj: list[set[int]],
) -> list[tuple[bool, int]]:
    """Unique tree path from a source node to a target node, as (is_row, index)."""
    parent: dict[tuple[bool, int], tuple[bool, int]] = {}
    start = (True, start_row)
    goal = (False, end_col)
    stack = [start]
    seen = {start}
    while stack:
        node = stack.pop()
        if node == goal:
            break
        is_row, k = node
        nbrs = row_adj[k] if is_row else col_adj[k]
        for n in nbrs:
            nxt = (not is_row, n)
            if nxt not in seen:
                seen.add(nxt)
                parent[nxt] = node
                stack.append(nxt)
    path = [goal]
    while path[-1] != start:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def _full_potentials(
    cost: np.ndarray, rows: np.ndarray, cols: np.ndarray, u: np.ndarray,
    v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Duals over the original indices; a dropped row, then a dropped
    column, takes its tightest value that keeps every cell feasible."""
    n_rows, n_cols = cost.shape
    u_all = np.zeros(n_rows)
    v_all = np.zeros(n_cols)
    u_all[rows] = u
    v_all[cols] = v
    for i in sorted(set(range(n_rows)) - set(rows.tolist())):
        if cols.size:
            u_all[i] = min(cost[i, j] - v_all[j] for j in cols.tolist())
    for j in sorted(set(range(n_cols)) - set(cols.tolist())):
        v_all[j] = min(cost[i, j] - u_all[i] for i in range(n_rows))
    return u_all, v_all


def reference_solve(problem: TransportProblem,
                    start: str = "least-cost") -> TransportPlan:
    """Optimal coupling of a balanced transportation instance.

    Zero-mass rows and columns are dropped before solving (they carry no
    transport); the returned entries use the original indices. The
    objective is accumulated with compensated summation.
    """
    supply, demand = _repair_balance(problem)
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    if rows.size == 0 or cols.size == 0:
        u, v = _full_potentials(problem.cost, rows, cols,
                                np.zeros(rows.size), np.zeros(cols.size))
        return TransportPlan(entries=(), objective=0.0, row_potentials=u,
                             col_potentials=v, pivots=0, bland_pivots=0)
    s = supply[rows]
    d = demand[cols]
    cost = problem.cost[np.ix_(rows, cols)]
    ns, nt = s.size, d.size

    flow, basis = STARTS[start](s, d, cost)
    row_adj: list[set[int]] = [set() for _ in range(ns)]
    col_adj: list[set[int]] = [set() for _ in range(nt)]
    for i, j in basis:
        row_adj[i].add(j)
        col_adj[j].add(i)

    tol = 1e-12 * max(1.0, float(cost.max()))
    max_pivots = 100 * ns * nt + 1000
    # Dantzig entering rule (ties -> lowest arc index) for speed; a run of
    # degenerate pivots switches to Bland's lowest-index rule, which cannot
    # cycle, until an improving pivot occurs.
    bland_threshold = 2 * (ns + nt)
    degenerate_streak = 0
    pivots = bland_pivots = 0
    for _ in range(max_pivots):
        u, v = _tree_duals(ns, nt, cost, row_adj, col_adj)
        reduced = cost - u[:, None] - v[None, :]
        if degenerate_streak < bland_threshold:
            flat = int(np.argmin(reduced.ravel()))
            if reduced.ravel()[flat] >= -tol:
                break
        else:
            negative = reduced.ravel() < -tol
            if not negative.any():
                break
            flat = int(np.argmax(negative))
            bland_pivots += 1
        pivots += 1
        ei, ej = divmod(flat, nt)

        path = _tree_path(ei, ej, row_adj, col_adj)
        # Arcs along the path alternate -,+,-,... relative to the entering arc.
        minus_arcs: list[tuple[int, int]] = []
        plus_arcs: list[tuple[int, int]] = []
        for k in range(len(path) - 1):
            (a_row, a), (b_row, b) = path[k], path[k + 1]
            arc = (a, b) if a_row else (b, a)
            (minus_arcs if k % 2 == 0 else plus_arcs).append(arc)
        delta = min(flow[i, j] for i, j in minus_arcs)
        leaving = min(
            (arc for arc in minus_arcs if flow[arc] == delta),
            key=lambda arc: arc[0] * nt + arc[1],
        )
        degenerate_streak = 0 if delta > 0.0 else degenerate_streak + 1
        for i, j in plus_arcs:
            flow[i, j] += delta
        for i, j in minus_arcs:
            flow[i, j] -= delta
        flow[leaving] = 0.0
        flow[ei, ej] = delta
        row_adj[leaving[0]].discard(leaving[1])
        col_adj[leaving[1]].discard(leaving[0])
        row_adj[ei].add(ej)
        col_adj[ej].add(ei)
    else:
        raise SolverStalled(f"no convergence within {max_pivots} pivots")

    entries = []
    terms = []
    for i in range(ns):
        oi = int(rows[i])
        for j in row_adj[i]:
            m = flow[i, j]
            terms.append(cost[i, j] * m)
            if m > 0.0:
                entries.append((oi, int(cols[j]), float(m)))
    entries.sort()
    u, v = _full_potentials(problem.cost, rows, cols, u, v)
    return TransportPlan(entries=tuple(entries), objective=math.fsum(terms),
                         row_potentials=u, col_potentials=v, pivots=pivots,
                         bland_pivots=bland_pivots)
