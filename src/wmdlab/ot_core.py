"""Exact solver for the balanced transportation linear program.

``solve_transport`` runs a network simplex on the bipartite transportation
graph. The basis is a spanning tree rooted at the first row, kept as
parent, depth and potential arrays over the row and column nodes. It
starts from the least-cost rule: cells in ascending cost, each shipping
the lesser of its row's remaining supply and its column's remaining
demand and closing one of the two, so the start already follows the
costs. Each pivot prices every arc at once: the entering arc is the most
negative reduced cost (ties broken by lowest row-major arc index); a
streak of degenerate pivots falls back to Bland's lowest-index rule, which
cannot cycle. The cycle is found by walking both ends of the entering arc
up to their lowest common ancestor, and the leaving arc is the lowest
index among the blocking arcs. Only the subtree cut off by the leaving arc
is re-hung, by the same walk that hangs the starting tree, and has its
depths and potentials recomputed, each from its parent; potentials depend
only on the tree path, so they equal those of a full traversal bit for
bit.

The returned plan carries its certificate: the final potentials are
optimal duals u, v with u_i + v_j <= c_ij on every cell (to the pricing
tolerance), equality on the support, and the objective equal to
u . supply + v . demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, SolverStalled, UnbalancedProblem

BALANCE_TOL = 1e-9


@dataclass(frozen=True)
class TransportProblem:
    """Balanced transportation instance: supply, demand, and arc costs."""

    supply: np.ndarray
    demand: np.ndarray
    cost: np.ndarray

    def __post_init__(self):
        supply = np.atleast_1d(np.asarray(self.supply, dtype=np.float64))
        demand = np.atleast_1d(np.asarray(self.demand, dtype=np.float64))
        cost = np.asarray(self.cost, dtype=np.float64)
        if cost.ndim != 2 or cost.shape != (supply.size, demand.size):
            raise InvalidInput(
                f"cost shape {cost.shape} does not match "
                f"({supply.size}, {demand.size})"
            )
        supply_list, demand_list = supply.tolist(), demand.tolist()
        # A finite fsum means finite entries, so a few cheap reductions show
        # that every entry is valid; otherwise the checks run one by one,
        # for their order and messages.
        try:
            ssum, dsum = math.fsum(supply_list), math.fsum(demand_list)
            valid = (math.isfinite(ssum) and math.isfinite(dsum)
                     and min(supply_list, default=0.0) >= 0
                     and min(demand_list, default=0.0) >= 0
                     and (cost.size == 0
                          or (cost.min() >= 0 and cost.max() < math.inf)))
        except (TypeError, ValueError, OverflowError):
            valid = False
        if not valid:
            _check_entries(supply, demand, cost)
            ssum, dsum = math.fsum(supply_list), math.fsum(demand_list)
        if abs(ssum - dsum) > BALANCE_TOL:
            raise UnbalancedProblem(
                f"supply total {ssum!r} and demand total {dsum!r} differ by "
                f"{abs(ssum - dsum):.3e} (> {BALANCE_TOL:.0e})"
            )
        object.__setattr__(self, "supply", supply)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "cost", cost)


def _check_entries(supply: np.ndarray, demand: np.ndarray,
                   cost: np.ndarray) -> None:
    for name, arr in (("supply", supply), ("demand", demand), ("cost", cost)):
        if not np.all(np.isfinite(arr)):
            raise InvalidInput(f"{name} contains NaN or infinite entries")
        if np.any(arr < 0):
            raise InvalidInput(f"{name} contains negative entries")


@dataclass(frozen=True)
class TransportPlan:
    """Sparse optimal coupling: positive-mass entries plus the optimal value.

    ``row_potentials`` and ``col_potentials`` are the optimal duals u and v
    over the original indices, the plan's certificate: u_i + v_j <= c_ij on
    every cell, with equality on the support, and the objective equals
    u . supply + v . demand. ``pivots`` counts the simplex pivots and
    ``bland_pivots`` those chosen by Bland's rule.
    """

    entries: tuple[tuple[int, int, float], ...]
    objective: float
    row_potentials: np.ndarray = field(compare=False, repr=False)
    col_potentials: np.ndarray = field(compare=False, repr=False)
    pivots: int = field(compare=False)
    bland_pivots: int = field(compare=False)


def _repair_balance(problem: TransportProblem) -> tuple[np.ndarray, np.ndarray]:
    """Rescale near-balanced marginals so their totals agree exactly.

    Marginals come from floating-point L1 normalization and rarely balance
    to the last bit; dividing each side by its own total removes the
    mismatch. Exactly balanced inputs are passed through untouched.
    """
    supply, demand = problem.supply, problem.demand
    ssum = math.fsum(supply.tolist())
    dsum = math.fsum(demand.tolist())
    if ssum == dsum or ssum == 0.0 or dsum == 0.0:
        return supply, demand
    return supply / ssum, demand / dsum


def _least_cost_start(supply: list[float], demand: list[float],
                      cost: np.ndarray) -> list[tuple[int, float]]:
    """Initial basis by the least-cost rule.

    Cells are taken in ascending cost, ties by lower row-major index; each
    ships min(remaining supply, remaining demand) and closes one of its
    lines: the row when it is spent first and another row is open, or when
    its column is the last open one; otherwise the column. The last cell
    closes both. Returns the n_s + n_t - 1 basic cells as (arc, flow), some
    with zero flow on degenerate instances. They form a spanning tree: no
    later cell meets the line a cell closes.
    """
    ns, nt = len(supply), len(demand)
    rs, rd = list(supply), list(demand)
    row_open, col_open = [True] * ns, [True] * nt
    open_rows, open_cols = ns, nt
    cells: list[tuple[int, float]] = []
    for arc in np.argsort(cost, axis=None, kind="stable").tolist():
        i, j = divmod(arc, nt)
        if not (row_open[i] and col_open[j]):
            continue
        q = min(rs[i], rd[j])
        cells.append((arc, q))
        if open_rows == open_cols == 1:
            break
        rs[i] -= q
        rd[j] -= q
        if open_cols == 1 or (rs[i] <= rd[j] and open_rows > 1):
            row_open[i] = False
            open_rows -= 1
        else:
            col_open[j] = False
            open_cols -= 1
    return cells


def _hang(root: int, adj: list[dict[int, int]], parent: list[int],
          parc: list[int], depth: list[int], pot: list[float],
          c: list[float]) -> None:
    """Hang the tree below ``root`` from it: every node beneath gets its
    parent, parent arc, depth and potential, each from its parent's."""
    stack = [root]
    while stack:
        x = stack.pop()
        px, dx, ux = parent[x], depth[x] + 1, pot[x]
        for y, arc in adj[x].items():
            if y != px:
                parent[y], parc[y], depth[y] = x, arc, dx
                pot[y] = c[arc] - ux
                stack.append(y)


def _potentials(cost: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                pot: list[float]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column potentials over the original indices.

    Kept rows and columns take their tree potentials. A dropped zero-mass
    row takes its tightest feasible value against the kept columns,
    min_j(c_ij - v_j); a dropped column then takes min_i(c_ij - u_i) over
    every row.
    """
    u = np.zeros(cost.shape[0])
    v = np.zeros(cost.shape[1])
    u[rows] = pot[:rows.size]
    v[cols] = pot[rows.size:]
    if rows.size < u.size and cols.size:
        dropped = np.ones(u.size, dtype=bool)
        dropped[rows] = False
        u[dropped] = (cost[dropped][:, cols] - v[cols]).min(axis=1)
    if cols.size < v.size and u.size:
        dropped = np.ones(v.size, dtype=bool)
        dropped[cols] = False
        v[dropped] = (cost[:, dropped] - u[:, None]).min(axis=0)
    return u, v


def solve_transport(problem: TransportProblem) -> TransportPlan:
    """Optimal coupling of a balanced transportation instance.

    Zero-mass rows and columns are dropped before solving (they carry no
    transport); the returned entries and potentials use the original
    indices. The objective is accumulated with compensated summation.
    """
    supply, demand = _repair_balance(problem)
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    if rows.size == 0 or cols.size == 0:
        u, v = _potentials(problem.cost, rows, cols,
                           [0.0] * (rows.size + cols.size))
        return TransportPlan(entries=(), objective=0.0, row_potentials=u,
                             col_potentials=v, pivots=0, bland_pivots=0)
    ns, nt = rows.size, cols.size
    cost = problem.cost if (ns, nt) == problem.cost.shape \
        else problem.cost[np.ix_(rows, cols)]
    c = cost.ravel().tolist()

    # Tree nodes: rows 0..ns-1, then columns ns..ns+nt-1; the root is row 0
    # with potential 0. Arc (i, j) is keyed by its flat index i * nt + j.
    n = ns + nt
    parent = [-1] * n
    parc = [-1] * n  # arc to the parent
    depth = [0] * n
    pot = [0.0] * n
    adj: list[dict[int, int]] = [{} for _ in range(n)]  # neighbour -> arc
    flow: dict[int, float] = {}
    for arc, q in _least_cost_start(supply[rows].tolist(),
                                    demand[cols].tolist(), cost):
        flow[arc] = q
        i, j = divmod(arc, nt)
        adj[i][ns + j] = adj[ns + j][i] = arc
    _hang(0, adj, parent, parc, depth, pot, c)

    tol = 1e-12 * max(1.0, float(cost.max()))
    max_pivots = 100 * ns * nt + 1000
    reduced = np.empty(cost.shape)  # C order, whatever the cost's layout
    flat_reduced = reduced.ravel()
    # Dantzig entering rule (ties -> lowest arc index) for speed; a run of
    # degenerate pivots switches to Bland's lowest-index rule, which cannot
    # cycle, until an improving pivot occurs.
    bland_threshold = 2 * (ns + nt)
    degenerate_streak = 0
    bland_pivots = 0
    for pivots in range(max_pivots):
        p = np.array(pot)
        np.subtract(cost, p[:ns, None], out=reduced)
        np.subtract(reduced, p[ns:], out=reduced)
        if degenerate_streak < bland_threshold:
            enter = int(flat_reduced.argmin())
            if flat_reduced[enter] >= -tol:
                break
        else:
            negative = flat_reduced < -tol
            if not negative.any():
                break
            enter = int(negative.argmax())
            bland_pivots += 1
        ei, ej = divmod(enter, nt)

        # Walk both ends up to their lowest common ancestor. Around the cycle
        # the arcs alternate -,+,-,... from either end, starting with -.
        # The leaving arc is the lowest index among the minus arcs of least
        # flow; leave_node is its lower end, the root of the subtree it cuts.
        x, y = ei, ns + ej
        kx = ky = 0
        plus: list[int] = []
        minus: list[int] = []
        delta = math.inf
        leave = leave_node = -1
        from_x = True
        while x != y:
            if depth[x] >= depth[y]:
                node, on_x, k = x, True, kx
                x, kx = parent[x], kx + 1
            else:
                node, on_x, k = y, False, ky
                y, ky = parent[y], ky + 1
            arc = parc[node]
            if k % 2:
                plus.append(arc)
                continue
            minus.append(arc)
            f = flow[arc]
            if f < delta or (f == delta and arc < leave):
                delta, leave, leave_node, from_x = f, arc, node, on_x
        if delta > 0.0:
            degenerate_streak = 0
            for arc in plus:
                flow[arc] += delta
            for arc in minus:
                flow[arc] -= delta
        else:
            degenerate_streak += 1
        del flow[leave]
        flow[enter] = delta

        # Swap the arcs, then re-hang the cut subtree from the entering arc's
        # end inside it.
        up = parent[leave_node]
        del adj[leave_node][up], adj[up][leave_node]
        a, b = (ei, ns + ej) if from_x else (ns + ej, ei)
        adj[a][b] = adj[b][a] = enter
        parent[a], parc[a] = b, enter
        depth[a] = depth[b] + 1
        pot[a] = c[enter] - pot[b]
        _hang(a, adj, parent, parc, depth, pot, c)
    else:
        raise SolverStalled(f"no convergence within {max_pivots} pivots")

    row_ids = rows.tolist()
    col_ids = cols.tolist()
    entries = []
    terms = []
    for arc, m in flow.items():
        terms.append(c[arc] * m)
        if m > 0.0:
            i, j = divmod(arc, nt)
            entries.append((row_ids[i], col_ids[j], m))
    entries.sort()
    u, v = _potentials(problem.cost, rows, cols, pot)
    return TransportPlan(entries=tuple(entries), objective=math.fsum(terms),
                         row_potentials=u, col_potentials=v, pivots=pivots,
                         bland_pivots=bland_pivots)
