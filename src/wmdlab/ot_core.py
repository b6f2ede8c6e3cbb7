"""Exact solver for the balanced transportation linear program.

``solve_transport`` runs a network simplex on the bipartite transportation
graph. The basis is a spanning tree rooted at the first row, started with
the northwest-corner rule and kept as parent, depth and potential arrays
over the row and column nodes. Each pivot prices every arc at once: the
entering arc is the most negative reduced cost (ties broken by lowest
row-major arc index); a streak of degenerate pivots falls back to Bland's
lowest-index rule, which cannot cycle. The cycle is found by walking both
ends of the entering arc up to their lowest common ancestor, and the
leaving arc is the lowest index among the blocking arcs. Only the subtree
cut off by the leaving arc is re-hung and has its depths and potentials
recomputed, each from its parent, so the potentials equal those of a full
tree traversal bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Sparse optimal coupling: positive-mass entries plus the optimal value."""

    entries: tuple[tuple[int, int, float], ...]
    objective: float


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


def _northwest_corner(
    supply: list[float], demand: list[float]
) -> list[tuple[int, int, float]]:
    """Initial basis via the staircase walk.

    Returns the n_s + n_t - 1 basic cells as (row, col, flow) in walk order
    (some may carry zero flow on degenerate instances). Each cell after the
    first adds exactly one new row or column to the tree.
    """
    ns, nt = len(supply), len(demand)
    cells: list[tuple[int, int, float]] = []
    rs = list(supply)
    rd = list(demand)
    i = j = 0
    while True:
        q = min(rs[i], rd[j])
        cells.append((i, j, q))
        rs[i] -= q
        rd[j] -= q
        if i == ns - 1 and j == nt - 1:
            break
        if j == nt - 1 or (rs[i] <= rd[j] and i < ns - 1):
            i += 1
        else:
            j += 1
    return cells


def solve_transport(problem: TransportProblem) -> TransportPlan:
    """Optimal coupling of a balanced transportation instance.

    Zero-mass rows and columns are dropped before solving (they carry no
    transport); the returned entries use the original indices. The
    objective is accumulated with compensated summation.
    """
    supply, demand = _repair_balance(problem)
    rows = np.flatnonzero(supply > 0)
    cols = np.flatnonzero(demand > 0)
    if rows.size == 0 or cols.size == 0:
        return TransportPlan(entries=(), objective=0.0)
    cost = problem.cost[np.ix_(rows, cols)]
    ns, nt = rows.size, cols.size
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
    prev_i = 0
    for i, j, q in _northwest_corner(supply[rows].tolist(),
                                     demand[cols].tolist()):
        arc = i * nt + j
        flow[arc] = q
        child, up = (i, ns + j) if i != prev_i else (ns + j, i)
        prev_i = i
        parent[child], parc[child] = up, arc
        depth[child] = depth[up] + 1
        pot[child] = c[arc] - pot[up]
        adj[child][up] = adj[up][child] = arc

    tol = 1e-12 * max(1.0, float(cost.max()))
    max_pivots = 100 * ns * nt + 1000
    reduced = np.empty_like(cost)
    flat_reduced = reduced.ravel()
    # Dantzig entering rule (ties -> lowest arc index) for speed; a run of
    # degenerate pivots switches to Bland's lowest-index rule, which cannot
    # cycle, until an improving pivot occurs.
    bland_threshold = 2 * (ns + nt)
    degenerate_streak = 0
    for _ in range(max_pivots):
        np.subtract(cost, np.array(pot[:ns])[:, None], out=reduced)
        np.subtract(reduced, np.array(pot[ns:]), out=reduced)
        if degenerate_streak < bland_threshold:
            enter = int(flat_reduced.argmin())
            if flat_reduced[enter] >= -tol:
                break
        else:
            negative = flat_reduced < -tol
            if not negative.any():
                break
            enter = int(negative.argmax())
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
        # end inside it, resetting parents, depths and potentials top-down.
        up = parent[leave_node]
        del adj[leave_node][up], adj[up][leave_node]
        a, b = (ei, ns + ej) if from_x else (ns + ej, ei)
        adj[a][b] = adj[b][a] = enter
        parent[a], parc[a] = b, enter
        depth[a] = depth[b] + 1
        pot[a] = c[enter] - pot[b]
        stack = [a]
        while stack:
            x = stack.pop()
            px, dx, ux = parent[x], depth[x] + 1, pot[x]
            for y, arc in adj[x].items():
                if y != px:
                    parent[y], parc[y], depth[y] = x, arc, dx
                    pot[y] = c[arc] - ux
                    stack.append(y)
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
    return TransportPlan(entries=tuple(entries), objective=math.fsum(terms))
