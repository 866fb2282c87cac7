"""Exact linear assignment by the Jonker–Volgenant method, with deterministic
tie-breaking.

The solver (Jonker & Volgenant 1987) finds optimal column dual potentials v
in three phases: column reduction with reduction transfer, two passes of
augmenting row reduction, and shortest augmenting paths for the rows still
free. Each phase works on whole rows of reduced costs ``cost[i] - v`` at once.
The shortest-path search relaxes the open columns once per finalized
column, tied columns in one reduction, and rebuilds predecessors for the
augmenting path only, so each of its steps is a handful of NumPy calls.

Among all assignments within a tolerance tol (1e-9 of the largest |cost|) of
the optimum, the lexicographically smallest permutation is returned, with
the one exception below. Such an
assignment has total slack at most tol under any optimal dual, so all its
edges are tight; the result is found by restricting to the edges whose
reduced cost is within tol of their row's minimum and extracting the
lex-minimal perfect matching there, and in the usual case it does not depend
on which optimal dual the solver ended at. The tight edges can also hold a
lex-smaller matching up to n*tol from the optimum, and whether they do
depends on the duals. Such a matching is rejected: the solver's own matching
is returned instead, which keeps the objective within tol of the optimum but
leaves that one choice to the solver's path.

A solve can start from the column duals of an earlier one (`_warm_start`),
which saves most of the work on a slowly changing sequence of costs such as
weight matching's.
"""
from dataclasses import dataclass

import numpy as np

SENSES = ("minimize", "maximize")


@dataclass
class Assignment:
    perm: np.ndarray        # perm[i] = column assigned to row i
    objective: float
    sense: str


class _WarmCost(np.ndarray):
    """A cost matrix carrying column duals: `solve_lap` starts from `duals`
    (None for a cold start) and replaces them with the duals it ends at."""
    duals = None


def _warm_start(cost, duals):
    """View of cost whose `solve_lap` starts from, and updates, `duals`.

    The duals are in the sense the solver minimizes, so one sequence of warm
    solves must keep one sense. The duals travel on the cost, not in a new
    argument or function, so every solve, warm or cold, is a `solve_lap`
    call, which is what traced benchmark runs count and time.
    """
    warm = np.asarray(cost).view(_WarmCost)
    warm.duals = duals
    return warm


def _column_reduction(cost):
    """Cold start: v is each column's minimum, each row takes the first
    column it is the minimum of, and each assigned row then lowers its
    column's potential until its second-best column ties (reduction
    transfer). Returns (x, y, v): x[i] is row i's column and y[j] column j's
    row, -1 while unassigned."""
    n = cost.shape[0]
    rows = cost.argmin(axis=0)
    v = cost[rows, np.arange(n)]
    owners, cols = np.unique(rows, return_index=True)
    x = np.full(n, -1, dtype=np.int64)
    y = np.full(n, -1, dtype=np.int64)
    x[owners] = cols
    y[cols] = owners
    if n > 1:
        red = cost[owners] - v
        red[np.arange(len(owners)), cols] = np.inf
        # every other column only gets dearer, so each assigned column stays
        # a row minimum of its owner
        v[cols] -= red.min(axis=1)
    return x, y, v


def _augmenting_row_reduction(cost, free, x, y, v):
    """One pass of augmenting row reduction over the free rows.

    Each free row takes its cheapest reduced column j1 and lowers v[j1] until
    its second-cheapest ties; a row displaced by a strict lowering is retried
    at once, one displaced by a tie waits for the next pass. Returns the rows
    left free.
    """
    n = cost.shape[0]
    free = list(free)
    still_free = []
    # retries allowed on top of one step a row; Jonker and Volgenant allow
    # k*n, which on rank-1 costs spends O(n^2) steps and frees few rows
    budget = len(free) + n
    k = steps = 0
    while k < len(free):
        i = free[k]
        k += 1
        steps += 1
        red = cost[i] - v
        j1 = red.argmin()
        u1 = red[j1]
        red[j1] = np.inf
        j2 = red.argmin()
        u2 = red[j2]
        i0 = y[j1]
        lowers = u1 < u2
        if steps < budget:
            if lowers:
                v[j1] -= u2 - u1
            elif i0 >= 0:
                j1, i0 = j2, y[j2]
            if i0 >= 0:
                if lowers:
                    k -= 1
                    free[k] = i0
                else:
                    still_free.append(i0)
        elif i0 >= 0:
            still_free.append(i0)
        if i0 >= 0:
            x[i0] = -1
        x[i] = j1
        y[j1] = i
    return still_free


def _augment(cost, i, x, y, v):
    """Assign free row i along a shortest augmenting path (Dijkstra on the
    reduced costs cost - v), then lower v on the columns whose distance was
    final so every assigned row keeps its column as a reduced-row minimum.

    Each step finalizes the open columns at the least distance and relaxes
    the open ones through their owners once: one row for a single column,
    one (k, n) minimum for k tied columns. The search keeps no predecessors.
    It logs each scanned row instead, and once the free end is found it
    rebuilds the predecessors of the path's columns alone. A column's
    predecessor is the first row in scan order, starting with i, that
    reaches it at its distance among the rows scanned before it became
    final: the row a strict `<` update on every relaxation would have kept.
    """
    n = cost.shape[0]
    open_dist = cost[i] - v             # +inf once a column's distance is final
    v_open = v.copy()                   # -inf on final columns, so they never relax
    # per scanned row in scan order: the row, its offset (distance to its
    # column less that column's reduced cost), and how many rows were
    # scanned before its column became final; i comes first, offset 0
    rows, offsets, before = [i], [0.0], [0]
    dists = []                          # each scanned row's column's distance
    while True:
        j = open_dist.argmin()
        mind = open_dist.item(j)
        todo = (open_dist == mind).nonzero()[0]
        if len(todo) == 1:
            r = y.item(j)
            if r < 0:
                end = j
                break
            open_dist[j] = np.inf
            v_open[j] = -np.inf
            owners, offs = [r], [mind - (cost.item(r, j) - v.item(j))]
            via = cost[r] - v_open
            via += offs[0]
        else:
            owners = y[todo]
            k = owners.argmin()
            if owners[k] < 0:
                end = todo[k]
                break
            open_dist[todo] = np.inf
            v_open[todo] = -np.inf
            offs = mind - (cost[owners, todo] - v[todo])
            via = cost[owners] - v_open
            via += offs[:, None]
            # reduced last row first, so that the earliest row wins a tie,
            # as under `<`: np.minimum returns its second operand on equal
            # inputs, which only a zero's sign tells apart
            via = np.minimum.reduce(via[::-1])
            owners, offs = owners.tolist(), offs.tolist()
        # open_dist keeps its value on a tie, as under `<`
        np.minimum(via, open_dist, out=open_dist)
        before += [len(rows)] * len(owners)
        rows += owners
        offsets += offs
        dists += [mind] * len(owners)
    rows = np.array(rows)
    offsets = np.array(offsets)
    dist = np.full(n, np.inf)           # final distances
    dist[x[rows[1:]]] = dists
    # walk back from the free end, each column's predecessor among the rows
    # logged before it became final
    j, m = end, len(rows)
    while m > 1:
        via = cost[rows[:m], j] - v[j]
        via += offsets[:m]
        p = via.argmin()
        if p == 0:
            break
        r = rows[p]
        y[j] = r
        x[r], j = j, x[r]
        m = before[p]
    y[j] = i
    x[i] = j
    v += np.minimum(dist - mind, 0.0)


def _jv_solve(cost, v=None):
    """Returns (row_to_col, v) for the minimize sense, starting from the
    column duals v when given (warm start) or from column reduction."""
    n = cost.shape[0]
    if v is None:
        x, y, v = _column_reduction(cost)
    else:
        x = np.full(n, -1, dtype=np.int64)
        y = np.full(n, -1, dtype=np.int64)
        v = np.array(v, dtype=np.float64)
    free = np.flatnonzero(x < 0)
    if n > 1:
        for _ in range(2):
            free = _augmenting_row_reduction(cost, free, x, y, v)
    for i in free:
        _augment(cost, i, x, y, v)
    return x, v


def _lex_min_matching(tight, row_to_col):
    """Lexicographically smallest perfect matching inside a bipartite graph
    that is known to contain one (row_to_col).

    Rows are fixed in order. Row i may take a tight column c below its current
    one when the rows after i can rematch along an alternating path from c to
    the column i frees; one breadth-first search per row, backwards from the
    freed column over the rows after i, finds every such c at once, so the
    whole pass costs at most O(n^3) boolean work and no recursion.
    """
    n = len(row_to_col)
    match_row = row_to_col.copy()
    match_col = np.empty(n, dtype=np.int64)
    match_col[match_row] = np.arange(n)
    first_tight = tight.argmax(axis=1)
    by_col = np.ascontiguousarray(tight.T)
    nxt = np.empty(n, dtype=np.int64)   # column a row moves to when freed
    for i in range(n - 1):
        cur = match_row[i]
        if first_tight[i] >= cur:
            continue
        adj = tight[i, :cur].nonzero()[0]
        targets = adj[match_col[adj] > i]   # columns of rows before i are fixed
        if targets.size == 0:
            continue
        reached = np.zeros(n, dtype=bool)
        reached[cur] = True
        movable = np.zeros(n, dtype=bool)
        movable[i + 1:] = True
        frontier = np.array([cur])
        while frontier.size and not reached[targets[0]]:
            sub = by_col[frontier]
            rows = (sub.any(axis=0) & movable).nonzero()[0]
            cols = match_row[rows]
            nxt[cols] = frontier[sub[:, rows].argmax(axis=0)]
            reached[cols] = True
            movable[rows] = False
            frontier = cols
        hits = targets[reached[targets]]
        if hits.size == 0:
            continue
        path = [int(hits[0])]
        while path[-1] != cur:
            path.append(int(nxt[path[-1]]))
        path = np.asarray(path)
        movers = np.concatenate(([i], match_col[path[:-1]]))
        match_row[movers] = path
        match_col[path] = movers
    return match_row


def _tie_break(work, row_to_col, v):
    """Lexicographically smallest perm among the tight edges of the column
    duals v, or row_to_col when that perm's objective exceeds row_to_col's
    by more than the tightness tolerance (see the module docstring)."""
    rows = np.arange(work.shape[0])
    tol = 1e-9 * max(1.0, float(np.abs(work).max()))
    # u = each row's reduced minimum makes (u, v) feasible, and the solver
    # leaves every row on a column attaining it, so its matching is tight
    reduced = work - v
    tight = reduced - reduced.min(axis=1, keepdims=True) <= tol
    if not tight[rows, row_to_col].all():
        raise ArithmeticError("assignment solver lost dual feasibility")
    perm = _lex_min_matching(tight, row_to_col)
    if work[rows, perm].sum() - work[rows, row_to_col].sum() > tol:
        return row_to_col
    return perm


def solve_lap(cost, sense="minimize"):
    """Optimal assignment of rows to columns of a square cost matrix."""
    if sense not in SENSES:
        raise ValueError(f"sense must be minimize or maximize, got {sense!r}")
    warm = cost if isinstance(cost, _WarmCost) else None
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1] or cost.shape[0] == 0:
        raise ValueError(f"cost must be a nonempty square matrix, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")

    work = cost if sense == "minimize" else -cost
    row_to_col, v = _jv_solve(work, None if warm is None else warm.duals)
    if warm is not None:
        warm.duals = v
    perm = _tie_break(work, row_to_col, v)
    objective = float(cost[np.arange(cost.shape[0]), perm].sum())
    return Assignment(perm=perm, objective=objective, sense=sense)
