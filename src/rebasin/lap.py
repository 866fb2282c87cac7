"""Exact linear assignment by the Jonker–Volgenant method, with deterministic
tie-breaking.

The solver (Jonker & Volgenant 1987) finds optimal column dual potentials v
in three phases: column reduction with reduction transfer, two passes of
augmenting row reduction, and shortest augmenting paths for the rows still
free. Each phase works on whole rows of reduced costs ``cost[i] - v`` at once.
The shortest-path search relaxes the open columns once per finalized
column, tied columns in one reduction, and rebuilds predecessors for the
augmenting path only, so each of its steps is a handful of NumPy calls.

A cold solve whose first two phases leave many rows to searches that must
run through assigned columns (more than n/8 of them, and more than 32; see
`_auction_pays`) starts over from better duals: those of an epsilon-scaling
Jacobi auction (Bertsekas 1988) in which every unassigned row bids at once.
Only its column prices go on, as the duals of a warm start that augmenting
row reduction and the searches finish exactly. On the costs of weight and
activation matching this halves the solve time or better. A random cost
leaves too few rows to the searches, and integer ties or many dead units
can leave most of them a free column at their reduced minimum; such solves
take the plain path.

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
leaves that one choice to the solver's path. The same holds whatever duals a
solve starts from, so the auction changes the path to an optimal dual but
not, outside that exception, the permutation returned.

A solve can start from the column duals an earlier one ended at
(`solve_lap(cost, duals=...)`, `Assignment.duals`), which saves most of the
work on a slowly changing sequence of costs such as weight matching's. The
duals are in the sense the solver minimizes, so one sequence of warm solves
must keep one sense.
"""
import math
from dataclasses import dataclass

import numpy as np

SENSES = ("minimize", "maximize")


@dataclass
class Assignment:
    perm: np.ndarray        # perm[i] = column assigned to row i
    objective: float
    sense: str
    duals: np.ndarray       # column duals the solver ended at, minimized sense


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
            if not owners.size:         # the least distance is NaN
                raise ArithmeticError("assignment solver met a NaN reduced cost")
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


# Each auction phase's epsilon as a fraction of the cost's spread: three
# phases, each an eighth of the last.
_AUCTION_EPS = (1 / 8, 1 / 64, 1 / 512)


def _auction_duals(cost, v):
    """Column duals from an epsilon-scaling Jacobi auction (Bertsekas 1988)
    that starts from v (not written).

    Each round every unassigned row bids at once for its cheapest reduced
    column j1: it lowers v[j1] by its margin over its second-cheapest column
    plus epsilon, and each column goes to its lowest bid (the first row on a
    tie), displacing its owner. A phase starts with every row free and ends
    once at most n/32 rows are, or after n rounds; only the duals go on. The
    bids read the cost plus a tilt below the last epsilon that differs from
    row to row, so that rows tied on many columns, as dead units are, bid
    for different ones instead of one at a time for the same.
    """
    n = cost.shape[0]
    spread = float(cost.max()) - float(cost.min())
    rows = np.arange(n)
    tilt = spread * _AUCTION_EPS[-1] / n
    cost = cost + tilt * ((rows[:, None] + rows) % n)
    v = v.copy()
    x = np.empty(n, dtype=np.int64)     # row -> column, -1 while free
    y = np.empty(n, dtype=np.int64)     # column -> row
    for frac in _AUCTION_EPS:
        eps = spread * frac
        x.fill(-1)
        y.fill(-1)
        free = rows
        for _ in range(n):
            if len(free) * 32 <= n:
                break
            k = rows[:len(free)]
            red = cost[free]
            red -= v
            j1 = red.argmin(axis=1)
            w1 = red[k, j1]
            red[k, j1] = np.inf
            bid = v[j1] - eps
            bid -= red.min(axis=1)
            bid += w1
            # one winner per column: lexsort is stable and free ascends
            order = np.lexsort((bid, j1))
            cols = j1[order]
            head = np.empty(len(cols), dtype=bool)
            head[0] = True
            np.not_equal(cols[1:], cols[:-1], out=head[1:])
            order, cols = order[head], cols[head]
            v[cols] = bid[order]
            lost = y[cols]
            x[lost[lost >= 0]] = -1
            x[free[order]] = cols
            y[cols] = free[order]
            free = np.flatnonzero(x < 0)
    return v


def _auction_pays(cost, free, y, v):
    """Whether a cold solve should start over from auction duals, once
    column reduction and augmenting row reduction have left the rows `free`
    unassigned under the duals v (y: column -> row, -1 while free).

    It counts the free rows whose search must run through assigned columns:
    the live ones (a constant row, such as a dead unit's, ties every column,
    so no price moves it), less as many as can take a free column at their
    reduced minimum, which is no more than the rows with such a column and
    no more than such columns. When more than n/8 of the rows, and more than
    32, are left, their searches cost more than the auction's rounds. The
    auction also needs n times the cost's spread to be finite, which keeps
    its bids far from overflow."""
    n = cost.shape[0]
    least = max(n, 256) // 8
    if len(free) <= least:
        return False
    rest = cost[free]
    rest = rest[rest.max(axis=1) > rest.min(axis=1)]
    red = rest - v
    at_free = (red <= red.min(axis=1, keepdims=True))[:, y < 0]
    served = min(np.count_nonzero(at_free.any(axis=1)), np.count_nonzero(at_free.any(axis=0)))
    return (len(rest) - served > least
            and math.isfinite(n * (float(cost.max()) - float(cost.min()))))


def _jv_solve(cost, v=None):
    """Returns (row_to_col, v) for the minimize sense, starting from the
    column duals v when given (warm start) or from column reduction, and
    then from auction duals when `_auction_pays`."""
    n = cost.shape[0]
    cold = v is None
    if cold:
        x, y, v = _column_reduction(cost)
    else:
        x = np.full(n, -1, dtype=np.int64)
        y = np.full(n, -1, dtype=np.int64)
        v = np.array(v, dtype=np.float64)
    free = np.flatnonzero(x < 0)
    if n > 1:
        for _ in range(2):
            free = _augmenting_row_reduction(cost, free, x, y, v)
        if cold and _auction_pays(cost, free, y, v):
            return _jv_solve(cost, _auction_duals(cost, v))
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


def solve_lap(cost, sense="minimize", duals=None):
    """Optimal assignment of rows to columns of a square cost matrix, from
    the column duals of an earlier solve of the same sense when given (the
    caller's array is not written)."""
    if sense not in SENSES:
        raise ValueError(f"sense must be minimize or maximize, got {sense!r}")
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1] or cost.shape[0] == 0:
        raise ValueError(f"cost must be a nonempty square matrix, got {cost.shape}")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    if duals is not None and (np.shape(duals) != cost.shape[:1]
                              or not np.all(np.isfinite(duals))):
        raise ValueError(f"duals must be a finite vector of length {cost.shape[0]}")

    work = cost if sense == "minimize" else -cost
    # reduced costs of finite entries near the float limit can overflow;
    # _tie_break's feasibility check reports that as an ArithmeticError, and
    # an objective that overflows is returned as inf
    with np.errstate(over="ignore", invalid="ignore"):
        row_to_col, v = _jv_solve(work, duals)
        perm = _tie_break(work, row_to_col, v)
        objective = float(cost[np.arange(cost.shape[0]), perm].sum())
    return Assignment(perm=perm, objective=objective, sense=sense, duals=v)
