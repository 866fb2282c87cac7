"""Linear assignment: exactness vs brute force and scipy, determinism of
tie-breaking, and degenerate costs at sizes brute force cannot reach."""
import itertools
import runpy
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rebasin import lap
from rebasin.lap import SENSES, _lex_min_matching, _tie_break, solve_lap


def _load_corr_cost():
    path = list(sys.path)       # the script prepends src/
    try:
        script = Path(__file__).resolve().parent.parent / "scripts" / "bench.py"
        return runpy.run_path(str(script), run_name="bench")["corr_cost"]
    finally:
        sys.path[:] = path


corr_cost = _load_corr_cost()


def brute_force(cost, sense):
    """Exhaustive optimum; ties resolved to the lexicographically smallest perm
    because itertools.permutations enumerates in lex order."""
    n = cost.shape[0]
    best, best_perm = None, None
    for perm in itertools.permutations(range(n)):
        obj = sum(float(cost[i, perm[i]]) for i in range(n))
        if best is None or (sense == "minimize" and obj < best) \
                or (sense == "maximize" and obj > best):
            best, best_perm = obj, perm
    return best, np.array(best_perm)


def test_single_element():
    a = solve_lap(np.array([[3.0]]), "minimize")
    assert list(a.perm) == [0]
    assert a.objective == 3.0


def test_maximize_two_by_two():
    a = solve_lap(np.array([[1.0, 2.0], [2.0, 1.0]]), "maximize")
    assert list(a.perm) == [1, 0]
    assert a.objective == 4.0


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_matches_brute_force_floats(sense):
    rng = np.random.default_rng(0)
    for n in range(2, 8):
        for _ in range(20):
            cost = rng.normal(0.0, 1.0, (n, n))
            a = solve_lap(cost, sense)
            want, _ = brute_force(cost, sense)
            assert abs(a.objective - want) <= 1e-9
            assert sorted(a.perm) == list(range(n))


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_lexicographic_tie_breaking_integer_ties(sense):
    rng = np.random.default_rng(1)
    for _ in range(60):
        n = int(rng.integers(2, 7))
        cost = rng.integers(0, 4, (n, n)).astype(np.float64)
        a = solve_lap(cost, sense)
        want_obj, want_perm = brute_force(cost, sense)
        assert abs(a.objective - want_obj) <= 1e-9
        np.testing.assert_array_equal(a.perm, want_perm)


def test_constant_matrix_gives_identity():
    a = solve_lap(np.full((5, 5), 2.5), "minimize")
    np.testing.assert_array_equal(a.perm, np.arange(5))


def test_row_and_column_shift_invariance():
    rng = np.random.default_rng(2)
    cost = rng.normal(0.0, 1.0, (6, 6))
    base = solve_lap(cost, "minimize")
    shifted = cost.copy()
    shifted[3, :] += 7.0
    shifted[:, 1] -= 4.0
    again = solve_lap(shifted, "minimize")
    np.testing.assert_array_equal(base.perm, again.perm)


def test_minimize_equals_negated_maximize():
    rng = np.random.default_rng(3)
    cost = rng.normal(0.0, 1.0, (7, 7))
    np.testing.assert_array_equal(
        solve_lap(cost, "minimize").perm, solve_lap(-cost, "maximize").perm)


def test_objective_consistent_with_perm():
    rng = np.random.default_rng(4)
    cost = rng.normal(0.0, 1.0, (9, 9))
    a = solve_lap(cost, "minimize")
    assert abs(a.objective - cost[np.arange(9), a.perm].sum()) <= 1e-9


def test_validation_errors():
    with pytest.raises(ValueError):
        solve_lap(np.zeros((2, 3)), "minimize")
    with pytest.raises(ValueError):
        solve_lap(np.array([[np.nan, 1.0], [1.0, 0.0]]), "minimize")
    with pytest.raises(ValueError):
        solve_lap(np.zeros((0, 0)), "minimize")
    with pytest.raises(ValueError):
        solve_lap(np.zeros((2, 2)), "smallest")


def test_moderate_size_agrees_with_greedy_bound():
    # sanity at a size brute force cannot reach: optimal must beat greedy
    rng = np.random.default_rng(5)
    cost = rng.normal(0.0, 1.0, (120, 120))
    a = solve_lap(cost, "minimize")
    taken, greedy = set(), 0.0
    for i in range(120):
        j = min((j for j in range(120) if j not in taken), key=lambda j: cost[i, j])
        taken.add(j)
        greedy += cost[i, j]
    assert a.objective <= greedy + 1e-12
    assert sorted(a.perm) == list(range(120))


@settings(max_examples=60, deadline=None)
@given(n=st.integers(1, 5), seed=st.integers(0, 10_000),
       sense=st.sampled_from(["minimize", "maximize"]))
def test_optimality_property(n, seed, sense):
    cost = np.random.default_rng(seed).normal(0.0, 2.0, (n, n))
    a = solve_lap(cost, sense)
    want, _ = brute_force(cost, sense)
    assert abs(a.objective - want) <= 1e-9


def rank1_lex_min(a, b, sense):
    """Lex-min optimal perm of the cost outer(a, b) for positive a and b.

    By the rearrangement inequality the optimum pairs rows in ascending a
    with b descending (minimize) or ascending (maximize), so each level of a
    owns a fixed multiset of b values; taking, row by row, the smallest free
    column whose value that row's level still owns is the lex-min choice."""
    n = len(a)
    ranked = np.sort(b)[::-1] if sense == "minimize" else np.sort(b)
    order = np.argsort(a, kind="stable")
    quota = {}
    for rank, i in enumerate(order):
        key = (a[i], ranked[rank])
        quota[key] = quota.get(key, 0) + 1
    used = np.zeros(n, dtype=bool)
    perm = np.empty(n, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            if not used[j] and quota.get((a[i], b[j]), 0):
                quota[a[i], b[j]] -= 1
                used[j] = True
                perm[i] = j
                break
    return perm


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_rank1_reference_agrees_with_brute_force(sense):
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(2, 7))
        a, b = rng.integers(1, 4, n), rng.integers(1, 4, n)
        _, want = brute_force(np.outer(a, b).astype(np.float64), sense)
        np.testing.assert_array_equal(rank1_lex_min(a, b, sense), want)


def test_degenerate_large_costs_are_lex_min_without_recursion():
    limit = sys.getrecursionlimit()
    zero = solve_lap(np.zeros((1024, 1024)), "minimize")
    np.testing.assert_array_equal(zero.perm, np.arange(1024))
    rng = np.random.default_rng(7)
    a, b = rng.integers(1, 5, 512), rng.integers(1, 5, 512)
    for sense in ("minimize", "maximize"):
        got = solve_lap(np.outer(a, b).astype(np.float64), sense)
        np.testing.assert_array_equal(got.perm, rank1_lex_min(a, b, sense))
    assert sys.getrecursionlimit() == limit


def test_long_alternating_chain_needs_no_recursion():
    # row i is tight with columns i and i+1 (mod n): the two optimal perms are
    # the identity and the shift, and moving from the shift to the identity
    # rematches every row along one alternating chain
    n = 2000
    rows = np.arange(n)
    cost = np.ones((n, n))
    cost[rows, rows] = 0.0
    cost[rows, (rows + 1) % n] = 0.0
    limit = sys.getrecursionlimit()
    shift = (rows + 1) % n
    np.testing.assert_array_equal(_lex_min_matching(cost == 0.0, shift), rows)
    np.testing.assert_array_equal(solve_lap(cost, "minimize").perm, rows)
    assert sys.getrecursionlimit() == limit


def test_warm_start_matches_cold_solve_and_updates_duals():
    rng = np.random.default_rng(8)
    cost = rng.normal(0.0, 1.0, (40, 40))
    cold = solve_lap(cost, "maximize")
    warm = solve_lap(cost, "maximize", duals=None)
    assert warm.perm.tolist() == cold.perm.tolist()
    assert warm.duals.shape == (40,)
    with mock.patch.object(lap, "_jv_solve", wraps=lap._jv_solve) as jv:
        solve_lap(cost, "maximize", duals=cold.duals)
    np.testing.assert_array_equal(jv.call_args.args[1], cold.duals)
    for _ in range(5):
        cost = cost + rng.normal(0.0, 0.05, cost.shape)
        start = warm.duals
        warm = solve_lap(cost, "maximize", duals=start)
        np.testing.assert_array_equal(warm.perm, solve_lap(cost, "maximize").perm)
        assert warm.duals is not start


@pytest.mark.parametrize("duals", [np.zeros(1), np.zeros(5), np.array([0.0, np.nan, 0.0])],
                         ids=["short", "long", "nan"])
def test_bad_duals_raise_value_error(duals):
    with pytest.raises(ValueError, match="duals must be a finite vector of length 3"):
        solve_lap(np.eye(3), duals=duals)


def test_solve_lap_leaves_callers_duals_unwritten():
    rng = np.random.default_rng(11)
    cost = rng.normal(0.0, 1.0, (30, 30))
    duals = solve_lap(cost).duals
    start = duals.copy()
    solve_lap(cost + rng.normal(0.0, 0.1, cost.shape), duals=duals)
    np.testing.assert_array_equal(duals, start)


def test_tie_break_rejects_near_optimal_matching_whatever_the_duals():
    # the identity is lex-smaller than the optimal swap and worse by 1.8 tol
    # (tol = 1e-9 here): both optimal duals below make the swap tight, the
    # first also the identity
    tol = 1e-9
    work = np.array([[1.8 * tol, 0.0], [0.0, 0.0]])
    swap = np.array([1, 0])
    v = np.array([0.9 * tol, 0.0])
    reduced = work - v
    tight = reduced - reduced.min(axis=1, keepdims=True) <= tol
    assert _lex_min_matching(tight, swap).tolist() == [0, 1]
    for duals in (v, np.zeros(2)):
        np.testing.assert_array_equal(_tie_break(work, swap, duals), swap)
    np.testing.assert_array_equal(solve_lap(work, "minimize").perm, swap)


def _scipy_cases():
    rng = np.random.default_rng(9)
    for n in (50, 256):
        yield f"normal-{n}", rng.normal(0.0, 1.0, (n, n))
        yield f"int03-{n}", rng.integers(0, 4, (n, n)).astype(np.float64)
        yield f"zero-{n}", np.zeros((n, n))
        yield f"rank1-{n}", np.outer(rng.integers(0, 6, n),
                                     rng.integers(0, 6, n)).astype(np.float64)


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_objective_matches_scipy(sense):
    optimize = pytest.importorskip("scipy.optimize")
    for label, cost in _scipy_cases():
        got = solve_lap(cost, sense)
        assert sorted(got.perm) == list(range(len(cost)))
        rows, cols = optimize.linear_sum_assignment(cost, maximize=sense == "maximize")
        want = float(cost[rows, cols].sum())
        assert abs(got.objective - want) <= 1e-9 * max(1.0, abs(want)), label


# ------------------------------------------------- shortest-path search oracle

_min = np.minimum.reduce


def _augment_reference(cost, i, x, y, v):
    """Reference only: the shortest augmenting path search as it was before
    it stopped keeping predecessors during the search. One relaxation per
    owner row, each updating `pred` where it is strictly shorter."""
    n = cost.shape[0]
    open_dist = cost[i] - v             # +inf once a column's distance is final
    dist = np.full(n, np.inf)           # final distances
    v_open = v.copy()                   # -inf on final columns, so they never relax
    pred = np.full(n, i, dtype=np.int64)
    while True:
        mind = _min(open_dist)
        todo = (open_dist == mind).nonzero()[0]
        owners = y[todo]
        if _min(owners) < 0:
            end = todo[owners.argmin()]
            break
        dist[todo] = mind
        open_dist[todo] = np.inf
        v_open[todo] = -np.inf
        # relax every open column through the owner of each new final column
        for j, r in zip(todo, owners):
            via = cost[r] - v_open
            via += mind - (cost[r, j] - v[j])
            better = via < open_dist
            np.copyto(open_dist, via, where=better)
            np.copyto(pred, r, where=better)
    v += np.minimum(dist - mind, 0.0)
    j = end
    while True:
        r = pred[j]
        y[j] = r
        x[r], j = j, x[r]
        if r == i:
            break


def _oracle_solve(cost, sense, duals):
    """solve_lap from duals (None: cold), with every shortest-path search
    checked against the reference from the same state: x, y and v (by
    value). The perm and end duals must equal a solve by the reference
    alone. Returns (end duals, rows searched)."""
    real = lap._augment
    searches = []

    def checked(cost, i, x, y, v):
        want = x.copy(), y.copy(), v.copy()
        _augment_reference(cost, i, *want)
        real(cost, i, x, y, v)
        for got, ref in zip((x, y, v), want):
            np.testing.assert_array_equal(got, ref)
        searches.append(i)

    with mock.patch.object(lap, "_augment", checked):
        got = solve_lap(cost, sense, duals=duals)
    with mock.patch.object(lap, "_augment", _augment_reference):
        ref = solve_lap(cost, sense, duals=duals)
    np.testing.assert_array_equal(got.perm, ref.perm)
    np.testing.assert_array_equal(got.duals, ref.duals)
    return got.duals, searches


def _drawn_cost(kind, n, dead, rng):
    if kind == "int03":
        cost = rng.integers(0, 4, (n, n)).astype(np.float64)
    elif kind == "rank1":
        cost = np.outer(rng.random(n), rng.random(n))
    else:
        cost = corr_cost(n, rng)
    # dead units: zero rows and columns, as activation statistics give them
    cost[rng.random(n) < dead] = 0.0
    cost[:, rng.random(n) < dead] = 0.0
    return cost


def _check_cold_then_warm(cost, sense, rng):
    """Returns how many searches the cold and the warm solve ran."""
    duals, cold = _oracle_solve(cost, sense, None)
    # a warm re-solve of a slightly changed cost, as weight matching makes
    moved = np.where(rng.random(cost.shape) < 0.2, np.roll(cost, 1, axis=1), cost)
    _, warm = _oracle_solve(moved, sense, duals)
    return len(cold), len(warm)


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(["int03", "rank1", "corr"]), n=st.integers(1, 24),
       dead=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1),
       sense=st.sampled_from(["minimize", "maximize"]))
def test_search_matches_reference_on_drawn_costs(kind, n, dead, seed, sense):
    rng = np.random.default_rng(seed)
    _check_cold_then_warm(_drawn_cost(kind, n, dead, rng), sense, rng)


@pytest.mark.parametrize("kind", ["int03", "rank1", "corr"])
def test_search_matches_reference_at_width_128(kind):
    rng = np.random.default_rng(10)
    cost = _drawn_cost(kind, 128, 0.1, rng)
    cold, warm = _check_cold_then_warm(cost, "maximize" if kind == "corr" else "minimize", rng)
    assert cold > 0 and warm > 0


# ------------------------------------------------- auction front end

def _solve(cost, sense, front_end):
    """A cold solve with the auction front end forced on or off."""
    with mock.patch.object(lap, "_auction_pays", return_value=front_end):
        return solve_lap(cost, sense)


def _check_front_end(cost, sense):
    """The front end leaves the perm of the plain path, and the duals it
    ends at are optimal: with each row's reduced minimum as its dual they
    are feasible, and every edge of the perm is tight."""
    fronted = _solve(cost, sense, True)
    np.testing.assert_array_equal(fronted.perm, _solve(cost, sense, False).perm)
    assert np.all(np.isfinite(fronted.duals))
    reduced = (cost if sense == "minimize" else -cost) - fronted.duals
    slack = reduced[np.arange(len(cost)), fronted.perm] - reduced.min(axis=1)
    assert slack.max() <= 1e-9 * max(1.0, np.abs(cost).max())


def _gate_answers(cost, sense):
    """What `_auction_pays` answered during one solve."""
    answers = []
    real = lap._auction_pays

    def gate(*args):
        answers.append(real(*args))
        return answers[-1]

    with mock.patch.object(lap, "_auction_pays", gate):
        perm = solve_lap(cost, sense).perm
    return perm, answers


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(["int03", "rank1", "corr"]), n=st.integers(1, 24),
       dead=st.sampled_from([0.0, 0.3]), seed=st.integers(0, 2**32 - 1),
       sense=st.sampled_from(["minimize", "maximize"]))
def test_front_end_keeps_the_plain_perm_on_drawn_costs(kind, n, dead, seed, sense):
    _check_front_end(_drawn_cost(kind, n, dead, np.random.default_rng(seed)), sense)


@pytest.mark.parametrize("sense", ["minimize", "maximize"])
def test_front_end_runs_by_itself_at_width_128(sense):
    cost = _drawn_cost("rank1", 128, 0.0, np.random.default_rng(12))
    _, answers = _gate_answers(cost, sense)
    assert answers == [True]
    _check_front_end(cost, sense)


def test_constant_cost_gives_identity_with_the_front_end():
    cost = np.full((300, 300), 2.5)
    perm, answers = _gate_answers(cost, "minimize")
    np.testing.assert_array_equal(perm, np.arange(300))
    assert answers == [False]       # no row is live
    np.testing.assert_array_equal(_solve(cost[:40, :40], "minimize", True).perm, np.arange(40))


def test_nan_reduced_costs_raise_arithmetic_error():
    # finite entries whose reduced costs overflow to NaN inside a search
    H, B, M = 1.7e308, 1e308, 8e307
    cost = np.array([[H, H, 0, H, B, M, M],
                     [M, 1, -H, H, 0, M, H],
                     [-H, 0, H, M, H, -H, 1],
                     [H, -B, M, -B, B, H, -B],
                     [1, 1, -H, 0, H, B, 1],
                     [1, -B, H, M, 1, 0, B],
                     [1, B, H, M, B, 0, B]])
    for sense in SENSES:
        with pytest.raises(ArithmeticError):
            solve_lap(cost, sense)
