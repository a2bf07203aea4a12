"""Brute-force oracle and banded DP: agreement, limits, and state semantics."""

import gc
import itertools
import time
import tracemalloc
import weakref
from typing import List

import numpy as np
import pytest

from p3ap import (
    CostArray,
    LatinRectangle,
    build_distribution_array,
    check_rows,
    cost,
    solve_auto,
    solve_bruteforce,
    solve_dp,
)
from p3ap import solvers
from p3ap.core import _latin_rectangles
from p3ap.instances import gen_random_layered_monge, random_01_array
from p3ap.monge import DecompositionTerms, apply_decomposable_shift
from p3ap.solvers import (
    NotLayeredMongeError,
    OptimaLimitError,
    OracleSizeLimitError,
    SolveReport,
    _row_placements,
)
from p3ap.structure import bandwidth


def hand_instance():
    layers = np.stack(
        [np.array([[0, 5], [5, 0]]), np.array([[1, 1], [1, 1]])], axis=2
    )
    return CostArray(layers)


def _bruteforce_limits_ok(n: int, p: int) -> bool:
    count = solvers._LATIN_RECTANGLES.get((n, p))
    return count is not None and count <= solvers._MAX_BRUTEFORCE_RECTANGLES


def dfs_bruteforce(
    C: CostArray,
    all_optima: bool = False,
    prune: bool = False,
    force: bool = False,
) -> SolveReport:
    """Exact optimum by row-by-row backtracking over all Latin rectangles.

    The recursive search that solve_bruteforce replaced, kept as the oracle
    for its optimum, witness, order of optima and states_explored.

    With prune=True an admissible lower bound (suffix sums of per-column
    layer minima) cuts branches; the optimum is unaffected.  With all_optima
    every optimal rectangle is collected.  Unless force=True, raises
    OracleSizeLimitError (CLI exit 3) when the instance has more than 2^24
    feasible Latin rectangles: it admits any p for n <= 5, p <= 3 for n = 6,
    p <= 2 for n = 7 and p = 1 for n = 8.
    """
    n, p = C.n, C.p
    if not force and not _bruteforce_limits_ok(n, p):
        raise OracleSizeLimitError(
            f"oracle size limit: n={n}, p={p} exceeds the exhaustive-search "
            "budget of 2^24 feasible Latin rectangles (any p for n <= 5, "
            "p <= 3 for n = 6, p <= 2 for n = 7, p = 1 for n = 8); pass "
            "force=True to override"
        )
    t0 = time.perf_counter()
    layers = [[[int(C.entries[i, j, k]) for j in range(n)] for i in range(n)] for k in range(p)]

    # colmin[k][j]: cheapest row choice for layer k, column j (0-based).
    colmin = [[min(layers[k][i][j] for i in range(n)) for j in range(n)] for k in range(p)]
    # row_suffix[k][j]: bound for columns j.. of layer k; layer_suffix[k]: layers k.. .
    row_suffix = []
    for k in range(p):
        suf = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            suf[j] = suf[j + 1] + colmin[k][j]
        row_suffix.append(suf)
    layer_suffix = [0] * (p + 1)
    for k in range(p - 1, -1, -1):
        layer_suffix[k] = layer_suffix[k + 1] + row_suffix[k][0]

    best = [None]
    best_rows: List[tuple] = []
    col_used = [[False] * (n + 1) for _ in range(n)]  # col_used[j][i]
    row_vals = [[0] * n for _ in range(p)]
    nodes = [0]

    def place(k: int, j: int, partial: int, row_used: int):
        nodes[0] += 1
        if j == n:
            if k + 1 == p:
                total = partial
                if best[0] is None or total < best[0]:
                    best[0] = total
                    del best_rows[:]
                    best_rows.append(tuple(tuple(r) for r in row_vals))
                elif all_optima and total == best[0]:
                    best_rows.append(tuple(tuple(r) for r in row_vals))
                return
            place(k + 1, 0, partial, 0)
            return
        if prune and best[0] is not None:
            bound = partial + row_suffix[k][j] + layer_suffix[k + 1]
            if bound > best[0] or (not all_optima and bound == best[0]):
                return
        row = layers[k]
        used_j = col_used[j]
        for i in range(1, n + 1):
            if used_j[i] or (row_used >> i) & 1:
                continue
            used_j[i] = True
            row_vals[k][j] = i
            place(k, j + 1, partial + row[i - 1][j], row_used | (1 << i))
            used_j[i] = False
        row_vals[k][j] = 0

    place(0, 0, 0, 0)
    rect = LatinRectangle(rows=best_rows[0])
    report = SolveReport(
        optimum=best[0],
        solution=rect,
        solver="brute",
        states_explored=nodes[0],
        wall_ms=(time.perf_counter() - t0) * 1e3,
    )
    if all_optima:
        report.all_optima = [LatinRectangle(rows=r) for r in best_rows]
        report.optima_count = len(best_rows)
    return report


def test_bruteforce_hand_checked():
    r = solve_bruteforce(hand_instance())
    assert r.optimum == 2
    assert r.solution.rows == ((1, 2), (2, 1))


def test_bruteforce_all_optima_zero_costs():
    C = CostArray(np.zeros((3, 3, 2), dtype=np.int64))
    r = solve_bruteforce(C, all_optima=True)
    assert r.optimum == 0
    # 6 choices for row 1, then 2 column-disjoint mates: all 12 are optimal.
    assert len(r.all_optima) == 12
    assert all(cost(C, rect) == 0 for rect in r.all_optima)


def test_bruteforce_all_ones_density_golden():
    from p3ap import build_distribution_array

    C = build_distribution_array(np.ones((3, 3, 3), dtype=np.int64))
    r = solve_bruteforce(C, all_optima=True)
    assert r.optimum == -75
    assert len(r.all_optima) == 4


def test_bruteforce_size_limit():
    big = CostArray(np.zeros((9, 9, 1), dtype=np.int64))
    with pytest.raises(OracleSizeLimitError, match="oracle size limit"):
        solve_bruteforce(big)


def test_bruteforce_rectangle_budget():
    # (8, 2) has 598,066,560 feasible rectangles, 64x as many as (7, 2).
    for n, p in ((8, 2), (7, 3), (8, 3)):
        zeros = CostArray(np.zeros((n, n, p), dtype=np.int64))
        with pytest.raises(OracleSizeLimitError, match=f"oracle size limit: n={n}, p={p}"):
            solve_bruteforce(zeros)
    admitted = [key for key, count in solvers._LATIN_RECTANGLES.items()
                if count <= solvers._MAX_BRUTEFORCE_RECTANGLES]
    assert (6, 3) in admitted and (7, 2) in admitted and (8, 1) in admitted
    assert len(admitted) == len(solvers._LATIN_RECTANGLES) - 3


def test_bruteforce_rectangle_table_counts():
    for (n, p), count in solvers._LATIN_RECTANGLES.items():
        if n <= 4:
            zeros = CostArray(np.zeros((n, n, p), dtype=np.int64))
            assert len(solve_bruteforce(zeros, all_optima=True).all_optima) == count


def test_bruteforce_prune_equivalent():
    for seed in range(8):
        C = gen_random_layered_monge(5, 2, seed=seed)
        a = solve_bruteforce(C)
        b = dfs_bruteforce(C, prune=True)
        assert a.optimum == b.optimum
        assert a.solution.rows == b.solution.rows


# Unpruned node counts of dfs_bruteforce, which takes 30-55 s to count each.
DFS_NODES = {(6, 3): 63109957, (7, 2): 29366660}
ORACLE_SHAPES = [(n, p) for n in range(1, 7) for p in range(1, n + 1)
                 if _bruteforce_limits_ok(n, p)] + [(7, 2), (8, 1)]


def oracle_cases(n, p):
    """(instance, list all optima, prune) for the DFS oracle at (n, p).

    The pruned DFS returns the unpruned optimum, witness and optima, and
    prunes the zero and 0-1 instances to almost nothing.  The random layered
    Monge instance runs unpruned and so also counts the DFS nodes, except at
    (6, 3), where the pruned DFS takes 1-20 s over seeds 0-9 and seed 6 is
    one of the fast ones, and at (7, 2), which runs only the 0-1 instance."""
    zeros = CostArray(np.zeros((n, n, p), dtype=np.int64))
    cases = [
        (zeros, solvers._LATIN_RECTANGLES[(n, p)] <= 10_000, True),
        (random_01_array(n, p, seed=n + p), True, True),
    ]
    if (n, p) == (6, 3):
        cases.append((gen_random_layered_monge(n, p, seed=6), False, True))
    elif (n, p) != (7, 2):
        cases.insert(0, (gen_random_layered_monge(n, p, seed=n + p), True, False))
    return cases


@pytest.mark.parametrize("n, p", ORACLE_SHAPES)
def test_bruteforce_matches_dfs_oracle(n, p):
    nodes = DFS_NODES.get((n, p))
    for C, listing, prune in oracle_cases(n, p):
        want = dfs_bruteforce(C, all_optima=listing, prune=prune)
        got = solve_bruteforce(C, all_optima=listing)
        if not prune:
            nodes = want.states_explored
        assert got.optimum == want.optimum
        assert got.solution.rows == want.solution.rows
        assert got.optima_count == want.optima_count
        if listing:
            assert [r.rows for r in got.all_optima] == [r.rows for r in want.all_optima]
        else:
            assert got.all_optima is None
        assert got.states_explored == nodes


def test_bruteforce_table_budget():
    # p = 1 builds no first-conflict table, so (8, 1) stays small.
    tracemalloc.start()
    try:
        report = solve_bruteforce(gen_random_layered_monge(8, 1, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.states_explored == 109601
    assert peak < 16 << 20


def test_bruteforce_all_optima_limit():
    # All 15,321,600 rectangles of the 6 x 6 x 3 zero array are optimal.
    zeros = CostArray(np.zeros((6, 6, 3), dtype=np.int64))
    tracemalloc.start()
    try:
        with pytest.raises(OptimaLimitError, match="15321600 optimal rectangles"):
            solve_bruteforce(zeros, all_optima=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20
    # Not layered Monge, so solve_auto runs brute force, and passes the
    # refusal on as is.
    entries = np.zeros((6, 6, 3), dtype=np.int64)
    entries[0, 0, 0] = 1
    with pytest.raises(OptimaLimitError, match="too many to list"):
        solve_auto(CostArray(entries), all_optima_in_band=True)


def test_dp_hand_checked():
    r = solve_dp(hand_instance())
    assert r.optimum == 2


def test_dp_zero_array_band_property():
    C = CostArray(np.zeros((5, 5, 2), dtype=np.int64))
    r = solve_dp(C)
    assert r.optimum == 0
    assert bandwidth(r.solution) <= 2 * C.p - 2


def test_dp_requires_layered_monge():
    C = CostArray(np.stack([np.eye(2, dtype=np.int64)], axis=2))
    with pytest.raises(NotLayeredMongeError):
        solve_dp(C)


def test_dp_matches_bruteforce_small_grid():
    for seed in range(6):
        for n in range(2, 6):
            for p in (1, 2, min(3, n)):
                C = gen_random_layered_monge(n, p, seed=seed)
                assert solve_dp(C).optimum == solve_bruteforce(C).optimum


def report_fields(r):
    """Everything a report says except its timing."""
    fields = dict(vars(r))
    del fields["wall_ms"]
    return fields


def test_default_and_reference_engines_agree():
    # n = 12 and 16 at p = 2 run interior rows on one shared graph.
    for seed in range(8):
        for n, p in ((4, 2), (5, 2), (6, 3), (7, 2), (5, 1), (12, 2), (16, 2)):
            C = gen_random_layered_monge(n, p, seed=seed)
            a = solve_dp(C, all_optima_in_band=True)
            b = solve_dp(C, all_optima_in_band=True, method="reference")
            assert a.optimum == b.optimum
            assert a.solution.rows == b.solution.rows
            assert a.all_optima == b.all_optima
            assert a.state_counts == b.state_counts
            assert a.states_explored == b.states_explored


def test_dp_cold_and_warm_cache_reports_identical():
    # At p = 5 the cache key is the bytes of two-word signatures.
    for n, p, seed in ((6, 3, 4), (12, 2, 5), (5, 5, 6)):
        C = gen_random_layered_monge(n, p, seed=seed)
        solvers._GRAPHS.clear()
        cold = solve_dp(C, all_optima_in_band=True)
        cached = len(solvers._GRAPHS)
        warm = solve_dp(C, all_optima_in_band=True)
        assert len(solvers._GRAPHS) == cached  # the warm solve built nothing
        assert report_fields(cold) == report_fields(warm)


def test_dp_graph_cache_size_constant_in_n():
    counts = []
    for n in (30, 50):
        solvers._GRAPHS.clear()
        solve_dp(gen_random_layered_monge(n, 2, seed=n))
        counts.append(len(solvers._GRAPHS))
    assert counts[0] == counts[1]
    # n = 50 reuses every graph of n = 30 and needs no other
    solve_dp(gen_random_layered_monge(30, 2, seed=1))
    assert len(solvers._GRAPHS) == counts[1]
    # At p = 3, n = 12 builds every graph, the interior ones included, and
    # the longer runs of the interior graph at n = 20 and 60 find it again.
    solvers._GRAPHS.clear()
    for n in (12, 20, 60):
        solve_dp(gen_random_layered_monge(n, 3, seed=n))
        assert len(solvers._GRAPHS) == 11, n
    # The graph whose signatures are its key's keeps the key's bytes, so the
    # next row's lookup compares them by identity.
    assert sum(g.sig_bytes is key[2] for key, g in solvers._GRAPHS.items()) == 1
    solvers._GRAPHS.clear()  # frees the 58 MiB of p = 3 graphs


def test_evicted_graphs_are_freed_without_the_cycle_collector(monkeypatch):
    # No graph refers to another, so an evicted graph is freed at once.
    built = []

    class Tracked(solvers._RowGraph):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    monkeypatch.setattr(solvers, "_RowGraph", Tracked)
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    monkeypatch.setattr(solvers, "_GRAPH_CACHE_BYTES", 0)
    gc.collect()
    gc.disable()
    try:
        solve_dp(gen_random_layered_monge(12, 2, seed=0))
        cached = list(solvers._GRAPHS.values())
        alive = [g for g in (ref() for ref in built) if g is not None and g not in cached]
    finally:
        gc.enable()
    assert len(built) > len(cached) == 1
    assert alive == []


def test_dp_method_choices():
    C = gen_random_layered_monge(4, 2, seed=0)
    assert solve_dp(C, method="reference").optimum == solve_dp(C).optimum
    with pytest.raises(ValueError, match="unknown DP method"):
        solve_dp(C, method="packed")


def test_dp_all_optima_deep_instance():
    # The all-optima walk once recursed once per row and failed past ~1000.
    rng = np.random.default_rng(1200)
    C = build_distribution_array(rng.integers(1, 1000, size=(1200, 1200, 2)))
    for method in ("auto", "reference"):
        r = solve_dp(C, all_optima_in_band=True, method=method)
        assert r.optima_count == len(r.all_optima) >= 1
        assert r.solution in r.all_optima


def test_dp_all_optima_limit():
    # This instance has about 4.3e23 optima in the band.
    C = gen_random_layered_monge(1200, 2, 3)
    for method in ("auto", "reference"):
        with pytest.raises(OptimaLimitError, match="425492887034560669286400 optimal"):
            solve_dp(C, all_optima_in_band=True, method=method)


# Exact counts of the in-band optima of zero arrays (n, 2).  The graph
# engine's counts stay in int64 at n = 20 and pass 2^62 partway at n = 40
# and 60.
@pytest.mark.parametrize("n, count", [
    (12, 8524922),
    (20, 1380537398014),
    (30, 4484945273952693742),
    (40, 14570215319349516960761738),
    (60, 153774248571643612086296705331635628716),
])
def test_both_engines_refuse_a_tied_array_with_the_same_count(n, count):
    C = CostArray(np.zeros((n, n, 2), dtype=np.int64))
    messages = []
    for method in ("auto", "reference"):
        with pytest.raises(OptimaLimitError) as e:
            solve_dp(C, all_optima_in_band=True, method=method)
        messages.append(str(e.value))
    assert messages[0] == messages[1] == (
        f"{count} optimal rectangles in the band: too many to list "
        f"(limit 16777216 cells, n={n}, p=2)"
    )


def test_dp_all_optima_are_optimal_and_unique_flag():
    for seed in range(6):
        C = gen_random_layered_monge(5, 2, seed=seed)
        r = solve_dp(C, all_optima_in_band=True)
        assert r.optima_count == len(r.all_optima) >= 1
        assert r.unique_in_band == (r.optima_count == 1)
        for rect in r.all_optima:
            assert cost(C, rect) == r.optimum
        assert r.solution in r.all_optima


def tied_instance(n, p, seed):
    """The zero array, or with a seed a decomposable shift of it, on which
    every in-band rectangle is optimal; and the cost of every rectangle."""
    zeros = CostArray(np.zeros((n, n, p), dtype=np.int64))
    if seed is None:
        return zeros, 0
    rng = np.random.default_rng(seed)
    terms = DecompositionTerms(
        A=np.zeros((n, n), dtype=np.int64),
        B=rng.integers(-50, 51, size=(n, p)),
        D=rng.integers(-50, 51, size=(n, p)),
    )
    return apply_decomposable_shift(zeros, terms)


@pytest.mark.parametrize(
    "n, p, seed, count",
    [
        (8, 2, None, 21252),
        (5, 4, None, 161280),
        (4, 4, None, 576),
        (8, 2, 11, 21252),
        (5, 3, 12, 66240),
        (5, 5, None, 161280),
        (5, 5, 13, 161280),
    ],
)
def test_bulk_listing_keeps_the_reference_order_on_ties(n, p, seed, count):
    # The graph engine lists breadth-first and the reference depth-first;
    # with every rectangle tied, any change of child order shows.
    C, _ = tied_instance(n, p, seed)
    a = solve_dp(C, all_optima_in_band=True)
    b = solve_dp(C, all_optima_in_band=True, method="reference")
    assert a.optima_count == b.optima_count == count
    assert a.all_optima == b.all_optima
    assert a.unique_in_band is b.unique_in_band is False
    assert a.solution == b.solution == a.all_optima[0]


def test_listed_optima_pass_the_rectangle_checks():
    # The solvers check their listed rectangles in bulk, not one by one:
    # each must pass the one-by-one check on its raw rows.
    C, _ = tied_instance(8, 2, None)
    dp = solve_dp(C, all_optima_in_band=True).all_optima
    zeros = CostArray(np.zeros((4, 4, 3), dtype=np.int64))
    brute = solve_bruteforce(zeros, all_optima=True).all_optima
    assert (len(dp), len(brute)) == (21252, 576)
    for rect in dp + brute:
        assert check_rows(rect.rows)
        built = LatinRectangle(rows=rect.rows)
        assert built == rect and hash(built) == hash(rect)


def test_listed_optima_share_their_row_tuples():
    # The 21,252 tied (8, 2) optima hold 400 distinct rows.  The engine lists
    # them in chunks, and within each chunk every distinct row is one tuple.
    C, _ = tied_instance(8, 2, None)
    dp = solve_dp(C, all_optima_in_band=True).all_optima
    assert len({row for rect in dp for row in rect.rows}) == 400
    for a in range(0, len(dp), solvers._LIST_CHUNK):
        chunk = dp[a : a + solvers._LIST_CHUNK]
        rows = [row for rect in chunk for row in rect.rows]
        assert len(set(map(id, rows))) == len(set(rows))
    # One bulk call over the whole listing builds exactly 400 row tuples.
    again = _latin_rectangles(np.array([rect.rows for rect in dp], dtype=np.uint8))
    assert again == dp
    assert len({id(row) for rect in again for row in rect.rows}) == 400


def test_dp_p5_matches_bruteforce():
    # p >= 5 signatures do not fit in one machine integer; the graph engine
    # holds them in two words.
    C = gen_random_layered_monge(5, 5, 0)
    r = solve_dp(C)
    assert r.optimum == solve_bruteforce(C).optimum
    assert cost(C, r.solution) == r.optimum
    assert r.solver == "dp"
    assert r.states_explored == sum(r.state_counts)


def test_dp_p5_all_optima_on_a_shifted_zero_array():
    # Every 5 x 5 Latin square is in the band and costs the shift constant.
    C, constant = tied_instance(5, 5, 13)
    r = solve_dp(C, all_optima_in_band=True)
    assert r.optimum == constant
    assert r.optima_count == len(r.all_optima) == 161280
    assert r.solution == r.all_optima[0]
    assert all(cost(C, rect) == constant for rect in r.all_optima[::997])


def test_reference_engine_checks_row_size_before_listing_placements(monkeypatch):
    # Row 1 of n = 19, p = 10 has P(19, 10) = 335,221,286,400 placements.
    def refuse(i, n, p):
        raise AssertionError(f"placements of row {i} listed")

    monkeypatch.setattr(solvers, "_row_placements", refuse)
    C = CostArray(np.zeros((19, 19, 10), dtype=np.int64))
    with pytest.raises(OracleSizeLimitError, match="row 1 of n=19, p=10"):
        solve_dp(C, method="reference")


def test_graph_engine_checks_row_size_before_building_the_row(monkeypatch):
    def refuse(p, clip, in_sigs):
        raise AssertionError(f"row graph of clip {clip} built")

    monkeypatch.setattr(solvers, "_RowGraph", refuse)
    C = CostArray(np.zeros((19, 19, 10), dtype=np.int64))
    with pytest.raises(OracleSizeLimitError, match="row 1 of n=19, p=10"):
        solve_dp(C)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_dp_p5_reports_match_the_reference_engine(seed):
    C = gen_random_layered_monge(5, 5, seed)
    a = solve_dp(C, all_optima_in_band=True)
    b = solve_dp(C, all_optima_in_band=True, method="reference")
    assert report_fields(a) == report_fields(b)


def test_dp_p5_refusal_comes_at_row_3():
    # The message counts the states of row 2, which the engine builds.
    C = gen_random_layered_monge(7, 5, 1)
    with pytest.raises(
        OracleSizeLimitError,
        match=r"row 3 of n=7, p=5 has 871290 incoming states x 2520 placements",
    ):
        solve_dp(C)


def test_dp_single_final_state_and_counts():
    C = gen_random_layered_monge(9, 2, seed=0)
    r = solve_dp(C)
    assert r.state_counts[0] == 1
    assert r.state_counts[-1] == 1
    assert len(r.state_counts) == C.n + 1


def test_dp_state_counts_constant_in_n():
    a = solve_dp(gen_random_layered_monge(30, 2, seed=1)).state_counts
    b = solve_dp(gen_random_layered_monge(50, 2, seed=2)).state_counts
    # away from the boundary the per-step state count depends on p only
    assert set(a[6:-6]) == set(b[6:-6]) == {27}


def test_report_serialization():
    r = solve_dp(hand_instance())
    doc = r.to_dict()
    assert doc["optimum"] == 2
    assert doc["solution_rows"] == [[1, 2], [2, 1]]
    assert doc["solver"].startswith("dp")
    assert set(doc) >= {
        "optimum",
        "solution_rows",
        "solver",
        "states_explored",
        "unique_in_band",
        "wall_ms",
    }


def test_report_keys_end_with_optima_count_when_optima_were_listed():
    keys = ["optimum", "solution_rows", "solver", "states_explored", "unique_in_band",
            "wall_ms"]
    monge = gen_random_layered_monge(4, 2, seed=3)
    runs = [
        (solve_dp, monge, "all_optima_in_band", "dp"),
        (solve_bruteforce, monge, "all_optima", "brute"),
        (solve_auto, monge, "all_optima_in_band", "dp (auto)"),
        (solve_auto, random_01_array(4, 2, seed=0), "all_optima_in_band", "brute (auto)"),
    ]
    for solve, C, flag, solver in runs:
        for listed in (False, True):
            report = solve(C, **{flag: listed})
            doc = report.to_dict()
            assert report.solver == solver
            assert list(doc) == keys + ["optima_count"] * listed
            if listed:
                assert doc["optima_count"] == len(report.all_optima) >= 1


def test_auto_dispatch():
    monge = gen_random_layered_monge(4, 2, seed=3)
    assert solve_auto(monge).solver == "dp (auto)"
    rough = random_01_array(3, 2, seed=12)
    if not solve_auto(rough).solver.startswith("brute"):
        # seed happened to give a layered Monge array; force a violation
        e = np.asarray(rough.entries).copy()
        e[:, :, 0] = np.eye(3)
        rough = CostArray(e)
        assert solve_auto(rough).solver == "brute (auto)"


def test_auto_checks_monge_once(monkeypatch):
    calls = []
    real = solvers.is_layered_monge

    def counting(C):
        calls.append(C)
        return real(C)

    monkeypatch.setattr(solvers, "is_layered_monge", counting)
    assert solve_auto(gen_random_layered_monge(6, 2, seed=1)).solver == "dp (auto)"
    assert len(calls) == 1


def test_auto_no_applicable_solver():
    e = np.zeros((9, 9, 2), dtype=np.int64)
    e[:, :, 0] = np.eye(9)
    with pytest.raises(OracleSizeLimitError, match="no applicable exact solver"):
        solve_auto(CostArray(e))


def enumerate_partials(n, p, upto):
    """All feasible band-limited placement prefixes for rows 1..upto."""
    partials = []

    def rec(i, cols, acc):
        if i > upto:
            partials.append(tuple(acc))
            return
        for pl in _row_placements(i, n, p):
            if any(k in cols.get(c, ()) for k, c in enumerate(pl)):
                continue
            newcols = {c: set(s) for c, s in cols.items()}
            for k, c in enumerate(pl):
                newcols.setdefault(c, set()).add(k)
            # a column leaving the window must be complete
            leave = i - 2 * p + 2
            if 1 <= leave <= n and len(newcols.get(leave, ())) != p:
                continue
            acc.append(pl)
            rec(i + 1, newcols, acc)
            acc.pop()

    rec(1, {}, [])
    return partials


def signature_of(partial, n, p):
    """Window-column contents after placing rows 1..len(partial)."""
    i = len(partial)
    cols = {}
    for r, pl in enumerate(partial):
        for k, c in enumerate(pl):
            cols.setdefault(c, set()).add(k)
    sig = []
    for c in range(i - 2 * p + 3, i + 2 * p - 1):
        if not 1 <= c <= n:
            sig.append(frozenset(range(p)))
        else:
            sig.append(frozenset(cols.get(c, ())))
    return tuple(sig)


def completions_of(partial, n, p):
    """All ways to finish rows len(partial)+1..n, as placement tuples."""
    outs = []

    def rec(i, cols, acc):
        if i > n:
            if all(len(cols.get(c, ())) == p for c in range(1, n + 1)):
                outs.append(tuple(acc))
            return
        for pl in _row_placements(i, n, p):
            if any(k in cols.get(c, ()) for k, c in enumerate(pl)):
                continue
            newcols = {c: set(s) for c, s in cols.items()}
            for k, c in enumerate(pl):
                newcols.setdefault(c, set()).add(k)
            acc.append(pl)
            rec(i + 1, newcols, acc)
            acc.pop()

    cols = {}
    for pl in partial:
        for k, c in enumerate(pl):
            cols.setdefault(c, set()).add(k)
    rec(len(partial) + 1, cols, [])
    return frozenset(outs)


def test_signature_determines_completions():
    # Two band-limited prefixes with equal window signatures admit exactly
    # the same sets of feasible completions (n=5, p=2, all prefix depths).
    n, p = 5, 2
    for upto in (1, 2, 3):
        by_sig = {}
        for partial in enumerate_partials(n, p, upto):
            by_sig.setdefault(signature_of(partial, n, p), []).append(partial)
        checked = 0
        for sig, group in by_sig.items():
            comps = {completions_of(g, n, p) for g in group}
            assert len(comps) == 1, f"signature {sig} has diverging completions"
            checked += len(group)
        assert checked > 0


def int64_edge_instance(n, p, seed, spread):
    """A sum-decomposable shift of a sparse distribution array, whose many
    ties survive it, with entries reaching the CostRangeError cap.  Every
    state of a row has placed the same rows, so the row terms B add the same
    to all of them; with spread, the column terms D spread a row's costs far
    past 2^32."""
    rng = np.random.default_rng(seed)
    density = (rng.random((n, n, p)) < 0.2).astype(np.int64)
    base = build_distribution_array(density)
    cap = (2**63 - 1) // max(4, n * p)
    half = (cap - int(np.abs(base.entries).max())) // 2
    B, D = rng.integers(-half, half + 1, size=(2, n, p))
    B[0, 0] = D[0, 0] = -half  # so entry (1, 1, 1) is within 2 * 125 of -cap
    if not spread:
        B, D = B + D, np.zeros_like(D)
    terms = DecompositionTerms(A=np.zeros((n, n), dtype=np.int64), B=B, D=D)
    return apply_decomposable_shift(base, terms)[0], cap


def scaled_edge_instance(n, p, seed):
    """A distribution array scaled until its entries reach the CostRangeError
    cap.  No part of it is sum-decomposable, so where a row's states differ
    in adjusted costs they differ by multiples of the scale, far past 2^32."""
    rng = np.random.default_rng(seed)
    base = build_distribution_array(rng.integers(1, 3, size=(n, n, p))).entries
    cap = (2**63 - 1) // max(4, n * p)
    return CostArray(base * (cap // int(np.abs(base).max()))), cap


def test_dp_is_exact_at_the_int64_edge(monkeypatch):
    kinds = []
    keep = solvers._keep

    def recording(costs):
        row = keep(costs)
        kinds[-1].add(row.dtype.kind)
        return row

    monkeypatch.setattr(solvers, "_keep", recording)
    shapes = [(n, p) for n in range(1, 6) for p in range(1, min(n, 3) + 1)]
    for seed in range(200):
        n, p = shapes[seed % len(shapes)]
        spread = seed // len(shapes) % 2 == 1
        for scaled in (False, True):
            if scaled:
                C, cap = scaled_edge_instance(n, p, seed)
            else:
                C, cap = int64_edge_instance(n, p, seed, spread)
            assert int(np.abs(C.entries).max()) > cap - 2 * 125
            kinds.append(set())
            got = solve_dp(C, all_optima_in_band=True)
            want = solve_dp(C, all_optima_in_band=True, method="reference")
            assert report_fields(got) == report_fields(want), (n, p, seed)
            assert got.optimum == solve_bruteforce(C).optimum == cost(C, got.solution)
            # Rows keep adjusted costs, whose row potentials cancel a
            # sum-decomposable shift, spread or not: those rows keep unsigned
            # offsets.  On the scaled arrays some row of p >= 2, where rows
            # have more than one state, keeps raw int64 costs.
            assert kinds[-1] == ({"u", "i"} if scaled and p > 1 else {"u"}), (n, p, seed)
