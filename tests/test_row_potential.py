"""The potential-adjusted row sweep against the two-gather sweep it replaced.

_solve_dp_graph and _list_optima below are the former graph engine, kept
as the oracle: each row adds its placement costs delta[t] along the edges
before it takes the minima.  They run on the same cached row graphs as
solve_dp, whose engine instead gathers costs plus row potentials, so every
report must come out the same.  They read each graph's in-degree tiles
through flat_edges, as flat edge arrays in the order of the row's states,
and sweep a row as one block of them.
"""

import numpy as np
import pytest

from p3ap import CostArray, solve_dp
from p3ap import solvers
from p3ap.core import _latin_rectangles
from p3ap.instances import gen_random_layered_monge
from p3ap.solvers import (
    _LIST_CHUNK,
    OracleSizeLimitError,
    _check_optima,
    _check_row_size,
    _init_sig,
    _keep,
    _next_graph,
    _pack_sig,
    _row_clip,
    _words,
)
from test_row_graph import flat_edges, packed_sigs
from test_solvers import int64_edge_instance, report_fields, scaled_edge_instance, tied_instance


def _solve_dp_graph(C: CostArray):
    n, p = C.n, C.p
    # Row i of the array, flattened: entry (j, k) sits at (j - 1) * p + k.
    row_costs = C.entries.reshape(n, n * p)

    g = None
    sigs = _words([_pack_sig(_init_sig(n, p), p)], p, 4 * p - 4)
    costs = np.zeros(1, dtype=np.int64)
    kept = []  # per row: its graph, placement costs and _keep(incoming costs)
    state_counts = [1]
    for i in range(1, n + 1):
        clip = _row_clip(i, n, p)
        _check_row_size(n, p, i, state_counts[-1], clip)
        g = _next_graph(g, p, clip, sigs)
        base = i - 2 * p + 2
        delta = row_costs[i - 1, (base - 1) * p + g.flat].sum(axis=1)
        f = flat_edges(g)
        out = np.minimum.reduceat(costs.take(f.src) + delta.take(f.t), f.starts)
        kept.append((f, delta, _keep(costs)))
        costs = out
        sigs = g.sigs
        state_counts.append(g.states)

    # After row n its n * p cells fill every in-range window column, and the
    # out-of-range ones count as complete: one state is left.
    if costs.size != 1:
        raise RuntimeError(f"internal error: expected exactly one final state, got {costs.size}")
    optimum = int(costs[0])

    # Each traced state takes its first minimal in-edge, in tie-break order:
    # argmin returns the first minimum.
    placements, state = [None] * n, 0
    for i, (g, delta, prev) in zip(range(n, 0, -1), kept[::-1]):
        e0 = int(g.starts[state])
        seg = np.s_[e0:e0 + g.counts[state]]
        e = e0 + int(np.argmin(prev.take(g.src[seg]) + delta.take(g.t[seg])))
        placements[i - 1] = (g.flat[g.t[e]] // p + (i - 2 * p + 2)).tolist()
        state = int(g.src[e])
    return optimum, placements, state_counts, lambda: _list_optima(kept, n, p)


def _list_optima(kept, n: int, p: int) -> list:
    """Every optimal rectangle in the order of _walk_optima, in bulk.

    Each row's sweep runs again, block by block, over its kept (graph,
    delta, incoming costs) to find its minimal in-edges: those into state s
    are ties[i - 1] = (first, src, t) from first[s] to first[s + 1], in tie
    order, where first is the running sum of the states' tie counts.  The
    same pass counts forward, over those ties, the optimal paths into every
    state: in int64 while a row's sums stay below 2^62, and in exact Python
    ints after that.  The final state's count meets the listing cap before
    anything is listed.  Paths grow breadth first from the final state 0,
    children in tie order, which keeps the depth-first order; then a walk
    back through the parents scatters the placements into the rows of up to
    _LIST_CHUNK rectangles at a time, which _latin_rectangles checks in one
    numpy pass per chunk."""
    ties, ways = [], np.ones(1, dtype=np.int64)
    for g, delta, prev in kept:
        cand = prev.take(g.src) + delta.take(g.t)
        tie = cand == np.repeat(np.minimum.reduceat(cand, g.starts), g.counts)
        hit = np.flatnonzero(tie)
        # first[s] to first[s + 1] are state s's ties: a running sum of the
        # tie counts, each at least 1, so reduceat sums every state's range.
        first = np.cumsum(np.append(0, np.add.reduceat(tie, g.starts)))
        src = g.src[hit]
        if ways.dtype != object and int(ways.max()) * int(g.counts.max()) >> 62:
            ways = ways.astype(object)
        ways = np.add.reduceat(ways.take(src), first[:-1])
        ties.append((first, src, g.t[hit]))

    total = _check_optima(int(ways[0]), n, p)
    levels, state = [], np.array([0])
    for first, src, t in reversed(ties):
        lo = first[state]
        k = first[state + 1] - lo
        parent = np.repeat(np.arange(state.size), k)
        e = np.arange(parent.size) + np.repeat(lo - (np.cumsum(k) - k), k)
        state = src[e]
        levels.append((parent, t[e]))
    optima, layer = [], np.arange(p)
    for a in range(0, total, _LIST_CHUNK):
        at = np.arange(a, min(a + _LIST_CHUNK, total))
        path = np.arange(at.size)[:, None]
        rows = np.zeros((at.size, p, n), dtype=np.min_scalar_type(n))
        for i, ((g, _, _), (parent, t)) in enumerate(zip(kept, reversed(levels)), start=1):
            # flat = column offset * p + layer; the window starts at column i - 2p + 2.
            rows[path, layer, g.flat[t[at]] // p + (i - 2 * p + 1)] = i
            at = parent[at]
        optima += _latin_rectangles(rows)
    return optima




def outcomes(monkeypatch, C, engine):
    """solve_dp's report fields, plain and with all optima, when it runs
    engine as its graph engine; a refusal stands in for its report."""
    got = []
    with monkeypatch.context() as m:
        m.setattr(solvers, "_solve_dp_graph", engine)
        for all_optima in (False, True):
            try:
                got.append(report_fields(solve_dp(C, all_optima_in_band=all_optima)))
            except OracleSizeLimitError as e:  # OptimaLimitError too
                got.append((type(e), str(e)))
    return got


def assert_same_reports(monkeypatch, C, first):
    """The two engines agree with the cache empty for whichever runs first
    and warm after it; the first engine agrees with itself warm, too."""
    engines = {"potential": solvers._solve_dp_graph, "oracle": _solve_dp_graph}
    order = [first, *(e for e in engines if e != first), first]
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    got = [outcomes(monkeypatch, C, engines[e]) for e in order]
    assert got[0] == got[1] == got[2]
    return got[0]


RANDOM = [(1, 1), (2, 1), (6, 1), (2, 2), (3, 2), (5, 2), (9, 2), (16, 2),
          (3, 3), (5, 3), (7, 3), (8, 3), (4, 4), (5, 4), (5, 5)]


@pytest.mark.parametrize("first", ["potential", "oracle"])
@pytest.mark.parametrize("n, p", RANDOM)
def test_random_arrays_match_the_two_gather_sweep(monkeypatch, n, p, first):
    for seed in range(2):
        got = assert_same_reports(monkeypatch, gen_random_layered_monge(n, p, seed), first)
        assert isinstance(got[0], dict), got[0]  # every one of these solves


@pytest.mark.parametrize("first", ["potential", "oracle"])
@pytest.mark.parametrize("n, p", [(6, 1), (4, 2), (8, 2), (4, 3), (6, 3), (4, 4)])
def test_tied_arrays_match_the_two_gather_sweep(monkeypatch, n, p, first):
    # Every in-band rectangle ties: the zero array and shifts of it.
    for seed in (None, 7):
        assert_same_reports(monkeypatch, tied_instance(n, p, seed)[0], first)


@pytest.mark.parametrize("first", ["potential", "oracle"])
def test_int64_edge_arrays_match_the_two_gather_sweep(monkeypatch, first):
    shapes = [(2, 2), (3, 2), (4, 3), (5, 3), (5, 4), (5, 5)]
    for seed, (n, p) in enumerate(shapes * 2):
        for C in (int64_edge_instance(n, p, seed, seed % 2 == 1)[0],
                  scaled_edge_instance(n, p, seed)[0]):
            assert_same_reports(monkeypatch, C, first)


@pytest.mark.parametrize("first", ["potential", "oracle"])
@pytest.mark.parametrize("n, p", [(6, 4), (6, 5), (6, 6)])
def test_wide_windows_match_the_two_gather_sweep(monkeypatch, n, p, first):
    # (6, 4) solves.  At p = 5 and 6 a signature takes two words, and with
    # this limit both engines sweep rows 1 and 2 and refuse row 3.
    monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", 720 * 720)
    got = assert_same_reports(monkeypatch, gen_random_layered_monge(n, p, 3), first)
    if p > 4:
        assert got[0] == got[1]
        assert f"row 3 of n={n}, p={p} " in got[0][1]


def potentials(C, i, words):
    """W_i of each signature of words, shape (W, S): row i's costs summed over
    the in-array cells of its extended window that the signature leaves
    empty, bit by bit on Python ints."""
    n, p = C.n, C.p
    out = []
    for sig in packed_sigs(words, p):
        total = 0
        for s in range(4 * p - 3):  # the last slot is the empty new column
            col = i - 2 * p + 2 + s
            if 1 <= col <= n:
                total += sum(int(C.entries[i - 1, col - 1, k])
                             for k in range(p) if not sig >> (p * s + k) & 1)
        out.append(total)
    return out


@pytest.mark.parametrize("n, p, rows", [(1, 1, 1), (4, 1, 4), (7, 2, 7), (5, 3, 5),
                                        (4, 4, 4), (6, 5, 2), (6, 6, 2)])
def test_swept_costs_carry_each_row_potential(monkeypatch, n, p, rows):
    # Each row keeps its incoming adjusted costs: the two-gather sweep's
    # incoming costs plus W_i.  At p = 5 and 6 the limit stops both engines
    # at row 3, so only rows 1 and 2 are swept.
    monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", 720 * 720)
    C = gen_random_layered_monge(n, p, 11)
    kept = {}

    def recording(name):
        def keep(costs):
            kept.setdefault(name, []).append(costs.copy())
            return original(costs)
        return keep

    original = _keep

    monkeypatch.setattr(solvers, "_keep", recording("potential"))
    monkeypatch.setitem(globals(), "_keep", recording("oracle"))
    for engine in (solvers._solve_dp_graph, _solve_dp_graph):
        try:
            engine(C)
        except OracleSizeLimitError:
            assert rows < n
    monkeypatch.undo()
    assert len(kept["potential"]) == len(kept["oracle"]) == rows
    g, sigs = None, _words([_pack_sig(_init_sig(n, p), p)], p, 4 * p - 4)
    for i in range(1, rows + 1):
        want = kept["oracle"][i - 1] + np.array(potentials(C, i, sigs), dtype=np.int64)
        assert np.array_equal(kept["potential"][i - 1], want), i
        g = _next_graph(g, p, _row_clip(i, n, p), sigs)
        sigs = flat_edges(g).sigs  # the next row's swept states, in its order


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_potential_tables_sum_the_empty_cells(p):
    # Random signatures, with the off-array slots full as in every state,
    # priced by the tables against a bit-by-bit sum over Python ints.
    n = max(p, 3)
    rng = np.random.default_rng(p)
    C = CostArray(rng.integers(-10**6, 10**6, size=(n, n, p)))
    tabs = solvers._potential_tables(C)
    width = 4 * p - 4
    for i in range(1, n + 1):
        full = [not 1 <= i - 2 * p + 2 + s <= n for s in range(width)]
        packed = [sum(((1 << p) - 1 if off else int(rng.integers(1 << p))) << p * s
                      for s, off in enumerate(full)) for _ in range(20)]
        words = _words(packed, p, width)
        cols = solvers._sig_cols(words, p)
        step = sum(tab.take(col) for tab, col in zip(tabs[i - 1], cols))
        # As a target of row i - 1, whose window starts one column to the
        # left, a signature fills that window's slot 0 and moves up a slot.
        moved = _words([x << p | (1 << p) - 1 for x in packed], p, width + 1)
        prev = potentials(C, i - 1, moved) if i > 1 else [0] * len(packed)
        assert step.tolist() == [a - b for a, b in zip(potentials(C, i, words), prev)], i
