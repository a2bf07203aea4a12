"""The lean row-graph build and tiled sweep against the build they replaced.

ConcatRowGraph is the former _RowGraph build, kept verbatim as the oracle:
it concatenates each placement's edges and orders them with an argsort.
flat_edges decodes a graph's in-degree tiles into the oracle's flat layout,
in the graph's state order, and cut_graph cuts the oracle's graph to the
targets that a row sweeps and puts them in that order.
"""

import itertools
import time
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

from p3ap import solve_dp
from p3ap import solvers
from p3ap.instances import gen_random_layered_monge
from p3ap.solvers import OracleSizeLimitError, _init_sig, _pack_sig, _row_clip, _words


class ConcatRowGraph:
    def __init__(self, p: int, clip, in_sigs: np.ndarray):
        lclip, rclip = clip
        full = (1 << p) - 1
        width = 4 * p - 4
        # Placements as column offsets from the extended window's left edge
        # (which leaves the window after this row), lexicographic as in
        # _row_placements.
        self.pls = list(itertools.permutations(range(lclip, width - rclip + 1), p))
        self.flat = np.array(
            [[c * p + k for k, c in enumerate(pl)] for pl in self.pls], dtype=np.intp
        )
        # Extend each incoming window by its new right column, which counts
        # as complete when it lies off the array.
        ext = in_sigs + ((full if rclip else 0) << (p * width))
        # A placement fits when it hits no filled slot and, if the leaving
        # column (slot 0) is in the array, completes it.
        lead = 0 if lclip else full
        cand_sig, cand_src, sizes = [], [], []
        for pl in self.pls:
            add = 0
            for k, c in enumerate(pl):
                add |= 1 << (p * c + k)
            sel = np.flatnonzero((ext & (add | lead)) == (lead & ~add))
            cand_sig.append((ext[sel] | add) >> p)
            cand_src.append(sel)
            sizes.append(sel.size)
        sig = np.concatenate(cand_sig)
        src = np.concatenate(cand_src)
        del cand_sig, cand_src
        if not sig.size:
            raise RuntimeError("internal error: no feasible band-limited extension")
        T = len(self.pls)
        t = np.repeat(np.arange(T, dtype=np.min_scalar_type(T - 1)), sizes)
        order = edge_order(sig, src, in_sigs.size, p * width)
        sig = sig[order]
        self.src = src[order].astype(np.int32)
        self.t = t[order]
        first = np.ones(sig.size, dtype=bool)
        first[1:] = sig[1:] != sig[:-1]
        self.starts = np.flatnonzero(first)
        self.counts = np.diff(np.append(self.starts, sig.size))
        self.sigs = sig[self.starts]


def edge_order(sig, src, src_count: int, sig_bits: int) -> np.ndarray:
    """Order of edges by (sig, src): one argsort of a packed key when both
    fit in 63 bits, as they always do for p <= 3, else a two-key lexsort."""
    src_bits = max(1, (src_count - 1).bit_length())
    if sig_bits + src_bits <= 63:
        return np.argsort((sig << src_bits) | src)
    return np.lexsort((src, sig))


GRAPH_ARRAYS = ("flat", "src", "t", "starts", "counts", "sigs")


_FLAT = weakref.WeakKeyDictionary()


def flat_edges(g):
    """g's in-edges as the flat arrays of GRAPH_ARRAYS, in g's state order:
    src and t target by target, in tie order, and each swept target's
    signature and its starts and counts into them.

    Column c of the tiles holds the in-edges of the target j with col[j] =
    c, in its first counts[c] rows; the rows below are pads."""
    view = _FLAT.get(g)
    if view is None:
        src, t = [], []
        for c0, s, tt in g.tiles:
            real = (np.arange(len(s))[:, None] < g.counts[c0:c0 + s.shape[1]]).T
            src.append(s.T[real])
            t.append(tt.T[real])
        swept = np.flatnonzero(g.swept)
        view = SimpleNamespace(
            flat=g.flat, sigs=g.sigs[:, swept[np.argsort(g.col[swept])]],
            src=np.concatenate(src), t=np.concatenate(t),
            starts=np.cumsum(g.counts) - g.counts, counts=g.counts,
        )
        _FLAT[g] = view
    return view


def cached_graphs(monkeypatch, n, p, seed=0):
    """The graphs that one cold solve of gen_random_layered_monge(n, p) caches."""
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    solve_dp(gen_random_layered_monge(n, p, seed=seed))
    return solvers._GRAPHS


def chain(graphs, n: int, p: int, rows=None):
    """(i, key, g, sources) for rows i = 1 .. rows (default n) of an n-row
    solve, walked through the graph cache from the first row's key, whose
    one incoming state is column 0; sources is the count of states swept
    before row i, which g's tiles index."""
    raw = _words([_pack_sig(_init_sig(n, p), p)], p, 4 * p - 4).tobytes()
    col, sources = np.zeros(1, dtype=np.uint8).tobytes(), 1
    for i in range(1, (rows or n) + 1):
        key = (p, _row_clip(i, n, p), raw, col)
        g = graphs[key]
        yield i, key, g, sources
        raw, col, sources = g.sig_bytes, g.col_bytes, int(np.count_nonzero(g.swept))


def in_columns(key, sources):
    """The incoming states' columns that a chain key holds."""
    return np.frombuffer(key[3], dtype=np.min_scalar_type(sources - 1))


def counted_targets(sigs, p: int) -> np.ndarray:
    """Whether each target is kept as a state of its row, in Python ints:
    its slot 0, the column that the next row must complete, misses at most
    one of the p layers."""
    full = (1 << p) - 1
    return np.array([bin(int(s) & full).count("1") >= p - 1 for s in sigs], dtype=bool)


def live_targets(sigs, p: int, left: int) -> np.ndarray:
    """Whether each target, after a row with left rows below it, is swept:
    its slot t, which the next min(t + 1, left) rows can fill one cell a
    row, misses at most that many of the p layers.  sigs may be int64 or
    Python ints of any width; every slot is tested, bit by bit."""
    sigs = np.asarray(sigs)
    ok = np.ones(sigs.size, dtype=bool)
    for t in range(4 * p - 4):
        slot = sigs >> p * t
        misses = sum(1 - (slot >> k & 1) for k in range(p))
        ok &= np.asarray(misses <= min(t + 1, left), dtype=bool)
    return ok


def state_order(starts, counts):
    """Targets with in-edges from starts, counts many, in the order of a
    row's states: by in-degree, stably.  Gives that order and the indices
    of their in-edges in it."""
    order = np.argsort(counts, kind="stable")
    c = counts[order]
    return order, np.repeat(starts[order] - (np.cumsum(c) - c), c) + np.arange(c.sum())


def cut_graph(want, in_sigs, p: int, left: int, in_col):
    """want, a ConcatRowGraph built on in_sigs for a row with left rows
    below it, as _RowGraph sweeps it: the live targets alone, in state
    order, with their in-edges, whose sources all finish too and are
    numbered by in_col, their columns in the row before, in the narrowest
    type that numbers the incoming states that finish."""
    live = live_targets(want.sigs, p, left)
    fin = live_targets(in_sigs, p, left + 1)
    assert fin[want.src[np.repeat(live, want.counts)]].all()
    order, edges = state_order(want.starts[live], want.counts[live])
    want.src = in_col[want.src[edges]].astype(np.min_scalar_type(np.count_nonzero(fin) - 1))
    want.t = want.t[edges]
    want.counts = want.counts[live][order]
    want.starts = np.cumsum(want.counts) - want.counts
    want.sigs = want.sigs[live][order]
    return want


# (12, 3) runs its four interior rows on nested source sets of 83,488 to
# 83,500 kept states.
@pytest.mark.parametrize("n, p", [(6, 3), (7, 3), (12, 2), (5, 4), (12, 3)])
def test_row_graphs_match_concatenate_build(monkeypatch, n, p):
    graphs = cached_graphs(monkeypatch, n, p)
    assert graphs
    walked = set()
    for i, key, g, sources in chain(graphs, n, p):
        walked.add(key)
        gp, clip, raw, _ = key
        in_sigs = np.frombuffer(raw, dtype=np.int64)
        want = ConcatRowGraph(gp, clip, in_sigs)
        assert g.states == want.starts.size
        assert np.array_equal(g.sigs[0], want.sigs[counted_targets(want.sigs, gp)])
        want = cut_graph(want, in_sigs, gp, n - i, in_columns(key, sources))
        for name in GRAPH_ARRAYS:
            a, b = getattr(flat_edges(g), name), getattr(want, name)
            if name == "sigs":
                a = a.reshape(-1)  # one word per signature for p <= 4
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
    assert walked == set(graphs)


def check_cut_row(p: int, clip, left: int, full_in, kept_in, in_col, swept_in, cut, dead):
    """Builds one row, with left rows below it, from all incoming states
    with ConcatRowGraph and from the kept ones, whose columns are in_col,
    with _RowGraph, checks the cuts against the former and gives the next
    row's (all, kept) incoming states, the columns of the kept ones, the
    swept ones in column order, and which of all were cut and which are
    dead."""
    want = ConcatRowGraph(p, clip, full_in)
    g = solvers._RowGraph(p, clip, kept_in[None, :], in_col)
    got = flat_edges(g)
    # The states that the previous row cut have no out-edge here, and those
    # that it left unswept lead to targets that this row leaves unswept.
    alive = live_targets(want.sigs, p, left)
    target = np.repeat(np.arange(want.sigs.size), want.counts)
    assert not cut.take(want.src).any()
    assert not alive[target[dead.take(want.src)]].any()
    kept = counted_targets(want.sigs, p)
    assert g.states == want.starts.size
    assert np.array_equal(g.sigs[0], want.sigs[kept])
    assert np.array_equal(g.sigs[0][g.swept], want.sigs[alive])
    # Its swept edges are the oracle's edges into the live targets, in the
    # oracle's order within a target and in state order across them; only
    # their sources are numbered by the swept states' columns.
    edges = state_order(want.starts[alive], want.counts[alive])[1]
    assert np.array_equal(np.repeat(got.sigs[0], got.counts), want.sigs[target[edges]])
    assert got.src.dtype == np.min_scalar_type(swept_in.size - 1)
    assert np.array_equal(swept_in[got.src], full_in[want.src[edges]])
    assert np.array_equal(got.t, want.t[edges])
    return want.sigs, g.sigs[0], g.col, got.sigs[0], ~kept, ~alive


@pytest.mark.parametrize("p, top", [(2, 12), (3, 12), (4, 6)])
def test_cut_targets_are_dead_and_kept_edges_keep_the_oracle_order(p, top):
    # Every row of every n up to top, with rows that several n share (the
    # same clipping, incoming states and rule) checked once.  Induction on
    # the rows: a dead state only leads to dead ones, and the last row's
    # one state is live, so no dead state has a completion.
    # A row's columns depend only on its incoming states and rule, so
    # they are the same on every such row, too.
    done = {}
    for n in range(p, top + 1):
        full_in = kept_in = swept_in = np.array([_pack_sig(_init_sig(n, p), p)], dtype=np.int64)
        in_col = np.zeros(1, dtype=np.uint8)
        cut = dead = np.zeros(1, dtype=bool)
        for i in range(1, n + 1):
            clip = _row_clip(i, n, p)
            # A slot misses at most p layers, so past p rows left the rule
            # is the same.
            key = (clip, min(n - i, p), full_in.tobytes())
            if key not in done:
                done[key] = check_cut_row(p, clip, n - i, full_in, kept_in, in_col, swept_in,
                                          cut, dead)
            full_in, kept_in, in_col, swept_in, cut, dead = done[key]
        assert full_in.size == kept_in.size == swept_in.size == 1 and not dead[0]


def packed_sigs(words, p):
    """Signatures of W words, shape (W, S), as Python ints with slot t at
    bit p*t, the layout of the single-word engine."""
    span = p * (63 // p)
    return np.array([sum(int(w) << span * k for k, w in enumerate(col)) for col in words.T],
                    dtype=object)


@pytest.mark.parametrize("p", [5, 6])
def test_multiword_row_graphs_match_a_python_int_build(monkeypatch, p):
    # At n = 6 the windows of rows 1 and 2 reach past the first word; at
    # p = 6 the extended window also takes one word more than a signature.
    # ConcatRowGraph runs unchanged on Python-int signatures.
    monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", 720 * 720)
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    with pytest.raises(OracleSizeLimitError, match=f"row 3 of n=6, p={p} "):
        solve_dp(gen_random_layered_monge(6, p, seed=1))
    assert len(solvers._GRAPHS) == 2
    for i, key, g, sources in chain(solvers._GRAPHS, 6, p, rows=2):
        gp, clip, raw, _ = key
        assert g.sigs.shape[0] == 2
        words = np.frombuffer(raw, dtype=np.int64).reshape(2, -1)
        want = ConcatRowGraph(gp, clip, packed_sigs(words, p))
        assert g.states == want.starts.size
        assert np.array_equal(packed_sigs(g.sigs, p), want.sigs)
        want = cut_graph(want, packed_sigs(words, p), gp, 6 - i, in_columns(key, sources))
        for name in GRAPH_ARRAYS:
            a, b = getattr(flat_edges(g), name), getattr(want, name)
            if name == "sigs":
                a = packed_sigs(a, p)
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name


def check_tiles(g, cap, sources):
    """g's tiles: at most cap entries, or one column; together they hold
    columns 0 .. S - 1 in order, one for each swept target, by in-degree
    and then by signature, and col says which; src indexes sources states
    in the narrowest type that holds them; each is as deep as its deepest
    column; pads repeat the last in-edge of their own column.  flat_edges
    checks none of this: it drops the pads by counts alone."""
    S = g.counts.size
    assert S == np.count_nonzero(g.swept) and g.counts.min() >= 1
    col = g.col[g.swept]
    assert g.col.dtype == np.min_scalar_type(S - 1) and g.col.size == g.swept.size
    assert np.array_equal(np.sort(col), np.arange(S))
    # By in-degree, and in signature order within one in-degree.
    assert np.all(np.diff(g.counts) >= 0)
    target = np.argsort(col)
    assert np.all(np.diff(target)[np.diff(g.counts) == 0] > 0)
    end = 0
    for c0, src, t in g.tiles:
        d, m = src.shape
        assert c0 == end and m >= 1 and t.shape == (d, m)
        assert src.size <= cap or m == 1
        assert src.dtype == np.min_scalar_type(sources - 1) and int(src.max()) < sources
        assert t.dtype == np.min_scalar_type(len(g.flat) - 1)
        counts = g.counts[c0:c0 + m]
        assert counts.max() == d
        # Pad (r, j), r >= counts[j], equals edge (counts[j] - 1, j): the
        # same source and placement.
        last = np.minimum(np.arange(d)[:, None], counts - 1)
        assert np.array_equal(src, np.take_along_axis(src, last, axis=0))
        assert np.array_equal(t, np.take_along_axis(t, last, axis=0))
        end += m
    assert end == S


def test_row_graph_tiles_hold_at_most_the_entry_cap(monkeypatch):
    # With 1000 entries a tile, the wide rows of (7, 3) take several tiles
    # of each in-degree and the narrow ones one padded tile.
    monkeypatch.setattr(solvers, "_BLOCK_EDGES", 1000)
    graphs = cached_graphs(monkeypatch, 7, 3)
    for _, _, g, sources in chain(graphs, 7, 3):
        check_tiles(g, 1000, sources)
        single = g.counts.size * g.counts.max() <= 1000
        assert (len(g.tiles) == 1) == single
    assert {len(g.tiles) == 1 for g in graphs.values()} == {True, False}


@pytest.mark.parametrize("p, top", [(1, 12), (2, 12), (3, 12), (4, 6)])
def test_tiles_hold_the_oracle_in_edges_in_order(p, top):
    # Every row of every n up to top, on the kept states of the row before
    # and their columns, with rows that several n share checked once.
    done = {}
    for n in range(p, top + 1):
        sigs = np.array([_pack_sig(_init_sig(n, p), p)], dtype=np.int64)
        col = np.zeros(1, dtype=np.uint8)
        for i in range(1, n + 1):
            clip = _row_clip(i, n, p)
            key = (clip, min(n - i, p), sigs.tobytes())
            if key not in done:
                g = solvers._RowGraph(p, clip, sigs[None, :], col)
                sources = int(np.count_nonzero(live_targets(sigs, p, n - i + 1)))
                check_tiles(g, solvers._BLOCK_EDGES, sources)
                want = ConcatRowGraph(p, clip, sigs)
                assert np.array_equal(g.sigs[0], want.sigs[counted_targets(want.sigs, p)])
                want = cut_graph(want, sigs, p, n - i, col)
                for name in GRAPH_ARRAYS:
                    a, b = getattr(flat_edges(g), name), getattr(want, name)
                    if name == "sigs":
                        a = a.reshape(-1)
                    assert a.dtype == b.dtype and np.array_equal(a, b), (n, i, name)
                done[key] = g.sigs[0], g.col
            sigs, col = done[key]
        assert sigs.size == 1


@pytest.mark.parametrize("n, p", [(7, 3), (12, 2)])
def test_sweep_reads_the_graphs_without_copying_them(monkeypatch, n, p):
    # The sweep gathers with np.take on the graph's own narrow tiles; a
    # warm solve must neither widen them nor store copies next to them.
    graphs = cached_graphs(monkeypatch, n, p)
    held = {key: (g.nbytes, [a for _, src, t in g.tiles for a in (src, t)])
            for key, g in graphs.items()}
    solve_dp(gen_random_layered_monge(n, p, seed=1))
    assert set(graphs) == set(held)
    for _, key, g, sources in chain(graphs, n, p):
        nbytes, tiles = held[key]
        assert g.nbytes == nbytes
        assert all(a is b for a, b in zip(tiles, (a for _, src, t in g.tiles for a in (src, t))))
        for _, src, t in g.tiles:
            assert src.dtype == np.min_scalar_type(sources - 1)
            assert t.dtype == np.min_scalar_type(len(g.flat) - 1)


def test_graph_cache_key_carries_the_column_map(monkeypatch):
    # Row 2 of (7, 3) built twice on the same incoming signatures, once on
    # the columns of row 1's graph and once on a relabelling of them: two
    # cache entries, whose sources differ by that relabelling alone.
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    n, p = 7, 3
    sigs = _words([_pack_sig(_init_sig(n, p), p)], p, 4 * p - 4)
    first = solvers._next_graph(None, p, _row_clip(1, n, p), sigs)
    relabel = np.random.default_rng(0).permutation(first.counts.size).astype(first.col.dtype)
    assert (relabel != np.arange(relabel.size)).any()
    other = SimpleNamespace(sig_bytes=first.sig_bytes, sigs=first.sigs,
                            col_bytes=relabel[first.col].tobytes(), col=relabel[first.col])
    clip = _row_clip(2, n, p)
    a = solvers._next_graph(first, p, clip, sigs)
    b = solvers._next_graph(other, p, clip, sigs)
    assert a is not b and len(solvers._GRAPHS) == 3
    assert solvers._next_graph(other, p, clip, sigs) is b
    assert a.sig_bytes == b.sig_bytes and a.col_bytes == b.col_bytes
    assert len(a.tiles) == len(b.tiles)
    for (c0, src_a, t_a), (c1, src_b, t_b) in zip(a.tiles, b.tiles):
        assert c0 == c1 and src_a.dtype == src_b.dtype
        assert np.array_equal(relabel[src_a], src_b) and np.array_equal(t_a, t_b)


def test_interior_graphs_reach_their_fixed_point(monkeypatch):
    # An interior graph's key holds its sources' columns as well as their
    # signatures, and the chain of clip (0, 0) still closes on itself: a
    # cold (20, 3) solve builds three such graphs, and a longer one none.
    graphs = cached_graphs(monkeypatch, 20, 3)
    assert len(graphs) == 11
    assert sum(clip == (0, 0) for _, clip, _, _ in graphs) == 3
    solve_dp(gen_random_layered_monge(60, 3, seed=1))
    assert sum(clip == (0, 0) for _, clip, _, _ in graphs) == 3


REPORT_FIELDS = ("optimum", "solution", "all_optima", "optima_count",
                 "unique_in_band", "state_counts", "states_explored")


@pytest.mark.parametrize("n, p", [(6, 3), (12, 2), (16, 2), (4, 4), (5, 4)])
def test_blocked_sweep_matches_reference(monkeypatch, n, p):
    # The block size is also the chunk size of the build's key decoding.
    C = gen_random_layered_monge(n, p, seed=n + p)
    want = solve_dp(C, all_optima_in_band=True, method="reference")
    for block in (1, 3):
        monkeypatch.setattr(solvers, "_BLOCK_EDGES", block)
        monkeypatch.setattr(solvers, "_GRAPHS", {})
        got = solve_dp(C, all_optima_in_band=True)
        assert max(len(g.tiles) for g in solvers._GRAPHS.values()) > 1
        for field in REPORT_FIELDS:
            assert getattr(got, field) == getattr(want, field), (block, field)


def test_dp_refuses_oversized_rows_early():
    # Row 3 of this instance has 277,410 incoming states and 1,680
    # placements: 466 M candidate transitions.
    C = gen_random_layered_monge(8, 4, 1)
    t0 = time.perf_counter()
    with pytest.raises(OracleSizeLimitError, match=r"row 3 of n=8, p=4 .* 2\^27"):
        solve_dp(C)
    assert time.perf_counter() - t0 < 1.0


def test_row_size_limit_is_shared_by_both_engines(monkeypatch):
    # Every row of n = 5, p = 3 has P(5, 3) = 60 placements; rows 1 to 3
    # have 1, 60 and 690 incoming states.
    C = gen_random_layered_monge(5, 3, seed=0)
    monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", 60 * 60)
    for method in ("auto", "reference"):
        with pytest.raises(OracleSizeLimitError, match="row 3 of n=5, p=3 has 690 incoming"):
            solve_dp(C, method=method)
    monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", 1 << 27)
    assert solve_dp(C).optimum == solve_dp(C, method="reference").optimum


def test_row_size_limit_reads_every_target(monkeypatch):
    # Row 5 of n = 7, p = 3 has 34,875 incoming states, of which the graph
    # keeps 22,000, and P(7, 3) = 210 placements.  The limit counts all of
    # them: 7.3 M candidates are refused, where the kept 4.62 M would pass.
    monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", 5_000_000)
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    C = gen_random_layered_monge(7, 3, seed=0)
    messages = []
    for method in ("auto", "reference"):
        with pytest.raises(OracleSizeLimitError) as refusal:
            solve_dp(C, method=method)
        messages.append(str(refusal.value))
    assert messages[0] == messages[1]
    assert "row 5 of n=7, p=3 has 34875 incoming states x 210 placements" in messages[0]
