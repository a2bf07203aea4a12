"""The swept-state row sweep against the sweep of every kept state.

_RowGraph, _next_graph, _solve_dp_graph and _list_optima below are the
former graph engine, kept verbatim as the oracle, with a graph cache of
their own: each row sweeps every state that it keeps, in int32 tiles over
the int64 costs.  solve_dp's engine sweeps only the states that pass the
completion rule (solvers._can_finish), through narrow tiles, and graphs of
several tiles read the row's narrow kept costs, so every report must come
out the same.  The rule is also checked against an exact backward pass:
no state that can reach the final state is left unswept.
"""

import itertools
from typing import Optional

import numpy as np
import pytest

from p3ap import CostArray, solve_dp
from p3ap import solvers
from p3ap.core import _latin_rectangles
from p3ap.instances import gen_counterexample, gen_counterexample_extended, gen_random_layered_monge
from p3ap.solvers import (
    _BLOCK_EDGES,
    _GRAPH_CACHE_BYTES,
    _LIST_CHUNK,
    OptimaLimitError,
    OracleSizeLimitError,
    _check_optima,
    _check_row_size,
    _init_sig,
    _keep,
    _pack_sig,
    _potential_tables,
    _row_clip,
    _sig_cols,
    _words,
)
from test_row_graph import REPORT_FIELDS
from test_solvers import int64_edge_instance, scaled_edge_instance, tied_instance


class _RowGraph:
    """Cost-free transitions of one row, in window-relative coordinates.

    An edge leads from an incoming state src through a placement t to a
    target state.  The targets are in increasing signature order; the
    in-edges of each are in order of src, and for a given source and
    target the placement is unique, so this is also the tie-break order.
    sig_bytes, the bytes of the target signatures, keys the next row's
    graph, and sigs is a read-only view of it.  cols holds, as cost-free
    data for the sweep's row potentials, each signature byte that carries
    slots (_sig_bytes) in one uint8 row per byte.

    The edges are stored as in-degree tiles.  tiles is a list of (c0, src,
    t): src is an int32 (d, m) matrix, t the matching matrix of placements,
    and column j holds the in-edges of the target in column c0 + j, in tie
    order, in its first counts[c0 + j] rows.  The sweep takes one gather and
    one minimum over axis 0 per tile.  A graph whose S targets and largest
    in-degree D have S * D <= _BLOCK_EDGES is one tile in signature order,
    and back is None: every p <= 2 row is.  Each column is padded to depth
    D by repeating its last in-edge, which changes neither its minimum nor
    its first minimal in-edge, and no pad counts as a tie.  Any other graph
    orders its targets by in-degree, stably, and cuts each run of one
    in-degree d into tiles of _BLOCK_EDGES // d targets (at least one);
    those tiles have no pads, and the target of signature index s is in
    column back[s]: one gather puts a row's minima back in signature order.

    A signature is W int64 words, and sigs has shape (W, S): slot t goes in
    word t // cpw at bit p * (t % cpw), cpw = 63 // p.  W = 1 for p <= 4, the
    plain packed layout, and 2 for p = 5 and 6.  The extended window's extra
    slot can take one word more, as at p = 6.  A target drops slot 0: each
    word shifts down one slot and takes the next word's low slot.  The edges
    are built into a (W, E) int64 key.  When W = 1 and (target signature,
    src, t) fits in 63 bits, as it always does for p <= 3, the key packs all
    three and is sorted in place; otherwise it holds the signature and a
    lexsort on (src, words), most significant word last, gives increasing
    packed-signature order.  The sorted edges' src and t are gathered into
    the tiles, one tile at a time, and then freed.  src stays int32 and t
    the smallest unsigned type that holds a placement (uint8 for p <= 2,
    uint16 for p = 3 and 4): the sweep gathers through src with take, and
    the traceback and the listing read t only on minimal edges.

    A target's slot 0 is the column that the next row must complete, with
    one cell at most.  When it misses two or more layers the target has no
    out-edge, and the packed build cuts it with its in-edges: about 36 % of
    the edges of a p = 3 row.  The graph's arrays hold the kept targets
    only, in the same order, and they are the next row's sources.  states
    counts every target, the cut ones included; that is the row's state
    count in a report and the incoming count that the next row's size limit
    reads, as in the reference engine.  A cut target has no out-edge, so
    the next graph has the same targets and edges as if nothing were cut.
    """

    def __init__(self, p: int, clip, in_sigs: np.ndarray):
        lclip, rclip = clip
        full = (1 << p) - 1
        width = 4 * p - 4
        W = in_sigs.shape[0]
        # flat[t, k] = c * p + k: placement t, lexicographic as in
        # _row_placements, puts layer k at column offset c from the extended
        # window's left edge (which leaves the window after this row).
        pls = itertools.permutations(range(lclip, width - rclip + 1), p)
        self.flat = np.array(list(pls), np.intp).reshape(-1, p) * p + np.arange(p)
        # Extend each incoming window by its new right column, which counts
        # as complete when it lies off the array.
        right = _words([(full if rclip else 0) << (p * width)], p, width + 1)
        ext = np.pad(in_sigs, ((0, len(right) - W), (0, 0))) + right
        # A placement fits when it hits no filled slot and, if the leaving
        # column (slot 0, in word 0) is in the array, completes it.  So it
        # fits only sources whose leaving column holds exactly the layers
        # lead & ~add[0], and is tested on that group of sources alone,
        # which keeps their increasing order.
        lead = 0 if lclip else full
        adds = _words([sum(1 << x for x in pl) for pl in self.flat.tolist()], p, width + 1).T
        groups = {}

        def fitting(add):
            v = lead & ~int(add[0])
            if v not in groups:
                at = np.flatnonzero((ext[0] & lead) == v)
                groups[v] = at, ext[:, at]
            at, sub = groups[v]
            ok = (sub[0] & add[0]) == 0
            for w in range(1, len(sub)):
                ok &= (sub[w] & add[w]) == 0
            return at[ok]

        sels = [fitting(add) for add in adds]
        E = sum(map(len, sels))
        if not E:
            raise RuntimeError("internal error: no feasible band-limited extension")
        T = len(self.flat)
        t_type = np.min_scalar_type(T - 1)
        src_bits = (in_sigs.shape[1] - 1).bit_length()
        t_bits = (T - 1).bit_length()
        packed = W == 1 and p * width + src_bits + t_bits <= 63
        # key holds each edge's target signature, and below it, when packed,
        # its src and t: sorting it sorts the edges by (signature, src).
        key = np.empty((W, E), dtype=np.int64)
        if not packed:
            src = np.empty(E, dtype=np.int32)
            t = np.empty(E, dtype=t_type)
        o = 0
        for ti, add in enumerate(adds):
            sel, sels[ti] = sels[ti], None  # freed once its keys are written
            size = sel.size
            part = key[:, o:o + size]
            moved = np.take(ext, sel, axis=1)
            moved |= add[:, None]
            np.right_shift(moved[:W], p, out=part)
            part[:len(moved) - 1] |= (moved[1:] & full) << (p * (63 // p - 1))
            if packed:
                part <<= src_bits + t_bits
                sel <<= t_bits
                part |= sel
                part |= ti
            else:
                src[o:o + size] = sel
                t[o:o + size] = ti
            o += size
        if packed:
            key.sort()
            # The cut (see the class docstring): one pass over the sorted
            # keys, a chunk at a time, counts every target in states, marks
            # the first edge of each kept one and moves the kept keys down
            # within key, so the cut makes no second edge array.
            live = np.array([bin(v).count("1") >= p - 1 for v in range(full + 1)])
            shift, kept, self.states, last = src_bits + t_bits, 0, 0, -1
            first = np.empty(E, dtype=bool)
            for a in range(0, E, _BLOCK_EDGES):
                chunk = key[0, a:a + _BLOCK_EDGES]
                sig = chunk >> shift
                new = np.diff(sig, prepend=last) != 0
                last = sig[-1]
                self.states += int(np.count_nonzero(new))
                alive = live.take(sig & full)
                chunk = chunk[alive]
                key[0, kept:kept + chunk.size] = chunk
                first[kept:kept + chunk.size] = new[alive]
                kept += chunk.size
            E, first, key = kept, first[:kept], key[:, :kept]
            src = np.empty(E, dtype=np.int32)
            t = np.empty(E, dtype=t_type)
            for a in range(0, E, _BLOCK_EDGES):
                at = np.s_[a:a + _BLOCK_EDGES]
                t[at] = key[0, at] & ((1 << t_bits) - 1)
                src[at] = (key[0, at] >> t_bits) & ((1 << src_bits) - 1)
            starts = np.flatnonzero(first)
            sigs = key[:, starts] >> shift
        else:
            # Nothing is cut on this path, which serves p >= 4.  There a
            # target's slot 0 lies off the array, and so counts as complete,
            # up to row 2p - 3; the solves that _MAX_ROW_CANDIDATES lets
            # through reach a later row only as their last, whose one target
            # is complete ((7, 4) is refused at row 4).
            order = np.lexsort((src, *key))
            # The sorted signatures key[:, order] are compared a chunk at a
            # time, so no sorted copy of key is made.
            first = np.ones(E, dtype=bool)
            for a in range(1, E, _BLOCK_EDGES):
                pair = key[:, order[a - 1:a + _BLOCK_EDGES]]
                first[a:a + _BLOCK_EDGES] = (pair[:, 1:] != pair[:, :-1]).any(axis=0)
            starts = np.flatnonzero(first)
            sigs = key[:, order[starts]]
            self.states = sigs.shape[1]
            src, t = src[order], t[order]
        del key, part  # part is a view of key
        # src and t are now sorted by (target signature, src), and a
        # target's in-edges run from its starts to the next target's.
        counts = np.diff(np.append(starts, E))
        S = starts.size
        if S * int(counts.max()) <= _BLOCK_EDGES:
            tgts, cuts, self.back = np.arange(S), [0], None
        else:
            tgts = np.argsort(counts, kind="stable")
            self.back = np.empty(S, dtype=np.int32)
            self.back[tgts] = np.arange(S, dtype=np.int32)
            # Each run of one in-degree d is cut every _BLOCK_EDGES // d targets.
            deg = counts[tgts]
            runs = np.flatnonzero(np.diff(deg, prepend=0, append=deg[-1] + 1)).tolist()
            cuts = [c for a, b in zip(runs[:-1], runs[1:])
                    for c in range(a, b, max(1, _BLOCK_EDGES // int(deg[a])))]
        self.counts = counts[tgts]
        self.tiles = []
        for c0, c1 in zip(cuts, cuts[1:] + [S]):
            at = tgts[c0:c1]
            # Row r holds each column's r-th in-edge; in the padded tile a
            # column past its in-degree repeats its last one.
            e = starts[at] + np.arange(self.counts[c0:c1].max())[:, None]
            if self.back is None:
                np.minimum(e, starts[at] + counts[at] - 1, out=e)
            self.tiles.append((c0, src.take(e), t.take(e)))
        del src, t
        self.cols = _sig_cols(sigs, p)
        held = [self.flat, self.counts, sigs, self.cols]
        held += [a for _, src, t in self.tiles for a in (src, t)]
        held += [] if self.back is None else [self.back]
        self.nbytes = sum(a.nbytes for a in held)
        self.sig_bytes = sigs.tobytes()

    @property
    def sigs(self) -> np.ndarray:
        """The target signatures, shape (W, S): a read-only view of sig_bytes."""
        return np.frombuffer(self.sig_bytes, np.int64).reshape(-1, self.counts.size)


_GRAPHS: dict = {}


def _next_graph(prev: Optional[_RowGraph], p: int, clip, in_sigs: np.ndarray) -> _RowGraph:
    """The graph of the row after prev, whose targets are its incoming
    states; in_sigs gives them only for the first row, where prev is None."""
    key = (p, clip, in_sigs.tobytes() if prev is None else prev.sig_bytes)
    g = _GRAPHS.get(key)
    if g is None:
        g = _RowGraph(p, clip, in_sigs if prev is None else prev.sigs)
        if g.sig_bytes == key[2]:
            # As for the interior graphs: the next lookup compares by identity.
            g.sig_bytes = key[2]
        if sum(h.nbytes for h in _GRAPHS.values()) + g.nbytes > _GRAPH_CACHE_BYTES:
            _GRAPHS.clear()
        _GRAPHS[key] = g
    return g


def _solve_dp_graph(C: CostArray):
    """The fixed-graph engine, on potential-adjusted costs.

    Before row i each state s carries its cost plus W_i(s), the sum of row
    i's costs over the in-array cells of its extended window that s leaves
    empty.  An edge from s through placement t to target u costs W_i(s) -
    W_i(U), where U is s plus t: its leaving slot full, its other slots u.
    So every in-edge of u reaches it at the adjusted cost of its source
    minus the same W_i(U), and a row only gathers and takes minima.  Adding
    W_{i+1}(u) - W_i(U) per target, from _potential_tables, gives row i+1's
    adjusted costs.  The final state leaves no cell empty, so its minimum
    is the optimum.
    """
    n, p = C.n, C.p
    tabs = _potential_tables(C)

    g = None
    sigs = _words([_pack_sig(_init_sig(n, p), p)], p, 4 * p - 4)
    cols = _sig_cols(sigs, p)
    costs = np.zeros(1, dtype=np.int64)
    kept = []  # per row: its graph and _keep(incoming adjusted costs)
    # A row's minima in tile order, reused from row to row: a fresh array a
    # row, freed after the gather through back, fragmented the heap of long
    # solves (330 against 302 MB of peak RSS at n = 1000, p = 3).
    buf = np.empty(0, dtype=np.int64)
    state_counts = [1]
    for i in range(1, n + 1):
        clip = _row_clip(i, n, p)
        _check_row_size(n, p, i, state_counts[-1], clip)
        g = _next_graph(g, p, clip, sigs)
        for tab, col in zip(tabs[i - 1], cols):
            costs += tab.take(col)
        # Each tile's column minima; back returns those of a graph of
        # several tiles to signature order.
        if g.back is None:
            out = np.minimum.reduce(costs.take(g.tiles[0][1]), 0)
        else:
            if buf.size < g.back.size:
                buf = np.empty(g.back.size, dtype=np.int64)
            for c0, src, _ in g.tiles:
                np.minimum.reduce(costs.take(src), 0, out=buf[c0:c0 + src.shape[1]])
            out = buf.take(g.back)
        kept.append((g, _keep(costs)))
        costs, cols = out, g.cols
        state_counts.append(g.states)

    # After row n its n * p cells fill every in-range window column, and the
    # out-of-range ones count as complete: one state is left.
    if costs.size != 1:
        raise RuntimeError(f"internal error: expected exactly one final state, got {costs.size}")
    optimum = int(costs[0])

    # Each traced state takes its first minimal in-edge, in tie-break order:
    # argmin returns the first minimum, and a column's pads follow its edges.
    placements, state = [None] * n, 0
    for i, (g, prev) in zip(range(n, 0, -1), kept[::-1]):
        j = state if g.back is None else int(g.back[state])
        for c0, src, t in g.tiles:
            if j < c0 + src.shape[1]:
                break
        col = src[:, j - c0]
        e = int(np.argmin(prev.take(col)))
        placements[i - 1] = (g.flat[t[e, j - c0]] // p + (i - 2 * p + 2)).tolist()
        state = int(col[e])
    return optimum, placements, state_counts, lambda: _list_optima(kept, n, p)


def _list_optima(kept, n: int, p: int) -> list:
    """Every optimal rectangle in the order of _walk_optima, in bulk.

    Each row's sweep runs again, tile by tile, over its kept (graph,
    incoming adjusted costs) to find its minimal in-edges, pads left out:
    those of tile column c are ties[i - 1] = (first, src, t, back) from
    first[c] to first[c + 1], in tie order, where first is the running sum
    of the columns' tie counts, and state s is column back[s] (s itself
    when back is None).  The same pass counts forward, over those ties, the
    optimal paths into every state: in int64 while a row's sums stay below
    2^62, and in exact Python ints after that.  The final state's count
    meets the listing cap before anything is listed.  Paths grow breadth
    first from the final state 0, children in tie order, which keeps the
    depth-first order; then a walk back through the parents scatters the
    placements into the rows of up to _LIST_CHUNK rectangles at a time,
    which _latin_rectangles checks in one numpy pass per chunk."""
    ties, ways = [], np.ones(1, dtype=np.int64)
    for g, prev in kept:
        hits, tied = [], []
        for c0, src, t in g.tiles:
            cand = prev.take(src)
            tie = cand == np.minimum.reduce(cand, 0)
            if g.back is None:
                # Column j's pads lie below its counts[j] in-edges and never
                # tie; only a graph of one tile has pads.
                tie &= np.arange(len(tie))[:, None] < g.counts
            # Column by column, each in tie order: h = j * d + r indexes
            # the transposed tile, r * m + j the tile.
            d, m = tie.shape
            h = np.flatnonzero(tie.T)
            e = h % d * m + h // d
            hits.append((src.take(e), t.take(e)))
            tied.append(np.count_nonzero(tie, axis=0))
        src, t = (np.concatenate(a) for a in zip(*hits))
        # first[c] to first[c + 1] are column c's ties: a running sum of the
        # tie counts, each at least 1, so reduceat sums every column's range.
        first = np.concatenate(([0], np.cumsum(np.concatenate(tied))))
        if ways.dtype != object and int(ways.max()) * int(g.counts.max()) >> 62:
            ways = ways.astype(object)
        ways = np.add.reduceat(ways.take(src), first[:-1])
        if g.back is not None:
            ways = ways.take(g.back)
        ties.append((first, src, t, g.back))

    total = _check_optima(int(ways[0]), n, p)
    levels, state = [], np.array([0])
    for first, src, t, back in reversed(ties):
        col = state if back is None else back.take(state)
        lo = first[col]
        k = first[col + 1] - lo
        parent = np.repeat(np.arange(state.size), k)
        e = np.arange(parent.size) + np.repeat(lo - (np.cumsum(k) - k), k)
        state = src[e]
        levels.append((parent, t[e]))
    optima, layer = [], np.arange(p)
    for a in range(0, total, _LIST_CHUNK):
        at = np.arange(a, min(a + _LIST_CHUNK, total))
        path = np.arange(at.size)[:, None]
        rows = np.zeros((at.size, p, n), dtype=np.min_scalar_type(n))
        for i, ((g, _), (parent, t)) in enumerate(zip(kept, reversed(levels)), start=1):
            # flat = column offset * p + layer; the window starts at column i - 2p + 2.
            rows[path, layer, g.flat[t[at]] // p + (i - 2 * p + 1)] = i
            at = parent[at]
        optima += _latin_rectangles(rows)
    return optima


def outcomes(monkeypatch, C, engine):
    """solve_dp's REPORT_FIELDS, plain and with all optima, when it runs
    engine as its graph engine; a refusal stands in for its report."""
    got = []
    with monkeypatch.context() as m:
        m.setattr(solvers, "_solve_dp_graph", engine)
        for all_optima in (False, True):
            try:
                r = solve_dp(C, all_optima_in_band=all_optima)
                got.append({field: getattr(r, field) for field in REPORT_FIELDS})
            except OracleSizeLimitError as e:  # OptimaLimitError too
                got.append((type(e), str(e)))
    return got


def assert_same_reports(monkeypatch, C):
    """Each engine, from an empty cache and then warm, gives the same reports."""
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    monkeypatch.setitem(globals(), "_GRAPHS", {})
    engines = (solvers._solve_dp_graph, _solve_dp_graph) * 2
    got = [outcomes(monkeypatch, C, engine) for engine in engines]
    assert got[0] == got[1] == got[2] == got[3]
    return got[0]


# At n = 6, p = 5 and 6, this limit lets both engines sweep rows 1 and 2
# and refuse row 3.
RANDOM = [(1, 1, None), (6, 1, None), (2, 2, None), (5, 2, None), (9, 2, None),
          (16, 2, None), (3, 3, None), (5, 3, None), (7, 3, None), (8, 3, None),
          (12, 3, None), (4, 4, None), (5, 4, None), (6, 4, None), (5, 5, None),
          (6, 5, 720 * 720), (6, 6, 720 * 720)]


@pytest.mark.parametrize("n, p, limit", RANDOM)
def test_random_arrays_match_the_sweep_of_every_kept_state(monkeypatch, n, p, limit):
    if limit:
        monkeypatch.setattr(solvers, "_MAX_ROW_CANDIDATES", limit)
    for seed in range(2):
        got = assert_same_reports(monkeypatch, gen_random_layered_monge(n, p, seed))
        assert isinstance(got[0], dict) != bool(limit), got[0]


@pytest.mark.parametrize("n, p", [(6, 1), (8, 2), (4, 3), (5, 3), (7, 3), (4, 4), (5, 4)])
def test_tied_arrays_match_the_sweep_of_every_kept_state(monkeypatch, n, p):
    # Every in-band rectangle ties: the zero array and a shift of it.  Those
    # of (7, 3) are too many to list, and the refusal gives their count.
    for seed in (None, 7):
        got = assert_same_reports(monkeypatch, tied_instance(n, p, seed)[0])
        if (n, p) != (7, 3):
            assert (got[1]["optima_count"] > 1) == (p > 1)  # p = 1 has one in band
        else:
            assert got[1][0] is OptimaLimitError


def test_tied_refusal_counts_every_optimum(monkeypatch):
    # The path counts of the co-reachable states, which the sweep keeps,
    # give the exact count of the zero (20, 3) array's optima.
    got = assert_same_reports(monkeypatch, tied_instance(20, 3, None)[0])
    assert got[1] == (OptimaLimitError, "47106331961025118980902268048 optimal rectangles in "
                      "the band: too many to list (limit 16777216 cells, n=20, p=3)")


def test_int64_kept_rows_match_the_sweep_of_every_kept_state(monkeypatch):
    # Rows whose adjusted costs spread past 2^32 keep them as int64, and a
    # graph of several tiles then sweeps the int64 row itself.
    wide = []
    original = solvers._keep

    def recording(costs):
        kept = original(costs)
        wide.append(kept.dtype == np.int64)
        return kept

    monkeypatch.setattr(solvers, "_keep", recording)
    for seed, n in enumerate((6, 7, 8)):
        for C in (int64_edge_instance(n, 3, seed, True)[0], scaled_edge_instance(n, 3, seed)[0]):
            assert_same_reports(monkeypatch, C)
        # The scaled array keeps its rows from row 2 on as int64, tiled
        # graphs' rows among them.
        del wide[:]
        solve_dp(C)
        tiled = [len(g.tiles) > 1 for _, _, g in walk(solvers._next_graph, n, 3)]
        assert any(w and t for w, t in zip(wide, tiled)), (seed, n)


@pytest.mark.parametrize("extra", [0, 1, 2])
def test_counterexamples_match_the_sweep_of_every_kept_state(monkeypatch, extra):
    # Sides 10, 12 and 14.
    C = gen_counterexample_extended(extra) if extra else gen_counterexample()
    assert C.n == 10 + 2 * extra
    got = assert_same_reports(monkeypatch, C)
    assert isinstance(got[1], dict)


def walk(next_graph, n: int, p: int):
    """(i, clip, g) for the rows i = 1 .. n of an n-row solve, through
    next_graph, which finds in its graph cache the graphs that the solve
    cached."""
    g, sigs = None, _words([_pack_sig(_init_sig(n, p), p)], p, 4 * p - 4)
    for i in range(1, n + 1):
        clip = _row_clip(i, n, p)
        g = next_graph(g, p, clip, sigs)
        yield i, clip, g


def coreachable(graphs) -> list:
    """For each graph of an oracle chain, whether each of its kept targets
    has a path to the final state, by one backward pass over the tiles:
    pads repeat an in-edge of their column, so a column's sources are all
    its rows."""
    reach = [np.ones(1, dtype=bool)]
    for g, before in zip(graphs[::-1], graphs[-2::-1] + [None]):
        at = np.flatnonzero(reach[0])
        cols = at if g.back is None else g.back[at]
        sources = np.zeros(1 if before is None else before.counts.size, dtype=bool)
        for c0, src, _ in g.tiles:
            sel = cols[(cols >= c0) & (cols < c0 + src.shape[1])] - c0
            sources[src[:, sel].ravel()] = True
        reach.insert(0, sources)
    return reach[1:]


@pytest.mark.parametrize("p, top", [(2, 12), (3, 12), (4, 6)])
def test_every_coreachable_state_is_swept(monkeypatch, p, top):
    monkeypatch.setattr(solvers, "_GRAPHS", {})
    monkeypatch.setitem(globals(), "_GRAPHS", {})
    for n in range(p, top + 1):
        C = gen_random_layered_monge(n, p, n)
        solve_dp(C)
        _solve_dp_graph(C)
        old = [g for _, _, g in walk(_next_graph, n, p)]
        new = [g for _, _, g in walk(solvers._next_graph, n, p)]
        swept = []
        for i, (a, b, reach) in enumerate(zip(old, new, coreachable(old)), start=1):
            # The same kept states, of which the sweep reads a superset of
            # the co-reachable ones.
            assert a.sig_bytes == b.sig_bytes and a.states == b.states
            assert reach.any() and not (reach & ~b.swept).any(), (n, i)
            swept.append(int(np.count_nonzero(b.swept)))
        if (n, p) == (7, 3):
            assert swept == [60, 1950, 20136, 20148, 1950, 60, 1]
        if (n, p) == (12, 3):
            interior = [s for (_, clip, _), s in zip(walk(solvers._next_graph, n, p), swept)
                        if clip == (0, 0)]
            assert interior == [74304] * 4
