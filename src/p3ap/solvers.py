"""Exact solvers: a table-driven search over Latin rectangles and the banded DP.

The brute-force solver enumerates every feasible p x n Latin rectangle and is
the universal oracle for small instances.  The dynamic program exploits the
bandwidth bound for layered Monge costs: some optimal partial Latin square
fills cells only where |i - j| <= 2p - 2, so rows can be processed top to
bottom over a sliding window of 4p - 4 column signatures.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import CostArray, LatinRectangle, _latin_rectangles
from .monge import NotLayeredMongeError, is_layered_monge


class OracleSizeLimitError(ValueError):
    """Instance past a solver's size budget (CLI exit 3)."""


class OptimaLimitError(OracleSizeLimitError):
    """Too many optimal rectangles in the band to list them all."""


# All-optima mode lists at most this many cells (optima * n * p).  Optima
# multiply along the rows: gen_random_layered_monge(1200, 2, 3) has ~4.3e23.
_MAX_LISTED_CELLS = 1 << 24


@dataclass
class SolveReport:
    optimum: int
    solution: LatinRectangle
    solver: str
    states_explored: int = 0
    wall_ms: float = 0.0
    all_optima: Optional[List[LatinRectangle]] = None
    optima_count: Optional[int] = None
    unique_in_band: Optional[bool] = None
    state_counts: Optional[List[int]] = None

    def to_dict(self) -> dict:
        """`solve --format json`'s report; optima_count comes last, if optima were listed."""
        doc = {
            "optimum": self.optimum,
            "solution_rows": [list(r) for r in self.solution.rows],
            "solver": self.solver,
            "states_explored": self.states_explored,
            "unique_in_band": self.unique_in_band,
            "wall_ms": self.wall_ms,
        }
        if self.optima_count is not None:
            doc["optima_count"] = self.optima_count
        return doc


# Feasible p x n Latin rectangles, the leaves of the search, for every
# (n, p) that brute force may enumerate.  Those past the budget, and any
# (n, p) not listed, are refused: (8, 2) alone has 64x the leaves of (7, 2).
_LATIN_RECTANGLES = {
    (1, 1): 1,
    (2, 1): 2, (2, 2): 2,
    (3, 1): 6, (3, 2): 12, (3, 3): 12,
    (4, 1): 24, (4, 2): 216, (4, 3): 576, (4, 4): 576,
    (5, 1): 120, (5, 2): 5280, (5, 3): 66240, (5, 4): 161280, (5, 5): 161280,
    (6, 1): 720, (6, 2): 190800, (6, 3): 15321600,
    (7, 1): 5040, (7, 2): 9344160, (7, 3): 5411750400,
    (8, 1): 40320, (8, 2): 598066560, (8, 3): 2834466324480,
}
_MAX_BRUTEFORCE_RECTANGLES = 1 << 24
# Prefix rectangles times permutations held at once by one block of the walk.
_WALK_ENTRIES = 1 << 20


def solve_bruteforce(C: CostArray, all_optima: bool = False) -> SolveReport:
    """Exact optimum over every feasible Latin rectangle, for any cost array.

    The rows of a rectangle are permutations: the table of all n! of them,
    in lexicographic order, is priced in every layer, and for p >= 2 a
    first-conflict table holds the first column where two of them agree, or
    n.  The walk takes the first rows in blocks; a prefix rectangle keeps the
    minimum of its rows' first-conflict rows and admits the next rows where
    it is n.  So it visits rectangles in the order of a row-by-row depth-first
    search, whose first optimum is the witness, whose order all_optima keeps
    and whose node count, dead-end partial rows included, is states_explored.
    The optima's rows are checked in one numpy pass (_latin_rectangles)
    before they become rectangles.

    Raises OracleSizeLimitError (CLI exit 3) past 2^24 feasible Latin
    rectangles: it admits any p for n <= 5, p <= 3 for n = 6, p <= 2 for
    n = 7 and p = 1 for n = 8.  The largest tables admitted are those of
    (7, 2), 5040 * 7 + 5040^2 bytes (25.4 MB).  With all_optima it raises
    OptimaLimitError past 2^24 listed cells.
    """
    n, p = C.n, C.p
    if _LATIN_RECTANGLES.get((n, p), math.inf) > _MAX_BRUTEFORCE_RECTANGLES:
        raise OracleSizeLimitError(
            f"oracle size limit: n={n}, p={p} exceeds the exhaustive-search "
            "budget of 2^24 feasible Latin rectangles (any p for n <= 5, "
            "p <= 3 for n = 6, p <= 2 for n = 7, p = 1 for n = 8)"
        )
    N = math.factorial(n)
    t0 = time.perf_counter()
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    # price[k, a]: the cost of permutation a as the row of layer k.
    price = sum(C.entries[perms[:, j], j].T for j in range(n))
    if p > 1:
        first = np.full((N, N), n, dtype=np.int8)
        for j, v in itertools.product(reversed(range(n)), range(n)):
            same = np.flatnonzero(perms[:, j] == v)
            first[np.ix_(same, same)] = j
    # A permutation that first conflicts with a prefix at column f meets
    # reach[f] / n! nodes, its first j <= f columns shared by (n - j)!
    # permutations.  Relabeling the values maps the rectangles below one first
    # row onto those below any other, so each adds the first block's mean.
    reach = np.cumsum([math.perm(n, j) for j in range(n + 1)])
    step = min(N, max(1, _WALK_ENTRIES // _LATIN_RECTANGLES.get((n, p - 1), N ** (p - 1))))
    below, best, count, ties = 0, None, 0, []
    for a in range(0, N, step):
        rows = [np.arange(a, min(a + step, N))]
        cost = price[0, rows[0]]
        for k in range(1, p):
            fc = first[rows[-1]] if k == 1 else np.minimum(fc[pre], first[rows[-1]])
            if a == 0:
                below += int(np.bincount(fc.ravel(), minlength=n + 1) @ reach)
            pre, nxt = np.divmod(np.flatnonzero(fc == n), N)
            cost = cost[pre] + price[k, nxt]
            rows = [r[pre] for r in rows] + [nxt]
        low = cost.min()
        if best is None or low < best:
            best, count, ties = low, 0, []
        if low == best:
            hit = np.flatnonzero(cost == low)
            count += hit.size
            if not ties or all_optima and count * n * p <= _MAX_LISTED_CELLS:
                ties.append(np.stack([r[hit if all_optima else hit[:1]] for r in rows], axis=1))
    if all_optima and count * n * p > _MAX_LISTED_CELLS:
        raise OptimaLimitError(
            f"{count} optimal rectangles: too many to list "
            f"(limit {_MAX_LISTED_CELLS} cells, n={n}, p={p})"
        )
    rects = _latin_rectangles(perms[np.concatenate(ties)] + 1)
    return SolveReport(
        optimum=int(best), solution=rects[0], solver="brute",
        states_explored=int(reach[n]) + below // step,
        wall_ms=(time.perf_counter() - t0) * 1e3,
        all_optima=rects if all_optima else None,
        optima_count=count if all_optima else None,
    )


def solve_dp(
    C: CostArray,
    all_optima_in_band: bool = False,
    method: str = "auto",
) -> SolveReport:
    """Banded dynamic program; exact for layered Monge cost arrays.

    Rows i = 1..n of the partial Latin square are filled in order; layers
    1..p go into columns i-2p+2 .. i+2p-2.  States are deduplicated by the
    (4p-4)-tuple of column content subsets over columns i-2p+3 .. i+2p-2
    (out-of-range slots count as virtually complete), keeping minimal cost.

    This function is the one driver: it times the solve, builds the witness
    and the report, and lists the optima.  Two interchangeable engines differ
    only in how they expand the rows.  Each returns the optimum, the
    witness's placement per row, the per-row state counts and a function that
    lists every optimal rectangle.  "auto" runs the fixed-graph engine, for
    every p.  A row's states and transitions depend only on p, on how far its
    window is clipped by the array's edges and on the incoming states, never
    on the costs, so each row's transition graph is built once per process
    and cached, keyed by p, the clipping and the incoming states' signature
    and tile-column bytes.  A graph cuts the targets that no next row can
    extend, with their in-edges, yet counts them: state_counts and
    states_explored count every state of every row, as the reference engine
    does.  Of the states it keeps, it sweeps only those that can still be
    completed (_can_finish): every state on a path to the final one is
    swept.  A signature is one int64 word for p <= 4 and two or more from
    p = 5 (see _RowGraph).  A solve makes one gather per edge: each state's
    cost carries its row's potential (see _solve_dp_graph), so a row gathers
    its incoming costs with np.take on the graph's narrow sources and takes
    each target's minimum, one dense (in-degree, targets) tile at a time.
    A row's states live in the order of the tiles' columns, so the minima
    are the next row's costs as they come (see _RowGraph); a graph of
    several tiles gathers the row's narrow kept costs (see _keep).  The
    potentials move all in-edges of a target by one constant, so the
    minima, the witness and the ties fall where the placement costs put
    them.  Each cost compared sums at most n * p entries, every cell of the
    columns up to i+2p-2 once, filled or empty, so CostArray's bound keeps
    it within int64.  Each row keeps its incoming costs (see _keep); from
    them the witness takes each traced state's first minimal in-edge, and
    all_optima_in_band finds the minimal in-edges of every row again.
    "reference" is the plain dict-based version, the test oracle.  Both
    break cost ties toward the earlier candidate in (predecessor signature,
    then placement) order, whatever order a row holds its states in, so
    they produce identical reports: all_optima_in_band lists the same
    optima in the same order, depth first in "reference" and in bulk in the
    graph engine.  Both raise OracleSizeLimitError (CLI exit 3) before a row
    whose incoming states times placements exceeds 2^27, such as row 3 of an
    n = 8, p = 4 instance or of n = 7, p = 5; every p <= 3 row and p = 4 up
    to n = 6 stay within it, and OptimaLimitError before listing over 2^24
    cells.
    """
    n, p = C.n, C.p
    if not is_layered_monge(C):
        raise NotLayeredMongeError(
            "instance is not layered Monge; solve_dp is only exact on layered "
            "Monge arrays"
        )
    if method == "auto":
        engine = _solve_dp_graph
    elif method == "reference":
        engine = _solve_dp_reference
    else:
        raise ValueError(f"unknown DP method {method!r}")
    t0 = time.perf_counter()
    optimum, placements, state_counts, list_optima = engine(C)
    report = SolveReport(
        optimum=optimum,
        solution=_rect_from_placements(placements, n, p),
        solver="dp",
        states_explored=sum(state_counts),
        wall_ms=(time.perf_counter() - t0) * 1e3,
        state_counts=state_counts,
    )
    if all_optima_in_band:
        report.all_optima = list_optima()
        report.optima_count = len(report.all_optima)
        report.unique_in_band = report.optima_count == 1
    return report


def _row_placements(i: int, n: int, p: int):
    """Injective layer->column maps for row i, in deterministic order.

    Columns run over max(1, i-2p+2) .. min(n, i+2p-2); enumeration is
    lexicographic in (column of layer 1, ..., column of layer p).
    """
    lo = max(1, i - 2 * p + 2)
    hi = min(n, i + 2 * p - 2)
    return list(itertools.permutations(range(lo, hi + 1), p))


def _pack_sig(sig, p: int) -> int:
    """Signature tuple -> integer; slot t occupies bits p*t .. p*t+p-1."""
    packed = 0
    for t, mask in enumerate(sig):
        packed |= mask << (p * t)
    return packed


def _cost_rows(C: CostArray):
    n, p = C.n, C.p
    return [
        [[int(C.entries[i, j, k]) for j in range(n)] for k in range(p)]
        for i in range(n)
    ]


def _init_sig(n: int, p: int):
    # The step-0 window covers columns 3-2p .. 2p-2: empty or out of range.
    full = (1 << p) - 1
    return tuple(full if not 1 <= c <= n else 0 for c in range(3 - 2 * p, 2 * p - 1))


def _row_clip(i: int, n: int, p: int):
    """Columns of row i's extended window i-2p+2 .. i+2p-2 that lie off the
    array, on the left and on the right."""
    return max(0, 2 * p - 1 - i), max(0, i + 2 * p - 2 - n)


def _words(packed: list, p: int, slots: int) -> np.ndarray:
    """The words, shape (W, len(packed)), that hold the first slots slots of
    packed signatures (slot t at bit p*t) in _RowGraph's layout."""
    span = p * (63 // p)
    return np.array([[(x >> span * w) & ((1 << span) - 1) for x in packed]
                     for w in range(max(1, -(-slots * p // span)))], np.int64)


@functools.lru_cache(maxsize=None)
def _sig_bytes(p: int):
    """The B bytes of a window signature, in _words' layout, that hold slot
    bits: the low ceil(bits / 8) bytes of each word, and one for p = 1,
    whose window has no slots.  Gives the (word, byte) of each, shape
    (B, 2), and for each of their bits, shape (B, 8), the slot that holds
    it, its layer and whether it belongs to a slot at all."""
    width, cpw = 4 * p - 4, 63 // p
    where = np.array([(w, b) for w in range(max(1, -(-width // cpw)))
                      for b in range(max(1, -(-p * min(cpw, width - w * cpw) // 8)))])
    bit = where[:, 1:] * 8 + np.arange(8)  # each byte's bits in their word
    slot = where[:, :1] * cpw + bit // p
    found = where, slot, bit % p, (bit < cpw * p) & (slot < width)
    for a in found:
        a.flags.writeable = False  # shared by every solve of this p
    return found


def _sig_cols(sigs: np.ndarray, p: int) -> np.ndarray:
    """The _sig_bytes of signatures sigs, shape (W, S), as a (B, S) uint8
    array, read through a byte view of the words."""
    octets = np.ascontiguousarray(sigs, "<i8").view(np.uint8).reshape(*sigs.shape, 8)
    where = _sig_bytes(p)[0]
    return octets[where[:, 0], :, where[:, 1]]


def _potential_tables(C: CostArray) -> np.ndarray:
    """tabs[i - 1, b, v]: the share of byte b of _sig_bytes, with value v, in
    the step W_i(s) - W_{i-1}(U) that row i adds to its incoming states s
    (see _solve_dp_graph).

    Slot t of s is column i-2p+2+t in both rows' windows, so the step sums
    c[i] - c[i-1] over the empty slot bits of s (c[0] = 0), plus row i's
    costs in its new right column i+2p-2 when that is in the array, which
    table 0 holds.  A table is the sum of two half-byte tables.  Bits of no
    slot and slots off the array weigh nothing: the former are always empty
    and the latter always full.  Sums that wrap in int64 do no harm: the
    tables are only ever added.
    """
    n, p = C.n, C.p
    _, slot, layer, slotted = _sig_bytes(p)
    # The 0-based column of each bit's slot in the window of row r + 1.
    col = np.arange(2 - 2 * p, n + 2 - 2 * p)[:, None, None] + slot
    used = slotted & (col >= 0) & (col < n)
    # Where entry (r + 1, col + 1, layer + 1) sits in the flattened array.
    at = np.clip(col, 0, n - 1) * p + layer
    at += np.arange(0, n * n * p, n * p)[:, None, None]
    flat = C.entries.reshape(-1)
    step = flat.take(at)
    step[1:] -= flat.take(at[1:] - n * p)
    # clear[m, v]: half byte v leaves bit m, and so its cell, empty.
    clear = (np.arange(16) >> np.arange(4)[:, None] & 1) ^ 1
    half = np.where(used, step, 0).reshape(n, -1, 2, 4) @ clear
    # Row r + 1's new column, r + 2p - 1, is in the array for r < n + 2 - 2p.
    new = C.entries.diagonal(2 * p - 2).sum(axis=0)
    half[:new.size, 0, 0] += new[:, None]
    return (half[:, :, 1, :, None] + half[:, :, 0, None, :]).reshape(n, -1, 256)


def _can_finish(sigs: np.ndarray, p: int, rclip: int) -> np.ndarray:
    """Whether each state of signatures sigs, shape (W, S), reached after a
    row whose window the array clips by rclip columns on the right, passes
    the completion rule.

    Slot t is the column that rows up to t + 1 later can still fill, one
    cell a row, so a state whose slot t misses more than min(t + 1, rows
    left) layers has no completion.  rclip > 0 leaves 2p - 2 - rclip rows;
    rclip = 0 leaves at least 2p - 2 >= p, and no slot misses more than p."""
    left = 2 * p - 2 - rclip if rclip else p
    misses = np.array([p - bin(v).count("1") for v in range(1 << p)], np.int8)
    ok = np.ones(sigs.shape[1], dtype=bool)
    cpw = 63 // p
    for t in range(p - 1 if left >= p else 4 * p - 4):  # slots that can fail
        bits = sigs[t // cpw] >> p * (t % cpw) & (1 << p) - 1
        ok &= misses.take(bits) <= min(t + 1, left)
    return ok


class _RowGraph:
    """Cost-free transitions of one row, in window-relative coordinates.

    An edge leads from an incoming state src through a placement t to a
    target state.  The in-edges of a target are in signature order of src,
    and for a given source and target the placement is unique, so this is
    also the tie-break order.  sig_bytes, the bytes of the target
    signatures in increasing order, keys the next row's graph, and sigs is
    a read-only view of it.

    The edges are stored as in-degree tiles, and a row's swept states live
    in the order of the tiles' columns: the swept targets by in-degree,
    stably, so by signature within one in-degree.  col, a read-only view of
    col_bytes, gives the column of each target in signature order (0 for
    those not swept, which is never read); the next graph numbers its
    sources by it, and it keys that graph with sig_bytes.  tiles is a list
    of (c0, src, t): src is a (d, m) matrix of sources, t the matching
    matrix of placements, and column j holds the in-edges of the target in
    column c0 + j, in tie order, in its first counts[c0 + j] rows.  A column
    is padded to the tile's depth by repeating its last in-edge, which
    changes neither its minimum nor its first minimal in-edge, and no pad
    counts as a tie.  The sweep takes one gather and one minimum over axis
    0 per tile, which give the targets' costs in state order.  A graph whose
    S swept targets and largest in-degree D have S * D <= _BLOCK_EDGES is
    one tile: every p <= 2 row is.  Any other graph cuts each run of one
    in-degree d into tiles of _BLOCK_EDGES // d targets (at least one),
    which need no pads.  cols holds, as cost-free data for the sweep's row
    potentials, each signature byte that carries slots (_sig_bytes) of the
    swept targets, in state order, in one uint8 row per byte.

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
    the tiles, one tile at a time, and then freed.  A tile's src takes the
    type of in_col, the smallest unsigned type that numbers the row
    before's swept states (uint8 for p <= 2, up to uint32 from p = 3), and
    t the smallest that holds a placement (uint8 for p <= 2, uint16 for
    p = 3 and 4): the sweep gathers through src with take, and the
    traceback and the listing read t only on minimal edges.

    A target's slot 0 is the column that the next row must complete, with
    one cell at most.  When it misses two or more layers the target has no
    out-edge, and the packed build cuts it with its in-edges: about 36 % of
    the edges of a p = 3 row.  The graph's arrays hold the kept targets
    only, and they are the next row's sources.  states counts every target,
    the cut ones included; that is the row's state count in a report and
    the incoming count that the next row's size limit reads, as in the
    reference engine.  A cut target has no out-edge, so the next graph has
    the same targets and edges as if nothing were cut.

    Of the kept targets, the tiles hold the swept ones alone: those that
    pass the completion rule of _can_finish, which swept marks in signature
    order.  The rest, about 11 % of an interior p = 3 row, have no path to
    the final state; they stay kept, so states, sigs and the next graph are
    as before.  A target's slot t is its source's slot t + 1, one row on,
    with at most one cell more, so a target that passes the rule has only
    sources that passed the row before's, and its in-edges all lie within
    the swept states: in_col, the row before's col, numbers every one.
    """

    def __init__(self, p: int, clip, in_sigs: np.ndarray, in_col: np.ndarray):
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
        src_type = np.min_scalar_type(in_sigs.shape[1] - 1)
        src_bits = (in_sigs.shape[1] - 1).bit_length()
        t_bits = (T - 1).bit_length()
        packed = W == 1 and p * width + src_bits + t_bits <= 63
        # key holds each edge's target signature, and below it, when packed,
        # its src and t: sorting it sorts the edges by (signature, src).
        key = np.empty((W, E), dtype=np.int64)
        if not packed:
            src = np.empty(E, dtype=src_type)
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
            src = np.empty(E, dtype=src_type)
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
            del order
        del key, part  # part is a view of key
        # src and t are now sorted by (target signature, src), and a
        # target's in-edges run from its starts to the next target's.  tgts
        # lists the swept targets in column order: by in-degree, stably.
        self.swept = _can_finish(sigs, p, rclip)
        live = np.flatnonzero(self.swept)
        counts = np.diff(np.append(starts, E))[live]
        tgts = live[np.argsort(counts, kind="stable")]
        self.counts = counts = np.sort(counts)
        S = tgts.size
        col = np.zeros(self.swept.size, dtype=np.min_scalar_type(S - 1))
        col[tgts] = np.arange(S)
        if S * int(counts[-1]) <= _BLOCK_EDGES:
            cuts = [0]
        else:
            # Each run of one in-degree d is cut every _BLOCK_EDGES // d targets.
            runs = np.flatnonzero(np.diff(counts, prepend=0, append=counts[-1] + 1)).tolist()
            cuts = [c for a, b in zip(runs[:-1], runs[1:])
                    for c in range(a, b, max(1, _BLOCK_EDGES // int(counts[a])))]
        self.tiles = []
        for c0, c1 in zip(cuts, cuts[1:] + [S]):
            at = starts[tgts[c0:c1]]
            # Row r holds each column's r-th in-edge, or its last one past
            # its in-degree.
            e = np.minimum(at + np.arange(counts[c1 - 1])[:, None], at + counts[c0:c1] - 1)
            self.tiles.append((c0, in_col.take(src.take(e)), t.take(e)))
        del src, t
        self.cols = _sig_cols(sigs[:, tgts], p)
        held = [self.flat, counts, sigs, self.cols, self.swept, col]
        held += [a for _, src, t in self.tiles for a in (src, t)]
        self.nbytes = sum(a.nbytes for a in held)
        self.sig_bytes = sigs.tobytes()
        self.col_bytes = col.tobytes()

    @property
    def sigs(self) -> np.ndarray:
        """The target signatures, shape (W, S): a read-only view of sig_bytes."""
        return np.frombuffer(self.sig_bytes, np.int64).reshape(-1, self.swept.size)

    @property
    def col(self) -> np.ndarray:
        """Each target's tile column, in signature order: a read-only view of
        col_bytes."""
        return np.frombuffer(self.col_bytes, np.min_scalar_type(self.counts.size - 1))


# A tile holds at most this many entries, edges and pads, unless it is one
# target's column, so that a row's per-tile temporaries stay in cache; a
# graph's sorted keys are decoded and compared in chunks of the same size.
# The cap keeps the gathers local: tiles of whole in-degree classes, with no
# cap, took 3.8-5.9 ms on an interior p = 3 row, against 3.5 ms for the
# reduceat sweep that the tiles replaced.  Swept in-process on a 2-core
# host, the interior rows of p = 3 took 2.7-2.9 ms with 2^15 and 2^14,
# 2.9-3.1 ms with 2^16, and 3.5 ms with 2^17 or 3.8 ms with 2^12.
_BLOCK_EDGES = 1 << 15
# A row whose incoming states times placements exceeds this is refused
# before its edges are counted.  The count takes every incoming state, the
# cut ones too (_RowGraph.states), so both engines refuse the same rows.
# The largest p = 3 row has 145,500 x 504 = 73.3 M, though its graph keeps
# 83,500 of those states; at p = 4, n = 8 row 3 would have 277,410 x 1,680
# = 466 M.
_MAX_ROW_CANDIDATES = 1 << 27


def _check_row_size(n: int, p: int, i: int, states: int, clip) -> None:
    # Placements of row i: injective maps of the p layers into the columns
    # of its window that clip leaves on the array.
    placements = math.perm(4 * p - 3 - sum(clip), p)
    if states * placements > _MAX_ROW_CANDIDATES:
        raise OracleSizeLimitError(
            f"DP size limit: row {i} of n={n}, p={p} has {states} incoming "
            f"states x {placements} placements = {states * placements} "
            "candidate transitions, more than 2^27"
        )


# Row graphs keyed by (p, clipping, the previous graph's sig_bytes and
# col_bytes).  Interior rows of every instance with the same p share one
# graph, so the cache stays small: all graphs of p = 3 hold about 8.1 M
# swept edges and 52 MiB.  Past _GRAPH_CACHE_BYTES it is emptied before the
# next insertion; no graph refers to another, so the evicted ones are freed.
_GRAPH_CACHE_BYTES = 256 << 20
_GRAPHS: dict = {}


def _next_graph(prev: Optional[_RowGraph], p: int, clip, in_sigs: np.ndarray) -> _RowGraph:
    """The graph of the row after prev, whose targets are its incoming
    states; in_sigs gives them only for the first row, where prev is None
    and the one incoming state is column 0."""
    if prev is None:
        in_col = np.zeros(1, dtype=np.uint8)
        key = (p, clip, in_sigs.tobytes(), in_col.tobytes())
    else:
        key = (p, clip, prev.sig_bytes, prev.col_bytes)
    g = _GRAPHS.get(key)
    if g is None:
        if prev is not None:
            in_sigs, in_col = prev.sigs, prev.col
        g = _RowGraph(p, clip, in_sigs, in_col)
        if (g.sig_bytes, g.col_bytes) == key[2:]:
            # As for the interior graphs: the next lookup compares by identity.
            g.sig_bytes, g.col_bytes = key[2:]
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
    # The bytes of a row's narrow minima, reused from row to row: a fresh
    # array a row fragmented the heap of long solves (330 against 302 MB of
    # peak RSS at n = 1000, p = 3).
    buf = np.empty(0, dtype=np.uint8)
    state_counts = [1]
    for i in range(1, n + 1):
        clip = _row_clip(i, n, p)
        _check_row_size(n, p, i, state_counts[-1], clip)
        g = _next_graph(g, p, clip, sigs)
        for tab, col in zip(tabs[i - 1], cols):
            costs += tab.take(col)
        # Each tile's column minima, in state order.  A graph of one tile
        # sweeps the int64 costs.  A graph of several sweeps the narrow kept
        # copy, offsets from the costs' minimum lo, which is added back.
        prev = _keep(costs)
        if len(g.tiles) == 1:
            out = np.minimum.reduce(costs.take(g.tiles[0][1]), 0)
        else:
            S = g.counts.size
            if buf.size < S * 8:
                buf = np.empty(S * 8, dtype=np.uint8)
            mins = buf[:S * prev.itemsize].view(prev.dtype)
            for c0, src, _ in g.tiles:
                np.minimum.reduce(prev.take(src), 0, out=mins[c0:c0 + src.shape[1]])
            out = mins.astype(np.int64)
            out += int(costs[0]) - int(prev[0])
        kept.append((g, prev))
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
        for c0, src, t in g.tiles:
            if state < c0 + src.shape[1]:
                break
        col = src[:, state - c0]
        e = int(np.argmin(prev.take(col)))
        placements[i - 1] = (g.flat[t[e, state - c0]] // p + (i - 2 * p + 2)).tolist()
        state = int(col[e])
    return optimum, placements, state_counts, lambda: _list_optima(kept, n, p)


def _keep(costs: np.ndarray) -> np.ndarray:
    """Incoming adjusted costs as a row keeps them: offsets from their
    minimum in the smallest unsigned type that holds a spread below 2^32,
    else the int64 row.  Minima, argmins and ties ignore the shift, so a
    graph of several tiles sweeps this copy, whose narrow gathers are
    cheaper, and adds the shift back to its minima."""
    lo = int(costs.min())
    spread = int(costs.max()) - lo
    if spread >> 32:
        return costs
    return (costs - lo).astype(np.min_scalar_type(spread))


_LIST_CHUNK = 4096  # optima listed per chunk, which bounds the temporaries


def _list_optima(kept, n: int, p: int) -> list:
    """Every optimal rectangle in the order of _walk_optima, in bulk.

    Each row's sweep runs again, tile by tile, over its kept (graph,
    incoming adjusted costs) to find its minimal in-edges, pads left out:
    those of state s, its tile column, are ties[i - 1] = (first, src, t)
    from first[s] to first[s + 1], in tie order, where first is the running
    sum of the columns' tie counts.  The same pass counts forward, over
    those ties, the optimal paths into every state: in int64 while a row's
    sums stay below 2^62, and in exact Python ints after that.  The final
    state's count meets the listing cap before anything is listed.  Paths
    grow breadth first from the final state 0, children in tie order, which
    keeps the depth-first order; then a walk back through the parents
    scatters the placements into the rows of up to _LIST_CHUNK rectangles
    at a time, which _latin_rectangles checks in one numpy pass per chunk."""
    ties, ways = [], np.ones(1, dtype=np.int64)
    for g, prev in kept:
        hits, tied = [], []
        for c0, src, t in g.tiles:
            cand = prev.take(src)
            tie = cand == np.minimum.reduce(cand, 0)
            # Column j's pads lie below its counts[c0 + j] in-edges and
            # never tie.
            tie &= np.arange(len(tie))[:, None] < g.counts[c0:c0 + src.shape[1]]
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
        ties.append((first, src, t))

    total = _check_optima(int(ways[0]), n, p)
    levels, state = [], np.array([0])
    for first, src, t in reversed(ties):
        lo = first[state]
        k = first[1:].take(state) - lo  # state + 1 could wrap a narrow state
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


def _solve_dp_reference(C: CostArray):
    n, p = C.n, C.p
    full = (1 << p) - 1
    width = 4 * p - 4
    cost_rows = _cost_rows(C)

    # steps[i]: signature -> [cost, preds]; preds = [(prev_sig, placement), ...],
    # every candidate that ties at the minimum, in tie-break order.
    prev_states = {_init_sig(n, p): [0, []]}
    steps = [prev_states]
    state_counts = [1]

    for i in range(1, n + 1):
        base = i - 2 * p + 2
        win_lo = i - 2 * p + 3
        leave = base
        cur_states: dict = {}
        ci = cost_rows[i - 1]
        _check_row_size(n, p, i, len(prev_states), _row_clip(i, n, p))
        pls = _row_placements(i, n, p)
        for sig, (base_cost, _) in prev_states.items():
            # Masks over the extended window, indexed by column; the previous
            # window covered columns base .. base+width-1.
            col_masks = {c: sig[t] for t, c in enumerate(range(base, base + width))}
            col_masks[base + width] = 0 if base + width <= n else full
            for placement in pls:
                if any(col_masks[j] >> k & 1 for k, j in enumerate(placement)):
                    continue
                placed = 0
                new_masks = dict(col_masks)
                for k, j in enumerate(placement):
                    new_masks[j] |= 1 << k
                    placed += ci[k][j - 1]
                if 1 <= leave <= n and new_masks[leave] != full:
                    continue  # column leaves the window incomplete: dead end
                new_sig = tuple(
                    full if not 1 <= c <= n else new_masks.get(c, 0)
                    for c in range(win_lo, win_lo + width)
                )
                total = base_cost + placed
                entry = cur_states.get(new_sig)
                if entry is None:
                    cur_states[new_sig] = [total, [(sig, placement)]]
                elif total < entry[0]:
                    entry[0] = total
                    entry[1] = [(sig, placement)]
                elif total == entry[0]:
                    entry[1].append((sig, placement))
        if not cur_states:
            raise RuntimeError(
                f"internal error: no feasible band-limited extension at row {i}"
            )
        # Retain in increasing packed-signature order to match the graph engine.
        cur_states = dict(
            sorted(cur_states.items(), key=lambda kv: _pack_sig(kv[0], p))
        )
        steps.append(cur_states)
        state_counts.append(len(cur_states))
        prev_states = cur_states

    # After step n every in-range window column is complete, and the
    # out-of-range ones count as complete: one signature is left.
    final_sig = (full,) * width
    if final_sig not in prev_states:
        raise RuntimeError("internal error: expected exactly one final state, got 0")

    def tied(i, sig):
        return steps[i][sig][1]

    def list_optima():
        ways = dict.fromkeys(steps[0], 1)
        for step in steps[1:]:
            ways = {sig: sum(ways[prev] for prev, _ in preds) for sig, (_, preds) in step.items()}
        _check_optima(ways[final_sig], n, p)
        return [_rect_from_placements(s, n, p) for s in _walk_optima(n, final_sig, tied)]

    # The first sequence depth first follows the first predecessors.
    witness = next(_walk_optima(n, final_sig, tied))
    return prev_states[final_sig][0], witness, state_counts, list_optima


def _walk_optima(n, final_state, tied):
    """Every optimal placement sequence, by an explicit-stack depth-first walk.

    tied(i, state) lists the (predecessor, placement) pairs of row i that
    reach state at its optimal cost, in tie-break order.  Sequences come out
    in depth-first order from the final state; an explicit stack keeps the
    depth independent of the recursion limit.
    """
    acc = [None] * n
    stack = [iter(tied(n, final_state))]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            continue
        i = n + 1 - len(stack)
        prev, placement = step
        acc[i - 1] = placement
        if i == 1:
            yield list(acc)
        else:
            stack.append(iter(tied(i - 1, prev)))


def _check_optima(total: int, n: int, p: int) -> int:
    """total optimal rectangles, or OptimaLimitError past the listing cap."""
    if total * n * p > _MAX_LISTED_CELLS:
        raise OptimaLimitError(
            f"{total} optimal rectangles in the band: too many to list "
            f"(limit {_MAX_LISTED_CELLS} cells, n={n}, p={p})"
        )
    return total


def _rect_from_placements(placements, n, p) -> LatinRectangle:
    rows = [[0] * n for _ in range(p)]
    for i, placement in enumerate(placements, start=1):
        for k in range(p):
            rows[k][placement[k] - 1] = i
    return LatinRectangle(rows=tuple(tuple(r) for r in rows))


def solve_auto(C: CostArray, all_optima_in_band: bool = False) -> SolveReport:
    """Dispatch: banded DP on layered Monge inputs, else brute force.

    solve_dp's own layered Monge check picks the solver, so it runs once.
    """
    try:
        report = solve_dp(C, all_optima_in_band=all_optima_in_band)
        report.solver = "dp (auto)"
        return report
    except NotLayeredMongeError:
        pass
    try:
        report = solve_bruteforce(C, all_optima=all_optima_in_band)
    except OptimaLimitError:
        raise
    except OracleSizeLimitError:
        raise OracleSizeLimitError(
            "no applicable exact solver: instance is not layered Monge and "
            "exceeds the brute-force size limit"
        )
    report.solver = "brute (auto)"
    return report
