"""Swaps, bandwidth, band normalization, and block decomposition."""

import heapq
import itertools
import random

import numpy as np
import pytest

from p3ap import (
    CostArray,
    LatinRectangle,
    band_normalize,
    bandwidth,
    block_decompose,
    cost,
    swap,
    to_partial_latin_square,
)
from p3ap.core import PartialLatinSquare, cyclic_latin_square, to_latin_rectangle
from p3ap.monge import NotLayeredMongeError, is_layered_monge
from p3ap.instances import (
    COUNTEREXAMPLE_CANDIDATE_ROWS,
    gen_random_layered_monge,
)
from p3ap.solvers import solve_bruteforce, solve_dp
from p3ap.structure import normalized_block_property

from test_core import EXAMPLE_RECT, random_rectangle

# The worked 2x12 decomposition example: four blocks, one of them normalized.
BLOCK_EXAMPLE = (
    (6, 2, 4, 3, 5, 8, 11, 12, 1, 7, 10, 9),
    (2, 6, 3, 5, 4, 12, 1, 11, 8, 10, 9, 7),
)


def test_swap_can_break_feasibility():
    res = swap(LatinRectangle(((1, 2), (2, 1))), 1, 2, 1)
    assert not res.feasible
    assert res.rows == ((2, 1), (2, 1))
    with pytest.raises(ValueError):
        res.rectangle


def test_swap_exchanges_positions():
    res = swap(LatinRectangle(((1, 2, 3, 4),)), 2, 4, 1)
    assert res.feasible
    assert res.rows == ((1, 4, 3, 2),)
    infeasible = swap(LatinRectangle(EXAMPLE_RECT), 1, 3, 1)
    assert infeasible.rows[0] == (2, 3, 1, 4)
    assert not infeasible.feasible


def test_swap_argument_validation():
    rect = LatinRectangle(EXAMPLE_RECT)
    with pytest.raises(ValueError):
        swap(rect, 3, 1, 1)  # r >= q
    with pytest.raises(ValueError):
        swap(rect, 1, 2, 9)  # layer out of range
    for r, q in ((0, 2), (1, 5), (-1, 3)):
        with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
            swap(rect, r, q, 1)  # value out of range
    for r, q in ((1.0, 2), (1, 2.0), (1, "2")):
        with pytest.raises(TypeError):
            swap(rect, r, q, 1)  # value not an integer
    assert swap(rect, np.int64(1), np.int32(2), 1).rows[0] == (1, 2, 3, 4)


def test_swap_delta_matches_recomputation():
    rng = np.random.default_rng(21)
    pyrng = random.Random(21)
    for _ in range(50):
        n = int(rng.integers(3, 6))
        p = int(rng.integers(1, n + 1))
        C = CostArray(rng.integers(-30, 30, size=(n, n, p)))
        sol = random_rectangle(n, p, pyrng)
        r, q = sorted(pyrng.sample(range(1, n + 1), 2))
        k = pyrng.randint(1, p)
        res = swap(sol, r, q, k, C=C)
        if res.feasible:
            assert res.delta_cost == cost(C, res.rectangle) - cost(C, sol)


def test_swap_constant_costs_zero_delta():
    C = CostArray(np.full((4, 4, 3), 5, dtype=np.int64))
    sol = LatinRectangle(EXAMPLE_RECT)
    for r, q in itertools.combinations(range(1, 5), 2):
        for k in (1, 2, 3):
            assert swap(sol, r, q, k, C=C).delta_cost == 0


def test_swap_monotone_on_layered_monge():
    # Moving the smaller value leftward never increases cost.
    pyrng = random.Random(33)
    checked = 0
    while checked < 500:
        n = pyrng.randint(3, 6)
        p = pyrng.randint(1, 3)
        C = gen_random_layered_monge(n, min(p, n), seed=checked)
        sol = random_rectangle(n, min(p, n), pyrng)
        r, q = sorted(pyrng.sample(range(1, n + 1), 2))
        k = pyrng.randint(1, min(p, n))
        row = sol.rows[k - 1]
        if row.index(r) > row.index(q):  # r currently right of q
            assert swap(sol, r, q, k, C=C).delta_cost <= 0
            checked += 1


def test_bandwidth_identity_zero():
    assert bandwidth(to_partial_latin_square(cyclic_latin_square(1))) == 0
    ident = LatinRectangle((tuple(range(1, 6)),))
    assert bandwidth(ident) == 0


def test_bandwidth_example_square():
    # Direct scan of the worked 4x4 example: the widest filled offset is
    # cell (4,1), giving bandwidth 3.
    assert bandwidth(to_partial_latin_square(LatinRectangle(EXAMPLE_RECT))) == 3
    assert bandwidth(LatinRectangle(EXAMPLE_RECT)) == 3
    # The rectangle and its partial square have the same bandwidth.
    pyrng = random.Random(9)
    for _ in range(100):
        n = pyrng.randint(1, 9)
        rect = random_rectangle(n, pyrng.randint(1, min(n, 4)), pyrng)
        assert bandwidth(rect) == bandwidth(to_partial_latin_square(rect))


def test_band_normalize_rejects_non_monge_costs():
    e = np.zeros((3, 3, 1), dtype=np.int64)
    e[:, :, 0] = np.eye(3)
    with pytest.raises(NotLayeredMongeError):
        band_normalize(LatinRectangle(((1, 2, 3),)), CostArray(e))
    assert issubclass(NotLayeredMongeError, ValueError)


def test_band_normalize_takes_rectangles_only():
    C = gen_random_layered_monge(3, 1, seed=1)
    square = to_partial_latin_square(LatinRectangle(((3, 2, 1),)))
    with pytest.raises(TypeError, match="to_latin_rectangle"):
        band_normalize(square, C)


def grid_band_normalize(rect):
    """The band normalization of the partial-square grid scan, kept as the
    oracle for band_normalize's pivot and partner order."""
    square = to_partial_latin_square(rect)
    n, p = square.n, square.p
    band = 2 * p - 2
    cells = [list(row) for row in square.cells]

    max_exchanges = n * p * 2 * n + 1
    for _ in range(max_exchanges):
        worst = 0
        pivot = None
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if cells[i - 1][j - 1] and abs(i - j) > max(worst, band):
                    worst = abs(i - j)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        k = cells[i - 1][j - 1]
        partner = None
        if j > i:
            # Candidate area: below and to the left of the pivot.
            qs, rs = range(i + 1, n + 1), range(1, j)
        else:
            qs, rs = range(1, i), range(j + 1, n + 1)
        for q in qs:
            for r in rs:
                if (
                    cells[q - 1][r - 1] == k
                    and not cells[i - 1][r - 1]
                    and not cells[q - 1][j - 1]
                ):
                    partner = (q, r)
                    break
            if partner:
                break
        assert partner is not None, f"no exchange partner for pivot ({i},{j})"
        q, r = partner
        cells[i - 1][j - 1] = 0
        cells[q - 1][r - 1] = 0
        cells[i - 1][r - 1] = k
        cells[q - 1][j - 1] = k
    else:
        raise AssertionError("grid band normalization did not terminate")

    return to_latin_rectangle(PartialLatinSquare(n=n, p=p, cells=tuple(map(tuple, cells))))


def test_band_normalize_matches_grid_scan():
    # Exact rows, so the pivot and partner order are pinned, on cyclic shifts
    # of a permutation (as in perfbench's normalize-p2) and random rectangles.
    pyrng = random.Random(41)
    for n in range(1, 16):
        for p in range(1, min(n, 4) + 1):
            C = gen_random_layered_monge(n, p, seed=n * 10 + p)
            inputs = []
            for _ in range(3):
                perm = pyrng.sample(range(1, n + 1), n)
                inputs.append(LatinRectangle(tuple(
                    tuple(perm[r:] + perm[:r]) for r in range(p)
                )))
                inputs.append(random_rectangle(n, p, pyrng))
            for rect in inputs:
                assert band_normalize(rect, C).rows == grid_band_normalize(rect).rows


def test_band_normalize_in_band_is_identity():
    C = gen_random_layered_monge(5, 2, seed=2)
    r = solve_dp(C)
    out = band_normalize(r.solution, C)
    assert out.rows == r.solution.rows


def test_band_normalize_anti_diagonal_constant():
    n = 5
    C = CostArray(np.full((n, n, n), 3, dtype=np.int64))
    anti = LatinRectangle(
        tuple(tuple((n - j - k) % n + 1 for j in range(n)) for k in range(n))
    )
    out = band_normalize(anti, C)
    assert bandwidth(out) <= 2 * n - 2
    assert cost(C, out) == cost(C, anti)


def test_band_normalize_pulls_into_band():
    # p=1: the reversed-identity row has bandwidth n-1 > 0 = 2p-2.
    C = gen_random_layered_monge(5, 1, seed=8)
    wide = LatinRectangle(((5, 4, 3, 2, 1),))
    out = band_normalize(wide, C)
    assert bandwidth(out) <= 0
    assert cost(C, out) <= cost(C, wide)


def test_band_normalize_preserves_optimum():
    for seed in range(12):
        C = gen_random_layered_monge(5, 2, seed=seed)
        r = solve_bruteforce(C)
        out = band_normalize(r.solution, C)
        assert cost(C, out) == r.optimum
        assert bandwidth(out) <= 2 * C.p - 2


def rescan_band_normalize(sol: LatinRectangle, C: CostArray) -> LatinRectangle:
    """Move a feasible Latin rectangle into the band |i - j| <= 2p - 2.

    The exchange loop that band_normalize replaced, which rescans every
    triple for each pivot, kept as the oracle for its rows.

    Requires layered Monge costs; the returned rectangle never costs more
    than the input, and in particular maps optima to optima.  Each step
    takes the entry i = rows[k-1][j-1] farthest outside the band (smallest
    i, then j).  Its partner is the smallest q, above i if j > i and below i
    otherwise, whose column r in row k lies across j (r < j if j > i, r > j
    otherwise) with i not in column r and q not in column j.  Swapping i and
    q in row k moves the smaller value left, which the Monge inequality on
    layer k makes non-increasing in cost.  Convert a PartialLatinSquare with
    to_latin_rectangle first.
    """
    if not isinstance(sol, LatinRectangle):
        raise TypeError(
            f"band_normalize takes a LatinRectangle, not {type(sol).__name__}; "
            "convert a partial square with to_latin_rectangle"
        )
    if not is_layered_monge(C):
        raise NotLayeredMongeError("band_normalize requires a layered Monge cost array")
    n, p = sol.n, sol.p
    band = 2 * p - 2
    out = sol

    max_exchanges = n * p * 2 * n + 1
    for _ in range(max_exchanges):
        outside = [(-abs(i - j), i, j, k) for i, j, k in out.triples() if abs(i - j) > band]
        if not outside:
            break
        _, i, j, k = min(outside)
        row = list(out.rows[k - 1])
        columns = [set(c) for c in zip(*out.rows)]
        partner = None
        for q in range(i + 1, n + 1) if j > i else range(1, i):
            r = row.index(q) + 1
            # r is never j, because row k holds i in column j.
            if (r < j) == (j > i) and i not in columns[r - 1] and q not in columns[j - 1]:
                partner = q
                break
        if partner is None:
            raise RuntimeError(
                f"internal error: no exchange partner for pivot ({i},{j}) at "
                f"offset {abs(i - j)} > {band}; contradicts the bandwidth theorem"
            )
        # As swap(out, min(i, partner), max(i, partner), k), but validated once.
        row[j - 1], row[r - 1] = partner, i
        out = LatinRectangle(rows=out.rows[:k - 1] + (tuple(row),) + out.rows[k:])
    else:
        raise RuntimeError("internal error: band normalization did not terminate")

    assert cost(C, out) <= cost(C, sol), "exchange increased cost"
    return out


def _differential_inputs(n, p, pyrng):
    """A cyclic shift of a seeded permutation (as in perfbench's
    normalize-p2), a random rectangle, the anti-diagonal and the reversed
    identity shifted cyclically by layer."""
    perm = [int(v) for v in np.random.default_rng(n * 10 + p).permutation(n) + 1]
    reverse = list(range(n, 0, -1))
    return [
        LatinRectangle(tuple(tuple(perm[r:] + perm[:r]) for r in range(p))),
        random_rectangle(n, p, pyrng),
        LatinRectangle(tuple(
            tuple((n - j - k) % n + 1 for j in range(n)) for k in range(p)
        )),
        LatinRectangle(tuple(tuple(reverse[r:] + reverse[:r]) for r in range(p))),
    ]


def test_band_normalize_matches_rescan_oracle():
    # Exact rows against the rescanning loop, and against the grid scan
    # where that is fast enough.  At n = 120 the oracle takes about 0.4 s
    # (p = 2) and 0.9 s (p = 4) a call, so only the first two kinds run.
    cases = [
        (n, p, 4)
        for n in [*range(1, 21), 27, 39, 56, 70]
        for p in range(1, min(n, 4) + 1)
    ] + [(120, 2, 2), (120, 4, 2)]
    pyrng = random.Random(43)
    checked = 0
    for n, p, kinds in cases:
        C = gen_random_layered_monge(n, p, seed=n * 100 + p)
        for rect in _differential_inputs(n, p, pyrng)[:kinds]:
            out = band_normalize(rect, C)
            assert out.rows == rescan_band_normalize(rect, C).rows
            if n <= 20:
                assert out.rows == grid_band_normalize(rect).rows
            assert bandwidth(out) <= 2 * p - 2
            checked += 1
    assert checked >= 300


def heap_band_normalize(sol: LatinRectangle, C: CostArray) -> LatinRectangle:
    """The exchange loop of band_normalize with a heap of out-of-band entries
    and a set of values per column, scanning every q below i for j < i; kept
    as the oracle for its rows at sizes the rescan oracle cannot reach."""
    if not isinstance(sol, LatinRectangle):
        raise TypeError(
            f"band_normalize takes a LatinRectangle, not {type(sol).__name__}; "
            "convert a partial square with to_latin_rectangle"
        )
    if not is_layered_monge(C):
        raise NotLayeredMongeError("band_normalize requires a layered Monge cost array")
    n, p = sol.n, sol.p
    band = 2 * p - 2
    rows = [list(row) for row in sol.rows]
    pos = [[0] * (n + 1) for _ in range(p)]
    for i, j, k in sol.triples():
        pos[k - 1][i] = j
    columns = [set(c) for c in zip(*rows)]
    heap = [(-abs(i - j), i, j, k) for i, j, k in sol.triples() if abs(i - j) > band]
    heapq.heapify(heap)

    max_exchanges = n * p * 2 * n + 1
    for _ in range(max_exchanges):
        # An entry is live while its cell still holds it.
        while heap and rows[heap[0][3] - 1][heap[0][2] - 1] != heap[0][1]:
            heapq.heappop(heap)
        if not heap:
            break
        _, i, j, k = heapq.heappop(heap)
        row, where = rows[k - 1], pos[k - 1]
        for q in range(i + 1, n + 1) if j > i else range(1, i):
            r = where[q]
            # r is never j, because row k holds i in column j.
            if (r < j) == (j > i) and i not in columns[r - 1] and q not in columns[j - 1]:
                break
        else:
            raise RuntimeError(
                f"internal error: no exchange partner for pivot ({i},{j}) at "
                f"offset {abs(i - j)} > {band}; contradicts the bandwidth theorem"
            )
        # The swap of i and q in row k; the rows are validated once, at the end.
        row[j - 1], row[r - 1] = q, i
        where[i], where[q] = r, j
        # Column j trades i for q, and column r q for i.
        columns[j - 1] ^= {i, q}
        columns[r - 1] ^= {i, q}
        for v, c in ((i, r), (q, j)):
            if abs(v - c) > band:
                heapq.heappush(heap, (-abs(v - c), v, c, k))
    else:
        raise RuntimeError("internal error: band normalization did not terminate")

    out = LatinRectangle(rows=tuple(map(tuple, rows)))
    assert cost(C, out) <= cost(C, sol), "exchange increased cost"
    return out


def test_band_normalize_matches_heap_oracle():
    # Exact rows at n = 120, 200 and 400 on every input kind.  Both loops
    # take O(n) per exchange, so this stays within a few seconds where the
    # rescan oracle would take minutes.
    pyrng = random.Random(47)
    checked = 0
    for n in (120, 200, 400):
        for p in (2, 3, 4):
            C = gen_random_layered_monge(n, p, seed=n * 100 + p)
            for rect in _differential_inputs(n, p, pyrng):
                out = band_normalize(rect, C)
                assert out.rows == heap_band_normalize(rect, C).rows
                assert bandwidth(out) <= 2 * p - 2
                checked += 1
    assert checked == 36


def test_block_example_decomposition():
    bp = block_decompose(LatinRectangle(BLOCK_EXAMPLE))
    assert [(b.start, b.end) for b in bp.blocks] == [(1, 2), (3, 5), (6, 9), (10, 12)]
    assert [b.normalized for b in bp.blocks] == [False, True, False, False]
    assert sorted(bp.blocks[1].integers) == [3, 4, 5]


def test_block_adjacent_transpositions():
    bp = block_decompose(LatinRectangle(((2, 1, 4, 3), (1, 2, 3, 4))))
    assert bp.widths == (2, 2)
    assert all(b.normalized for b in bp.blocks)
    assert bp.all_normalized_width_2_or_3()


def test_block_single_full_width():
    bp = block_decompose(LatinRectangle(COUNTEREXAMPLE_CANDIDATE_ROWS))
    assert bp.widths == (10,)


def test_block_width_one_only_for_p1():
    bp = block_decompose(LatinRectangle((tuple(range(1, 5)),)))
    assert bp.widths == (1, 1, 1, 1)


def test_block_partition_is_minimal():
    # Greedy output equals the minimal partition: each block's width matches
    # its distinct count and no proper prefix of a block already closes.
    pyrng = random.Random(17)
    for _ in range(60):
        n = pyrng.randint(2, 8)
        p = pyrng.randint(1, min(3, n))
        sol = random_rectangle(n, p, pyrng)
        bp = block_decompose(sol)
        assert [b.start for b in bp.blocks][0] == 1
        assert bp.blocks[-1].end == n
        for b in bp.blocks:
            vals = {sol.entry(k, j) for k in range(1, p + 1) for j in range(b.start, b.end + 1)}
            assert vals == set(b.integers)
            assert len(vals) == b.width
            for w in range(1, b.width):
                prefix = {
                    sol.entry(k, j)
                    for k in range(1, p + 1)
                    for j in range(b.start, b.start + w)
                }
                assert len(prefix) > w  # proper prefixes never close


def test_property_star_on_normalized_blocks():
    bp = block_decompose(LatinRectangle(BLOCK_EXAMPLE))
    norm = bp.blocks[1]
    assert normalized_block_property(LatinRectangle(BLOCK_EXAMPLE), norm)
    with pytest.raises(ValueError):
        normalized_block_property(LatinRectangle(BLOCK_EXAMPLE), bp.blocks[0])
    # property holds for every normalized block of random rectangles
    pyrng = random.Random(5)
    seen = 0
    while seen < 40:
        sol = random_rectangle(pyrng.randint(2, 7), 2, pyrng)
        for b in block_decompose(sol).blocks:
            if b.normalized:
                assert normalized_block_property(sol, b)
                seen += 1
