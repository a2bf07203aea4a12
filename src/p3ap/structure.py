"""Structural operations on solutions: swaps, bandwidth, band normalization,
and block decomposition of Latin rectangles.

On layered Monge costs, exchanging two values within a row so that the
smaller one moves left never increases cost; repeated exchanges of this kind,
each a swap in one row of the Latin rectangle, push every entry
i = rows[k-1][j-1] into the band |i - j| <= 2p - 2 without losing optimality.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import List, Optional

from .core import CostArray, LatinRectangle, check_rows, cost
from .monge import NotLayeredMongeError, is_layered_monge


@dataclass(frozen=True)
class SwapResult:
    """Outcome of exchanging two values within one rectangle row."""

    rows: tuple
    feasible: bool
    delta_cost: Optional[int] = None

    @property
    def rectangle(self) -> LatinRectangle:
        if not self.feasible:
            raise ValueError("swap result is infeasible")
        return LatinRectangle(rows=self.rows)


def swap(
    sol: LatinRectangle, r: int, q: int, k: int, C: Optional[CostArray] = None
) -> SwapResult:
    """Exchange the positions of values r < q in row k.

    The resulting rows always stay row-permutations; the feasible flag
    records whether column-distinctness survives.  With a cost array given,
    delta_cost is the cost change of the exchange.
    """
    if not 1 <= k <= sol.p:
        raise ValueError(f"layer {k} out of range 1..{sol.p}")
    r, q = operator.index(r), operator.index(q)
    if not (1 <= r <= sol.n and 1 <= q <= sol.n):
        raise ValueError(f"values r={r}, q={q} out of range 1..{sol.n}")
    if r >= q:
        raise ValueError(f"need r < q, got r={r}, q={q}")
    row = list(sol.rows[k - 1])
    jr, jq = row.index(r) + 1, row.index(q) + 1
    row[jr - 1], row[jq - 1] = q, r
    rows = tuple(
        tuple(row) if kk == k else sol.rows[kk - 1] for kk in range(1, sol.p + 1)
    )
    feasible = bool(check_rows(rows))
    delta = None
    if C is not None:
        delta = (
            C.at(r, jq, k) + C.at(q, jr, k) - C.at(r, jr, k) - C.at(q, jq, k)
        )
    return SwapResult(rows=rows, feasible=feasible, delta_cost=delta)


def bandwidth(L) -> int:
    """Maximum |i - j| over the cells (i, j) filled by a Latin rectangle
    (i = rows[k-1][j-1]) or by a partial Latin square (0 for an empty grid)."""
    if isinstance(L, LatinRectangle):
        return max(abs(i - j) for i, j, _ in L.triples())
    return max((abs(i - j) for i, j, _ in L.filled()), default=0)


def band_normalize(sol: LatinRectangle, C: CostArray) -> LatinRectangle:
    """Move a feasible Latin rectangle into the band |i - j| <= 2p - 2.

    Requires layered Monge costs; the returned rectangle never costs more
    than the input, and in particular maps optima to optima.  Each step
    takes the entry i = rows[k-1][j-1] farthest outside the band (smallest
    i, then j).  Its partner is the smallest q, above i if j > i and below i
    otherwise, whose column r in row k lies across j (r < j if j > i, r > j
    otherwise) with i not in column r and q not in column j.  Swapping i and
    q in row k moves the smaller value left, which the Monge inequality on
    layer k makes non-increasing in cost.  Convert a PartialLatinSquare with
    to_latin_rectangle first.

    The state is O(n*p): the rows, the column of each value in each row, a
    bit mask per column (bit v set while it holds v) and a heap of the
    out-of-band entries, in which an entry goes stale, and is skipped, once
    its cell changes.  An exchange rewrites two cells of one row, XORs two
    masks and pushes at most two entries, so it costs O(log(n*p)) beyond its
    partner scan.  For j < i that scan starts at q = 2j + 2 - i: a cell (q, r)
    with q < i has r - q < i - j, as the pivot has the largest offset and the
    smallest value at it, so r > j needs q >= 2j + 2 - i.
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
    rows = [list(row) for row in sol.rows]
    pos = [[0] * (n + 1) for _ in range(p)]
    cols = [0] * (n + 1)
    for i, j, k in sol.triples():
        pos[k - 1][i] = j
        cols[j] |= 1 << i
    heap = [(-abs(i - j), i, j, k) for i, j, k in sol.triples() if abs(i - j) > band]
    heapify(heap)

    max_exchanges = n * p * 2 * n + 1
    for _ in range(max_exchanges):
        # An entry is live while its cell still holds it.
        while heap:
            _, i, j, k = heappop(heap)
            if rows[k - 1][j - 1] == i:
                break
        else:
            break
        row, where, col = rows[k - 1], pos[k - 1], cols[j]
        # r is never j, because row k holds i in column j.
        if j > i:
            for q in range(i + 1, n + 1):
                r = where[q]
                if r < j and not cols[r] >> i & 1 and not col >> q & 1:
                    break
            else:
                q = 0
        else:
            for q in range(max(1, 2 * j + 2 - i), i):
                r = where[q]
                if r > j and not cols[r] >> i & 1 and not col >> q & 1:
                    break
            else:
                q = 0
        if not q:
            raise RuntimeError(
                f"internal error: no exchange partner for pivot ({i},{j}) at "
                f"offset {abs(i - j)} > {band}; contradicts the bandwidth theorem"
            )
        # The swap of i and q in row k; the rows are validated once, at the end.
        row[j - 1], row[r - 1] = q, i
        where[i], where[q] = r, j
        # Column j trades i for q, and column r q for i.
        swapped = (1 << i) | (1 << q)
        cols[j] ^= swapped
        cols[r] ^= swapped
        if abs(i - r) > band:
            heappush(heap, (-abs(i - r), i, r, k))
        if abs(q - j) > band:
            heappush(heap, (-abs(q - j), q, j, k))
    else:
        raise RuntimeError("internal error: band normalization did not terminate")

    out = LatinRectangle(rows=tuple(map(tuple, rows)))
    assert cost(C, out) <= cost(C, sol), "exchange increased cost"
    return out


@dataclass(frozen=True)
class Block:
    """Interval of adjacent columns whose width equals its distinct-value count."""

    start: int
    end: int
    integers: frozenset
    normalized: bool

    @property
    def width(self) -> int:
        return self.end - self.start + 1

    def to_dict(self) -> dict:
        return {
            "from": self.start,
            "to": self.end,
            "integers": sorted(self.integers),
            "normalized": self.normalized,
        }


@dataclass(frozen=True)
class BlockPartition:
    blocks: tuple

    @property
    def widths(self) -> tuple:
        return tuple(b.width for b in self.blocks)

    def all_normalized_width_2_or_3(self) -> bool:
        return all(b.normalized and b.width in (2, 3) for b in self.blocks)

    def to_list(self) -> list:
        return [b.to_dict() for b in self.blocks]


def block_decompose(sol: LatinRectangle) -> BlockPartition:
    """Greedy minimal partition of the columns into blocks.

    Scanning left to right, a block closes as soon as the number of distinct
    integers seen equals the current width; minimality makes this the unique
    coarsest-free decomposition.  Width-1 blocks only occur for p = 1.
    """
    n, p = sol.n, sol.p
    blocks: List[Block] = []
    start = 1
    seen: set = set()
    for j in range(1, n + 1):
        for k in range(1, p + 1):
            seen.add(sol.entry(k, j))
        if len(seen) == j - start + 1:
            normalized = seen == set(range(start, j + 1))
            if p >= 2 and j == start:
                raise AssertionError("width-1 block impossible for p >= 2")
            blocks.append(
                Block(start=start, end=j, integers=frozenset(seen), normalized=normalized)
            )
            start = j + 1
            seen = set()
    assert not seen, "scan ended inside an open block"
    return BlockPartition(blocks=tuple(blocks))


def normalized_block_property(sol: LatinRectangle, block: Block) -> bool:
    """Boundary-mixing property of a normalized block.

    For a normalized block on columns j..j+m-1 and every cut 1 <= i < m: the
    first i columns contain some integer >= i+j, and the last i columns some
    integer <= j+m-i-1.  Follows from minimality of blocks.
    """
    if not block.normalized:
        raise ValueError("property applies to normalized blocks only")
    j, m = block.start, block.width
    for i in range(1, m):
        head = {
            sol.entry(k, c)
            for k in range(1, sol.p + 1)
            for c in range(j, j + i)
        }
        tail = {
            sol.entry(k, c)
            for k in range(1, sol.p + 1)
            for c in range(j + m - i, j + m)
        }
        if max(head) < i + j or min(tail) > j + m - i - 1:
            return False
    return True
