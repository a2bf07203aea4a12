"""Instances and solutions of the p-layer planar 3-dimensional assignment problem.

An instance is an n x n x p integer cost tensor.  A feasible solution picks
p pairwise disjoint permutations of 1..n, one per layer, and can be written
either as a p x n Latin rectangle or as a partial n x n Latin square whose
filled cells carry layer labels 1..p.  All public indices are 1-based.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np


class DimensionError(ValueError):
    """Shapes of instance and solution do not match."""


class InfeasibleSolutionError(ValueError):
    """A grid violates the Latin row/column constraints."""


class CostRangeError(ValueError):
    """Cost entries too large for exact int64 cost sums and Monge checks."""


class OracleSizeLimitError(ValueError):
    """Instance past a solver's size budget (CLI exit 3)."""


def _int64_entries(values, what: str) -> np.ndarray:
    """values as an int64 array.  The cast must change no entry, so a
    fraction, complex value, NaN, infinity, string or value past int64
    raises ValueError (CostRangeError for a Python int past int64)."""
    raw = np.asarray(values)
    if raw.dtype.kind in "bi":
        return raw.astype(np.int64, copy=False)
    message = f"{raw.dtype} {what} entries must be integers within int64"
    if raw.dtype.kind not in "ufO":  # complex, strings, bytes, dates and records
        raise ValueError(message)
    try:
        with np.errstate(invalid="ignore"):  # NaN and infinities cast with a warning
            a = raw.astype(np.int64, copy=False)
        exact = np.all((a == raw) & (raw < 2.0**63))
    except OverflowError:  # Python ints past int64
        raise CostRangeError(f"{what} entries overflow int64") from None
    except (TypeError, ValueError):  # objects that are not numbers
        raise ValueError(message) from None
    if not exact:
        raise ValueError(message)
    return a


@dataclass(frozen=True)
class CostArray:
    """n x n x p integer cost tensor; entries[i-1, j-1, k-1] is c_{ijk}."""

    entries: np.ndarray

    def __post_init__(self):
        a = _int64_entries(self.entries, "cost")
        if a.ndim != 3 or a.shape[0] != a.shape[1]:
            raise DimensionError(f"expected (n, n, p) tensor, got shape {a.shape}")
        n, _, p = a.shape
        if not 1 <= p <= n:
            raise DimensionError(f"need 1 <= p <= n, got n={n}, p={p}")
        # A solution sums n*p entries and a Monge check compares sums of up
        # to four, all in int64.
        top = max(int(a.max()), -int(a.min()))
        if max(4, n * p) * top >= 2**63:
            raise CostRangeError(
                f"cost entries up to {top} in absolute value overflow int64 "
                f"sums: need max(4, n*p) * max|c| < 2^63 (n={n}, p={p})"
            )
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "entries", a)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def p(self) -> int:
        return self.entries.shape[2]

    def at(self, i: int, j: int, k: int) -> int:
        """Cost c_{ijk} with 1-based indices."""
        return int(self.entries[i - 1, j - 1, k - 1])

    def layer(self, k: int) -> np.ndarray:
        """The k-plane as a read-only n x n matrix."""
        return self.entries[:, :, k - 1]

    def __eq__(self, other) -> bool:
        return isinstance(other, CostArray) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.entries.shape, self.entries.tobytes()))


@dataclass(frozen=True, slots=True)
class LatinRectangle:
    """p x n grid; rows[k-1][j-1] = i means layer k assigns row i to column j.

    Every row is a permutation of 1..n and every column holds distinct values
    (the Figure-style convention: the entry at (k, j) is the first index i).
    The class is slotted: a rectangle holds its rows and no __dict__.
    """

    rows: tuple

    def __post_init__(self):
        rows = tuple([tuple(map(int, row)) for row in self.rows])
        object.__setattr__(self, "rows", rows)
        ok, why = latin_rows_violation(rows)
        if not ok:
            raise InfeasibleSolutionError(why)

    @property
    def p(self) -> int:
        return len(self.rows)

    @property
    def n(self) -> int:
        return len(self.rows[0])

    def entry(self, k: int, j: int) -> int:
        return self.rows[k - 1][j - 1]

    def triples(self) -> Iterator[tuple]:
        """All (i, j, k) with x_{ijk} = 1."""
        for k, row in enumerate(self.rows, start=1):
            for j, i in enumerate(row, start=1):
                yield (i, j, k)


def _latin_rectangles(rows: np.ndarray) -> list:
    """LatinRectangles of an (m, p, n) integer array, checked in bulk.

    One numpy pass checks what the constructor checks of each rectangle:
    every row, sorted, is 1..n and, for p > 1, no sorted column has equal
    neighbours.  The rectangles then take their rows, tuples of Python ints,
    without a second check.  Equal rows share one tuple within a call: a
    lexsort of the m * p rows groups them, and each distinct row becomes a
    tuple once.  If the bulk check fails, every rectangle is built through
    the constructor, so the first bad one raises its usual
    InfeasibleSolutionError."""
    _, p, n = rows.shape
    ok = 1 <= p <= n and (np.sort(rows, axis=2) == np.arange(1, n + 1)).all()
    if ok and p > 1:
        cols = np.sort(rows, axis=1)
        ok = (cols[:, 1:] != cols[:, :-1]).all()
    if not ok:
        return [LatinRectangle(rows=r) for r in rows.tolist()]
    flat = rows.reshape(-1, n)
    order = np.lexsort(flat.T)  # equal rows end up next to each other
    ranked = flat[order]
    first = np.ones(len(ranked), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    which = np.empty(len(ranked), dtype=np.intp)
    which[order] = np.cumsum(first) - 1
    distinct = list(map(tuple, ranked[first].tolist()))
    new, put = object.__new__, object.__setattr__
    rects = []
    # zip over p references to one iterator groups the row tuples p at a time.
    for r in zip(*[map(distinct.__getitem__, which.tolist())] * p):
        rect = new(LatinRectangle)
        put(rect, "rows", r)
        rects.append(rect)
    return rects


@dataclass(frozen=True)
class PartialLatinSquare:
    """n x n grid of layer labels; cells[i-1][j-1] = k (or 0 for empty)."""

    n: int
    p: int
    cells: tuple

    def __post_init__(self):
        cells = tuple(tuple(int(v) for v in row) for row in self.cells)
        object.__setattr__(self, "cells", cells)
        if len(cells) != self.n or any(len(r) != self.n for r in cells):
            raise DimensionError(f"cells must be {self.n}x{self.n}")
        ok, why = partial_square_violation(cells, self.p)
        if not ok:
            raise InfeasibleSolutionError(why)

    def filled(self) -> Iterator[tuple]:
        """All (i, j, k) over filled cells."""
        for i, row in enumerate(self.cells, start=1):
            for j, k in enumerate(row, start=1):
                if k:
                    yield (i, j, k)


Solution = Union[LatinRectangle, PartialLatinSquare]


def latin_rows_violation(rows) -> tuple:
    """(ok, message) for the Latin rectangle invariants on raw row tuples."""
    if not rows:
        return False, "no rows"
    n = len(rows[0])
    if set(map(len, rows)) != {n}:
        return False, "rows of unequal length"
    if len(rows) > n:
        return False, f"more rows ({len(rows)}) than columns ({n})"
    try:  # a valid rectangle passes in set operations; the loops name a violation
        if (all(map(set(range(1, n + 1)).__eq__, map(set, rows)))
                and min(map(len, map(set, zip(*rows)))) == len(rows)):
            return True, ""
    except TypeError:  # unhashable entries, which the loops judge as before
        pass
    for k, row in enumerate(rows, start=1):
        if sorted(row) != list(range(1, n + 1)):
            return False, f"row {k} is not a permutation of 1..{n}"
    for j in range(n):
        seen = {}
        for k, row in enumerate(rows, start=1):
            v = row[j]
            if v in seen:
                return False, (
                    f"column {j + 1} repeats value {v} in rows {seen[v]} and {k}"
                )
            seen[v] = k
    return True, ""


def partial_square_violation(cells, p: int) -> tuple:
    """(ok, message) for the partial Latin square invariants on raw cells."""
    n = len(cells)
    for i, row in enumerate(cells, start=1):
        seen = {}
        for j, v in enumerate(row, start=1):
            if not v:
                continue
            if not 1 <= v <= p:
                return False, f"cell ({i},{j}) holds {v}, outside 1..{p}"
            if v in seen:
                return False, f"row {i} repeats layer {v} in columns {seen[v]} and {j}"
            seen[v] = j
    for j in range(1, n + 1):
        seen = {}
        for i in range(1, n + 1):
            v = cells[i - 1][j - 1]
            if not v:
                continue
            if v in seen:
                return False, f"column {j} repeats layer {v} in rows {seen[v]} and {i}"
            seen[v] = i
    return True, ""


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violation: str = ""

    def __bool__(self) -> bool:
        return self.feasible


def check_rows(rows) -> FeasibilityReport:
    """Latin rectangle feasibility of raw row tuples, or of a LatinRectangle
    (always feasible); returns a report instead of raising."""
    if isinstance(rows, LatinRectangle):
        return FeasibilityReport(True)
    ok, why = latin_rows_violation(tuple(tuple(r) for r in rows))
    return FeasibilityReport(ok, why)


def cost(C: CostArray, sol: Solution) -> int:
    """Objective value: sum of c_{ijk} over the placed triples."""
    if isinstance(sol, PartialLatinSquare):
        if sol.n != C.n:
            raise DimensionError(f"solution side {sol.n} != instance side {C.n}")
        if sol.p > C.p:
            raise DimensionError(f"solution uses layer > p={C.p}")
        cells = np.array(sol.cells, dtype=np.intp)
        i, j = np.nonzero(cells)
        if len(i) != C.n * sol.p:
            raise InfeasibleSolutionError(
                f"incomplete solution: {len(i)} filled cells, expected {C.n * sol.p}"
            )
        k = cells[i, j] - 1
    else:
        if sol.n != C.n or sol.p != C.p:
            raise DimensionError(
                f"solution is {sol.p}x{sol.n}, instance needs {C.p}x{C.n}"
            )
        i = np.array(sol.rows, dtype=np.intp) - 1
        j, k = np.arange(C.n), np.arange(C.p)[:, None]
    # One gather of at most n*p entries; CostArray's bound keeps the int64 sum exact.
    return int(C.entries[i, j, k].sum())


def to_partial_latin_square(sol: LatinRectangle) -> PartialLatinSquare:
    """Rectangle -> partial square: value i at (k, j) becomes label k at (i, j)."""
    n, p = sol.n, sol.p
    cells = [[0] * n for _ in range(n)]
    for i, j, k in sol.triples():
        cells[i - 1][j - 1] = k
    return PartialLatinSquare(n=n, p=p, cells=tuple(tuple(r) for r in cells))


def to_latin_rectangle(L: PartialLatinSquare) -> LatinRectangle:
    """Partial square -> rectangle; requires each layer to appear exactly n times."""
    n, p = L.n, L.p
    rows = [[0] * n for _ in range(p)]
    for i, j, k in L.filled():
        rows[k - 1][j - 1] = i
    for k in range(p):
        if 0 in rows[k]:
            j = rows[k].index(0) + 1
            raise InfeasibleSolutionError(
                f"incomplete solution: layer {k + 1} missing in column {j}"
            )
    return LatinRectangle(rows=tuple(tuple(r) for r in rows))


def cyclic_latin_square(n: int) -> LatinRectangle:
    """Order-n Latin square with row k the cyclic shift by k-1."""
    rows = tuple(
        tuple((j + k) % n + 1 for j in range(n)) for k in range(n)
    )
    return LatinRectangle(rows=rows)
