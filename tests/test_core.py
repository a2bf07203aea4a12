"""Data model: cost evaluation, representation conversions, feasibility."""

import copy
import dataclasses
import itertools
import pickle
import random

import numpy as np
import pytest

from p3ap import (
    CostArray,
    LatinRectangle,
    PartialLatinSquare,
    check_rows,
    cost,
    to_latin_rectangle,
    to_partial_latin_square,
)
from p3ap.core import (
    CostRangeError,
    DimensionError,
    FeasibilityReport,
    InfeasibleSolutionError,
    _latin_rectangles,
    cyclic_latin_square,
    latin_rows_violation,
)

# The worked 4x4, p=3 example used throughout: rectangle rows and the
# matching partial square (0 marks an empty cell).
EXAMPLE_RECT = ((2, 1, 3, 4), (4, 3, 1, 2), (1, 4, 2, 3))
EXAMPLE_SQUARE = (
    (3, 1, 2, 0),
    (1, 0, 3, 2),
    (0, 2, 1, 3),
    (2, 3, 0, 1),
)


def random_rectangle(n, p, rng):
    """Random feasible p x n rectangle via greedy column-distinct sampling."""
    while True:
        rows = []
        cols = [set() for _ in range(n)]
        ok = True
        for _ in range(p):
            for _ in range(200):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                if all(perm[j] not in cols[j] for j in range(n)):
                    break
            else:
                ok = False
                break
            rows.append(tuple(perm))
            for j in range(n):
                cols[j].add(perm[j])
        if ok:
            return LatinRectangle(tuple(rows))


def test_cost_array_shape_and_access():
    C = CostArray(np.arange(2 * 2 * 2).reshape(2, 2, 2))
    assert C.n == 2 and C.p == 2
    assert C.at(1, 1, 1) == 0
    assert C.at(2, 2, 2) == 7
    assert np.array_equal(C.layer(2), np.array([[1, 3], [5, 7]]))


def test_cost_array_rejects_bad_shapes():
    with pytest.raises(DimensionError):
        CostArray(np.zeros((2, 3, 2), dtype=np.int64))
    with pytest.raises(DimensionError):
        CostArray(np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(DimensionError):
        CostArray(np.zeros((2, 2, 3), dtype=np.int64))  # p > n


def test_cost_array_rejects_entries_that_overflow_int64_sums():
    # Once accepted, this layer passed the Monge check by wrapping around
    # and solve_dp reported -2^63 instead of 0.
    with pytest.raises(CostRangeError):
        CostArray(np.array([[2**62, 0], [0, 2**62]], dtype=np.int64)[:, :, None])
    # The bound is max(4, n*p) * max|c| < 2^63, so small arrays are held to 4.
    limit = (2**63 - 1) // 4
    CostArray(np.full((2, 2, 1), -limit, dtype=np.int64))
    with pytest.raises(CostRangeError):
        CostArray(np.full((2, 2, 1), -(limit + 1), dtype=np.int64))
    limit = (2**63 - 1) // 15
    CostArray(np.full((5, 5, 3), limit, dtype=np.int64))
    with pytest.raises(CostRangeError):
        CostArray(np.full((5, 5, 3), limit + 1, dtype=np.int64))
    with pytest.raises(CostRangeError):
        CostArray(np.full((2, 2, 1), -(2**63), dtype=np.int64))


@pytest.mark.parametrize("entries", [
    np.array([[[1.7]]]),
    np.array([[[np.nan]]]),
    np.array([[[np.inf]]]),
    np.array([[[2.0**63]]]),
    np.array([[[2**64 - 1]]], dtype=np.uint64),
    np.array([[[2.5]]], dtype=object),
    np.array([[["3"]]]),
    np.array([[[b"3"]]]),
    np.array([[["3"]]], dtype=object),
    np.array([[[None]]], dtype=object),
    np.array([[[np.datetime64("2020-01-01")]]]),
    np.array([[[1 + 0j]]]),
], ids=repr)
def test_cost_array_refuses_entries_that_int64_conversion_would_change(entries):
    with pytest.raises(ValueError, match="must be integers within int64"):
        CostArray(entries)


def test_cost_array_converts_only_exact_entries():
    # Bool, integral float and Python int entries convert exactly and are kept.
    assert CostArray(np.ones((2, 2, 1), dtype=bool)) == CostArray(np.ones((2, 2, 1), np.int64))
    assert CostArray(np.full((2, 2, 1), -3.0)).at(1, 2, 1) == -3
    assert CostArray(np.array([[[2**40]]], dtype=object)).at(1, 1, 1) == 2**40
    # A Python int past int64 is refused as out of range.
    with pytest.raises(CostRangeError, match="overflow int64"):
        CostArray(np.array([[[2**64]]], dtype=object))


def test_cost_array_is_immutable():
    C = CostArray(np.zeros((2, 2, 1), dtype=np.int64))
    with pytest.raises(ValueError):
        C.entries[0, 0, 0] = 1


def test_cost_zero_array_example_rectangle():
    C = CostArray(np.zeros((4, 4, 3), dtype=np.int64))
    assert cost(C, LatinRectangle(EXAMPLE_RECT)) == 0


def test_cost_constant_array_is_n_times_p():
    C = CostArray(np.ones((2, 2, 2), dtype=np.int64))
    for rows in (((1, 2), (2, 1)), ((2, 1), (1, 2))):
        assert cost(C, LatinRectangle(rows)) == 4


def test_cost_small_hand_checked():
    layers = np.stack(
        [np.array([[0, 5], [5, 0]]), np.array([[1, 1], [1, 1]])], axis=2
    )
    C = CostArray(layers)
    assert cost(C, LatinRectangle(((1, 2), (2, 1)))) == 2


def test_cost_dimension_mismatch():
    C = CostArray(np.zeros((3, 3, 2), dtype=np.int64))
    with pytest.raises(DimensionError):
        cost(C, LatinRectangle(((1, 2), (2, 1))))


def _cost_by_cells(C, sol):
    """The objective as a per-cell sum of Python ints."""
    cells = sol.triples() if isinstance(sol, LatinRectangle) else sol.filled()
    return sum(int(C.entries[i - 1, j - 1, k - 1]) for i, j, k in cells)


def test_cost_matches_the_per_cell_sum():
    # Random entries, and entries at CostArray's bound, where the int64 sum
    # of n*p entries of either sign is exact only if no step wraps.
    rng = np.random.default_rng(17)
    pyrng = random.Random(17)
    checked = 0
    for n in (1, 2, 3, 5, 8, 13, 40):
        for p in range(1, min(n, 4) + 1):
            top = (2**63 - 1) // max(4, n * p)
            for entries in (
                rng.integers(-1000, 1000, size=(n, n, p)),
                rng.choice([-top, top], size=(n, n, p)),
                np.full((n, n, p), top),
                np.full((n, n, p), -top),
            ):
                C = CostArray(entries)
                rect = random_rectangle(n, p, pyrng)
                got = cost(C, rect)
                assert type(got) is int
                assert got == _cost_by_cells(C, rect)
                checked += 1
    assert checked == 4 * 22
    # At the bound the total reaches n*p*top, just under 2^63.
    C = CostArray(np.full((40, 40, 4), (2**63 - 1) // 160))
    assert cost(C, random_rectangle(40, 4, pyrng)) == 160 * ((2**63 - 1) // 160)


def test_cost_refuses_a_rectangle_of_another_n_or_p():
    C = CostArray(np.zeros((3, 3, 2), dtype=np.int64))
    for rows in (((1, 2, 3),), ((1, 2, 3), (2, 3, 1), (3, 1, 2)), ((1, 2), (2, 1))):
        with pytest.raises(DimensionError, match="instance needs 2x3"):
            cost(C, LatinRectangle(rows))


def test_cost_of_partial_squares_keeps_its_checks():
    # A partial square may use fewer layers than the instance; it is priced
    # cell by cell, and refuses other sides, extra layers and missing cells.
    rng = np.random.default_rng(19)
    C = CostArray(rng.integers(-50, 50, size=(4, 4, 3)))
    for p in (1, 2, 3):
        sq = to_partial_latin_square(LatinRectangle(EXAMPLE_RECT[:p]))
        assert cost(C, sq) == _cost_by_cells(C, sq)
    with pytest.raises(DimensionError, match="solution side 2 != instance side 4"):
        cost(C, PartialLatinSquare(n=2, p=1, cells=((1, 0), (0, 1))))
    with pytest.raises(DimensionError, match="solution uses layer > p=1"):
        cost(CostArray(np.zeros((4, 4, 1), dtype=np.int64)), to_partial_latin_square(
            LatinRectangle(EXAMPLE_RECT)))
    with pytest.raises(InfeasibleSolutionError, match="4 filled cells, expected 8"):
        cost(C, PartialLatinSquare(n=4, p=2, cells=(
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))))


def test_cost_of_partial_squares_at_the_bound():
    # Entries of either sign at CostArray's bound, where the int64 sum of a
    # square's cells is exact only if no step wraps; squares of every p.
    rng = np.random.default_rng(23)
    pyrng = random.Random(23)
    for n, p in ((2, 2), (5, 3), (13, 4), (40, 4)):
        top = (2**63 - 1) // max(4, n * p)
        for entries in (rng.choice([-top, top], size=(n, n, p)), np.full((n, n, p), top),
                        np.full((n, n, p), -top)):
            C = CostArray(entries)
            for q in range(1, p + 1):
                sq = to_partial_latin_square(random_rectangle(n, q, pyrng))
                got = cost(C, sq)
                assert type(got) is int
                assert got == _cost_by_cells(C, sq)
    C = CostArray(np.full((40, 40, 4), (2**63 - 1) // 160))
    sq = to_partial_latin_square(random_rectangle(40, 4, pyrng))
    assert cost(C, sq) == 160 * ((2**63 - 1) // 160)


def test_rectangle_invariants():
    with pytest.raises(InfeasibleSolutionError):
        LatinRectangle(((1, 1), (2, 2)))  # rows not permutations
    with pytest.raises(InfeasibleSolutionError):
        LatinRectangle(((1, 2), (1, 2)))  # column duplicate


def test_check_rows_reports_violation_location():
    rep = check_rows(((1, 2), (1, 2)))
    assert not rep.feasible
    assert "column 1" in rep.violation


def test_check_rows_accepts_a_rectangle():
    rep = check_rows(LatinRectangle(EXAMPLE_RECT))
    assert rep.feasible and rep.violation == ""


def test_partial_square_invariants():
    with pytest.raises(InfeasibleSolutionError):
        PartialLatinSquare(n=2, p=1, cells=((1, 1), (0, 0)))
    with pytest.raises(InfeasibleSolutionError):
        PartialLatinSquare(n=2, p=1, cells=((1, 0), (1, 0)))
    with pytest.raises(InfeasibleSolutionError):
        PartialLatinSquare(n=2, p=1, cells=((2, 0), (0, 0)))  # label > p


def test_example_rectangle_to_square():
    sq = to_partial_latin_square(LatinRectangle(EXAMPLE_RECT))
    assert sq.cells == EXAMPLE_SQUARE


def test_example_square_to_rectangle():
    sq = PartialLatinSquare(n=4, p=3, cells=EXAMPLE_SQUARE)
    assert to_latin_rectangle(sq).rows == EXAMPLE_RECT


def test_cyclic_square_is_fully_filled():
    for n in (1, 2, 5):
        sq = to_partial_latin_square(cyclic_latin_square(n))
        assert all(v for row in sq.cells for v in row)


def test_single_cell_roundtrip():
    sq = PartialLatinSquare(n=1, p=1, cells=((1,),))
    assert to_latin_rectangle(sq).rows == ((1,),)


def test_incomplete_square_rejected():
    sq = PartialLatinSquare(n=2, p=2, cells=((1, 0), (0, 1)))
    with pytest.raises(InfeasibleSolutionError, match="incomplete solution"):
        to_latin_rectangle(sq)


def test_roundtrip_on_random_solutions():
    rng = random.Random(7)
    for _ in range(50):
        n = rng.randint(2, 6)
        p = rng.randint(1, n)
        rect = random_rectangle(n, p, rng)
        assert to_latin_rectangle(to_partial_latin_square(rect)).rows == rect.rows


def test_cost_invariant_under_representation():
    rng = random.Random(11)
    nprng = np.random.default_rng(11)
    for _ in range(25):
        n = rng.randint(2, 5)
        p = rng.randint(1, n)
        C = CostArray(nprng.integers(-50, 50, size=(n, n, p)))
        rect = random_rectangle(n, p, rng)
        sq = to_partial_latin_square(rect)
        by_triples = sum(C.at(i, j, k) for i, j, k in rect.triples())
        assert cost(C, rect) == cost(C, sq) == by_triples


def test_is_feasible_on_example_and_perturbations():
    assert check_rows(EXAMPLE_RECT)
    assert not check_rows(((1, 2), (1, 2)))
    rng = random.Random(3)
    hits = 0
    for _ in range(100):
        n = rng.randint(2, 5)
        p = rng.randint(1, n)
        rows = [list(r) for r in random_rectangle(n, p, rng).rows]
        k = rng.randrange(p)
        j = rng.randrange(n)
        old = rows[k][j]
        rows[k][j] = rng.randint(1, n)
        broken = not check_rows(tuple(map(tuple, rows))).feasible
        assert broken == (rows[k][j] != old)
        hits += broken
    assert hits > 0


def test_triples_have_no_shared_pairs():
    rect = LatinRectangle(EXAMPLE_RECT)
    triples = list(rect.triples())
    assert len(triples) == rect.n * rect.p
    for a, b in ((0, 2), (1, 2), (0, 1)):
        pairs = [(t[a], t[b]) for t in triples]
        assert len(set(pairs)) == len(pairs)


def test_full_p_equals_n_solution_is_latin_square():
    sq = to_partial_latin_square(cyclic_latin_square(4))
    for row in sq.cells:
        assert sorted(row) == [1, 2, 3, 4]
    for j in range(4):
        assert sorted(r[j] for r in sq.cells) == [1, 2, 3, 4]


def loop_latin_rows_violation(rows) -> tuple:
    """The per-row and per-column loop that latin_rows_violation ran on every
    input before its set-based accept, kept as the oracle for its messages."""
    if not rows:
        return False, "no rows"
    n = len(rows[0])
    if any(len(r) != n for r in rows):
        return False, "rows of unequal length"
    if len(rows) > n:
        return False, f"more rows ({len(rows)}) than columns ({n})"
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


def random_latin_rows(n, p, rng):
    """p rows of a random isotope of the cyclic Latin square of order n."""
    symbols, shifts, cols = (rng.sample(range(n), n) for _ in range(3))
    return tuple(
        tuple(symbols[(shifts[k] + cols[j]) % n] + 1 for j in range(n)) for k in range(p)
    )


def mutated_rows(rows, rng):
    """A copy of rows with one random defect of the kinds the checker names."""
    rows = [list(r) for r in rows]
    n, p = len(rows[0]), len(rows)
    k, j = rng.randrange(p), rng.randrange(n)
    kind = rng.randrange(7)
    if kind == 0:  # a value repeated within a row
        rows[k][j] = rows[k][(j + 1) % n]
    elif kind == 1:  # a value out of range
        rows[k][j] = rng.choice((0, -1, n + 1, 2 * n))
    elif kind == 2:  # one row is a different permutation: columns may repeat
        rng.shuffle(rows[k])
    elif kind == 3:  # every row the same: all columns repeat, the first is named
        rows = [list(rows[0]) for _ in range(max(p, 2))]
    elif kind == 4:  # unequal row lengths
        rows[k] = rows[k][:-1] if rng.random() < 0.5 else rows[k] + [n + 1]
    elif kind == 5:  # more rows than columns
        rows = rows + [list(rows[0])] * (n + 1 - p)
    else:  # empty rows
        rows = [[] for _ in range(rng.randint(0, p))]
    return tuple(map(tuple, rows))


def test_latin_rows_violation_matches_loop_oracle():
    rng = random.Random(8)
    seen = set()
    for _ in range(1000):
        n = rng.randint(1, 12)
        rows = random_latin_rows(n, rng.randint(1, n), rng)
        assert latin_rows_violation(rows) == loop_latin_rows_violation(rows) == (True, "")
        bad = mutated_rows(rows, rng)
        expected = loop_latin_rows_violation(bad)
        assert latin_rows_violation(bad) == expected
        assert check_rows(bad) == FeasibilityReport(*expected)
        if not expected[0]:
            seen.add(expected[1].split()[0])
            with pytest.raises(InfeasibleSolutionError) as err:
                LatinRectangle(bad)
            assert str(err.value) == expected[1]
        # check_rows passes entries through unconverted: unhashable lists and
        # floats equal to the ints get the loops' report too.
        for odd in (tuple(tuple([v] for v in r) for r in rows), tuple(map(list, bad)),
                    tuple(tuple(map(float, r)) for r in bad)):
            expected = loop_latin_rows_violation(odd)
            assert latin_rows_violation(odd) == expected
            assert check_rows(odd) == FeasibilityReport(*expected)
    # Each kind of message occurs: no, rows, more, row, column.
    assert seen == {"no", "rows", "more", "row", "column"}
    assert check_rows([[[1], [2]]]) == FeasibilityReport(False, "row 1 is not a permutation of 1..2")


def test_latin_rows_violation_names_the_first_bad_column():
    rows = ((1, 2, 3, 4), (2, 1, 4, 3), (3, 4, 2, 1))
    bad = (rows[0], rows[1], (3, 2, 1, 4))  # columns 2 and 3 both repeat
    message = "column 2 repeats value 2 in rows 1 and 3"
    assert latin_rows_violation(bad) == loop_latin_rows_violation(bad) == (False, message)
    assert latin_rows_violation(rows) == (True, "")


def test_rectangle_entries_become_ints():
    rect = LatinRectangle(np.array(EXAMPLE_RECT, dtype=np.uint8))
    assert rect.rows == EXAMPLE_RECT
    assert all(type(v) is int for row in rect.rows for v in row)
    mixed = LatinRectangle([[np.int64(1), 2], (np.int32(2), np.uint16(1))])
    assert all(type(v) is int for row in mixed.rows for v in row)


def test_latin_rectangle_is_slotted_frozen_and_copyable():
    for rect in (LatinRectangle(EXAMPLE_RECT), _latin_rectangles(np.array([EXAMPLE_RECT]))[0]):
        assert not hasattr(rect, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            rect.rows = EXAMPLE_RECT
        for twin in (copy.copy(rect), copy.deepcopy(rect), pickle.loads(pickle.dumps(rect))):
            assert type(twin) is LatinRectangle
            assert twin == rect and hash(twin) == hash(rect)
            assert twin.rows == EXAMPLE_RECT


def latin_rows_array(m, n, p, seed, dtype):
    """m feasible p x n rectangles as an (m, p, n) array: the cyclic square
    with its rows, columns and symbols relabeled, cut to p rows."""
    rng = np.random.default_rng(seed)
    square = np.array(cyclic_latin_square(n).rows)
    out = []
    for _ in range(m):
        relabeled = rng.permutation(n)[square - 1] + 1
        out.append(relabeled[rng.permutation(n)][:, rng.permutation(n)][:p])
    return np.array(out, dtype=dtype)


@pytest.mark.parametrize("n, p", [(6, 1), (6, 2), (5, 5)])
def test_latin_rectangles_match_the_constructor(n, p):
    for dtype in (np.uint8, np.int8, np.int64):
        rows = latin_rows_array(30, n, p, seed=n * p, dtype=dtype)
        rects = _latin_rectangles(rows)
        built = [LatinRectangle(rows=r) for r in rows]
        assert rects == built
        assert list(map(hash, rects)) == list(map(hash, built))
        for rect, r in zip(rects, rows.tolist()):
            assert type(rect) is LatinRectangle and type(rect.rows) is tuple
            assert all(type(row) is tuple for row in rect.rows)
            assert all(type(v) is int for row in rect.rows for v in row)
            assert rect.rows == tuple(map(tuple, r))
        # Equal rows share one tuple within the call.
        distinct = {row for rect in rects for row in rect.rows}
        assert len({id(row) for rect in rects for row in rect.rows}) == len(distinct)


@pytest.mark.parametrize("kind", ["row", "column", "zero"])
def test_latin_rectangles_raise_the_constructor_message(kind):
    rows = latin_rows_array(12, 5, 3, seed=3, dtype=np.uint8)
    if kind == "row":  # row 2 of rectangle 7 repeats its first value
        rows[7, 1, 4] = rows[7, 1, 0]
    elif kind == "column":  # rows 1 and 3 of rectangle 7 are the same permutation
        rows[7, 2] = rows[7, 0]
    else:
        rows[7, 0, 2] = 0
    ok, message = latin_rows_violation(tuple(map(tuple, rows[7].tolist())))
    assert not ok and message.startswith("column" if kind == "column" else "row")
    with pytest.raises(InfeasibleSolutionError) as err:
        _latin_rectangles(rows)
    assert str(err.value) == message
