"""Monge predicates, distribution arrays, and cost-equivalence transforms."""

import itertools

import numpy as np
import pytest

from p3ap import (
    CostArray,
    DecompositionTerms,
    LatinRectangle,
    apply_decomposable_shift,
    build_distribution_array,
    cost,
    is_layered_monge,
    is_monge_array,
    is_monge_matrix,
    make_triply_graded,
)
from p3ap.core import CostRangeError
from p3ap.instances import gen_random_layered_monge
from p3ap.monge import is_triply_graded
from p3ap.solvers import solve_bruteforce

from test_core import random_rectangle
import random


def is_monge_matrix_by_definition(M) -> bool:
    """Quadruple-level check, the independent oracle of the adjacent criterion."""
    M = np.asarray(M, dtype=np.int64)
    n = M.shape[0]
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                for l in range(j + 1, n):
                    if M[i, j] + M[k, l] > M[i, l] + M[k, j]:
                        return False
    return True


def quadratic_monge(n):
    i = np.arange(1, n + 1)
    return -((i[:, None] + i[None, :]) ** 2)


def test_monge_matrix_basics():
    assert is_monge_matrix(np.zeros((3, 3), dtype=np.int64))
    assert is_monge_matrix(quadratic_monge(4))
    assert not is_monge_matrix(np.eye(2, dtype=np.int64))


def test_monge_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        is_monge_matrix(np.zeros((2, 3), dtype=np.int64))


def test_adjacent_criterion_matches_definition():
    rng = np.random.default_rng(2)
    agree = 0
    for _ in range(300):
        M = rng.integers(-6, 6, size=(6, 6))
        assert is_monge_matrix(M) == is_monge_matrix_by_definition(M)
        agree += 1
    assert agree == 300


def test_layered_monge():
    layers = np.stack([quadratic_monge(4)] * 3, axis=2)
    assert is_layered_monge(CostArray(layers))
    assert is_layered_monge(CostArray(np.zeros((2, 2, 2), dtype=np.int64)))
    bad = np.zeros((2, 2, 2), dtype=np.int64)
    bad[:, :, 1] = np.eye(2)
    assert not is_layered_monge(CostArray(bad))


def test_monge_array_stronger_than_layered():
    # Layered Monge but with a violating (j, k)-plane.
    entries = np.zeros((2, 2, 2), dtype=np.int64)
    entries[1, 1, 0] = -1  # layer 1 Monge, layer 2 zero
    C = CostArray(entries)
    assert is_layered_monge(C)
    assert not is_monge_array(C)


def monge_array_by_definition(a):
    """Every plane with one index fixed is Monge, checked quadruple by quadruple
    (the planes with k free are n x p)."""
    for axis in range(3):
        for idx in range(a.shape[axis]):
            M = np.take(a, idx, axis=axis)
            rows, cols = M.shape
            for i, k in itertools.combinations(range(rows), 2):
                for j, l in itertools.combinations(range(cols), 2):
                    if M[i, j] + M[k, l] > M[i, l] + M[k, j]:
                        return False
    return True


def test_monge_array_on_small_search():
    # Exhaustive 2x2x2 0/-1 arrays: is_monge_array must equal the
    # fix-one-index definition in every case.
    for bits in itertools.product((0, -1), repeat=8):
        a = np.array(bits, dtype=np.int64).reshape(2, 2, 2)
        assert is_monge_array(CostArray(a)) == monge_array_by_definition(a)


def test_monge_array_matches_definition_on_random_arrays():
    # Rectangular (n x p) planes included: Monge, layered Monge and
    # unstructured arrays up to n = 6.
    rng = np.random.default_rng(4)
    verdicts = set()
    for trial in range(120):
        n = int(rng.integers(1, 7))
        p = int(rng.integers(1, n + 1))
        kind = trial % 3
        if kind == 0:
            C = build_distribution_array(rng.integers(0, 3, size=(n, n, p)))
        elif kind == 1:
            C = gen_random_layered_monge(n, p, int(rng.integers(1000)))
        else:
            C = CostArray(rng.integers(-3, 3, size=(n, n, p)))
        verdict = is_monge_array(C)
        assert verdict == monge_array_by_definition(C.entries)
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_distribution_array_all_ones():
    C = build_distribution_array(np.ones((2, 2, 2), dtype=np.int64))
    for i, j, k in itertools.product((1, 2), repeat=3):
        assert C.at(i, j, k) == -(i * j * k)
    assert C.at(2, 2, 2) == -8


def test_distribution_arrays_are_monge():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        p = int(rng.integers(1, n + 1))
        d = rng.integers(0, 9, size=(n, n, p))
        assert is_monge_array(build_distribution_array(d))


def test_distribution_rejects_negative_density():
    d = np.zeros((2, 2, 1), dtype=np.int64)
    d[0, 0, 0] = -1
    with pytest.raises(ValueError):
        build_distribution_array(d)


# Entries that conversion to int64 would change, as CostArray refuses them.
INEXACT = [0.5, np.nan, np.inf, 2.0**63, "1", 1 + 0j, np.uint64(2**64 - 1)]


@pytest.mark.parametrize("bad", INEXACT, ids=repr)
def test_distribution_rejects_inexact_density(bad):
    with pytest.raises(ValueError, match="density entries must be integers within int64"):
        build_distribution_array(np.full((2, 2, 1), bad))


def test_distribution_converts_only_exact_density():
    # Integral floats convert exactly and are kept; a Python int past int64 is
    # refused as out of range.
    ints = build_distribution_array(np.full((2, 2, 1), 2, dtype=np.int64))
    assert build_distribution_array(np.full((2, 2, 1), 2.0)) == ints
    with pytest.raises(CostRangeError, match="density entries overflow int64"):
        build_distribution_array(np.full((2, 2, 1), 2**64, dtype=object))


@pytest.mark.parametrize("name", ["A", "B", "D"])
def test_decomposition_terms_reject_inexact_entries(name):
    exact = {k: np.zeros((2, 2)) for k in "ABD"}
    terms = DecompositionTerms(**exact)
    assert all(getattr(terms, k).dtype == np.int64 for k in "ABD")
    for bad in INEXACT:
        with pytest.raises(ValueError, match=f"{name} entries must be integers within int64"):
            DecompositionTerms(**{**exact, name: np.full((2, 2), bad)})


def test_shift_all_zero_terms():
    C = CostArray(np.arange(8).reshape(2, 2, 2))
    shifted, const = apply_decomposable_shift(C, DecompositionTerms.zeros(2, 2))
    assert shifted == C and const == 0


def test_shift_full_p_equals_n():
    C = CostArray(np.zeros((2, 2, 2), dtype=np.int64))
    A = np.array([[1, 2], [3, 4]])
    terms = DecompositionTerms(A=A, B=np.zeros((2, 2)), D=np.zeros((2, 2)))
    shifted, alpha = apply_decomposable_shift(C, terms)
    assert alpha == 10
    for rows in (((1, 2), (2, 1)), ((2, 1), (1, 2))):
        sol = LatinRectangle(rows)
        assert cost(shifted, sol) - cost(C, sol) == alpha


def test_shift_p_less_than_n():
    C = CostArray(np.zeros((3, 3, 2), dtype=np.int64))
    terms = DecompositionTerms(
        A=np.zeros((3, 3)), B=np.ones((3, 2)), D=np.zeros((3, 2))
    )
    shifted, beta = apply_decomposable_shift(C, terms)
    assert beta == 6


def test_shift_rejects_a_term_for_p_less_than_n():
    C = CostArray(np.zeros((3, 3, 2), dtype=np.int64))
    terms = DecompositionTerms(
        A=np.ones((3, 3)), B=np.zeros((3, 2)), D=np.zeros((3, 2))
    )
    with pytest.raises(ValueError, match="p = n"):
        apply_decomposable_shift(C, terms)


def test_shift_invariance_random():
    rng = np.random.default_rng(4)
    pyrng = random.Random(4)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        p = n if rng.integers(2) else int(rng.integers(1, n))
        C = CostArray(rng.integers(-20, 20, size=(n, n, p)))
        terms = DecompositionTerms(
            A=rng.integers(-5, 5, size=(n, n)) if p == n else np.zeros((n, n)),
            B=rng.integers(-5, 5, size=(n, p)),
            D=rng.integers(-5, 5, size=(n, p)),
        )
        shifted, const = apply_decomposable_shift(C, terms)
        for _ in range(3):
            sol = random_rectangle(n, p, pyrng)
            assert cost(shifted, sol) - cost(C, sol) == const


def test_shift_refuses_sums_past_int64_and_keeps_exact_cancellation():
    # In int64 these entries wrapped to -2 and the constant to -8.
    C = CostArray(np.zeros((2, 2, 2), dtype=np.int64))
    top = np.full((2, 2), 2**63 - 1)
    terms = DecompositionTerms(A=np.zeros((2, 2)), B=top, D=top)
    with pytest.raises(CostRangeError):
        apply_decomposable_shift(C, terms)
    # Terms past int64 in their sums that cancel exactly still shift.
    terms = DecompositionTerms(A=top, B=-top, D=np.ones((2, 2)))
    shifted, alpha = apply_decomposable_shift(C, terms)
    assert shifted == CostArray(np.ones((2, 2, 2), dtype=np.int64)) and alpha == 4
    # The constant sums in Python ints: moving every entry from -cap to cap
    # moves a solution's cost by 8 * cap, which no int64 holds.
    cap = (2**63 - 1) // 4
    C = CostArray(np.full((2, 2, 2), -cap))
    terms = DecompositionTerms(A=np.full((2, 2), 2 * cap), B=np.zeros((2, 2)), D=np.zeros((2, 2)))
    shifted, alpha = apply_decomposable_shift(C, terms)
    assert shifted == CostArray(np.full((2, 2, 2), cap)) and alpha == 8 * cap


@pytest.mark.parametrize("m", [(2**64 + 2) // 3, 2**63, 2**70])
def test_triply_graded_refuses_grades_past_int64(m):
    # m = (2^64 + 2) // 3 once gave the entry (1 + 1 + 1) * m = 2^64 + 2 as 2.
    with pytest.raises(CostRangeError):
        make_triply_graded(CostArray(np.zeros((1, 1, 1), dtype=np.int64)), m=m)


def test_triply_graded_constant_array():
    C = CostArray(np.full((2, 2, 1), 7, dtype=np.int64))
    G = make_triply_graded(C)
    assert G == C  # spread 0 leaves the array unchanged
    assert is_triply_graded(G)


def test_triply_graded_zero_one_array():
    rng = np.random.default_rng(6)
    C = CostArray(rng.integers(0, 2, size=(3, 3, 2)))
    G = make_triply_graded(C, m=2)  # spread + 1
    assert is_triply_graded(G, strict=True)


def test_triply_graded_rejects_small_m():
    C = CostArray(np.array([[[0], [5]], [[5], [0]]]))
    with pytest.raises(ValueError):
        make_triply_graded(C, m=4)


def test_triply_graded_preserves_argmin():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        p = int(rng.integers(1, min(n, 3) + 1))
        C = CostArray(rng.integers(-9, 9, size=(n, n, p)))
        G = make_triply_graded(C)
        a = solve_bruteforce(C, all_optima=True)
        b = solve_bruteforce(G, all_optima=True)
        assert set(a.all_optima) == set(b.all_optima)
