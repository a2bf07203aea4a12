"""Monge predicates, distribution arrays, and cost-equivalence transforms.

A square matrix M is Monge when m_{ij} + m_{kl} <= m_{il} + m_{kj} for all
i < k, j < l; checking every adjacent 2x2 submatrix suffices.  A 3-d array is
Monge when every 2-d subarray obtained by fixing one index is a Monge matrix,
and layered Monge when only the k-planes are required to be Monge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import CostArray, DimensionError, _int64_entries


class NotLayeredMongeError(ValueError):
    """An operation that is exact only on layered Monge costs got other costs."""


def is_monge_matrix(M) -> bool:
    """Adjacent 2x2 criterion: M[i,j] + M[i+1,j+1] <= M[i,j+1] + M[i+1,j]."""
    M = np.asarray(M, dtype=np.int64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {M.shape}")
    return _adjacent_monge(M)


def _adjacent_monge(a) -> bool:
    """The adjacent criterion on every plane a[:, :, ...] at once, written as
    a[i+1, j+1] - a[i+1, j] <= a[i, j+1] - a[i, j].

    It runs 16 rows at a time: the temporaries stay in cache, so the check
    keeps pace with the linear-time DP it guards.
    """
    for r in range(0, a.shape[0] - 1, 16):
        h = np.diff(a[r : r + 17], axis=1)
        if (h[1:] > h[:-1]).any():
            return False
    return True


def is_layered_monge(C: CostArray) -> bool:
    """True iff every k-plane of C is a Monge matrix."""
    return _adjacent_monge(C.entries)


def is_monge_array(C: CostArray) -> bool:
    """True iff every 2-d subarray with one index fixed is a Monge matrix.

    Implies is_layered_monge.  The two extra plane families may be
    rectangular (n x p); the adjacent 2x2 criterion applies unchanged.
    """
    a = C.entries
    return all(_adjacent_monge(np.moveaxis(a, axis, -1)) for axis in range(3))


def build_distribution_array(density) -> CostArray:
    """Negated triple prefix sums of a nonnegative density; always Monge.

    Density entries must be integers within int64, as cost entries must."""
    d = _int64_entries(density, "density")
    if d.ndim != 3:
        raise DimensionError(f"density must be 3-dimensional, got shape {d.shape}")
    if d.min() < 0:
        raise ValueError("density entries must be nonnegative")
    total = int(d.sum(dtype=object))
    if total >= 2**63:
        raise OverflowError(
            f"cumulative density sum {total} exceeds signed 64-bit range"
        )
    c = -d.cumsum(axis=0).cumsum(axis=1).cumsum(axis=2)
    return CostArray(c)


@dataclass(frozen=True)
class DecompositionTerms:
    """Additive terms a_{ij} + b_{ik} + d_{jk} of a sum-decomposable shift.

    Each term becomes an int64 array; entries that the conversion would
    change are refused, as cost entries are."""

    A: np.ndarray  # n x n
    B: np.ndarray  # n x p
    D: np.ndarray  # n x p

    def __post_init__(self):
        for name in ("A", "B", "D"):
            object.__setattr__(self, name, _int64_entries(getattr(self, name), name))

    @classmethod
    def zeros(cls, n: int, p: int) -> "DecompositionTerms":
        return cls(np.zeros((n, n), int), np.zeros((n, p), int), np.zeros((n, p), int))


def apply_decomposable_shift(C: CostArray, terms: DecompositionTerms):
    """Add a_{ij} + b_{ik} + d_{jk} to every cost; returns (C', constant).

    Every feasible solution's cost moves by the same constant: alpha for the
    full P3AP (p = n), beta for p < n, where the A term is disallowed.
    """
    n, p = C.n, C.p
    A, B, D = terms.A, terms.B, terms.D
    if A.shape != (n, n) or B.shape != (n, p) or D.shape != (n, p):
        raise DimensionError(
            f"terms must be A:{(n, n)}, B:{(n, p)}, D:{(n, p)}; "
            f"got {A.shape}, {B.shape}, {D.shape}"
        )
    if p < n and np.any(A):
        raise ValueError("A-term valid only for p = n")
    shifted = _exact_sum(C.entries, A[:, :, None], B[:, None, :], D[None, :, :])
    constant = sum(int(x.sum(dtype=object)) for x in ((A, B, D) if p == n else (B, D)))
    return shifted, constant


def make_triply_graded(C: CostArray, m: int = None) -> CostArray:
    """Add (i + j + k) * m to every cost so all lines become nondecreasing.

    m defaults to the entry spread max - min; any m at least the spread keeps
    the solution ranking unchanged (the added term is sum-decomposable).
    """
    spread = int(C.entries.max()) - int(C.entries.min())
    if m is None:
        m = spread
    elif m < spread:
        raise ValueError(f"m={m} below entry spread {spread}")
    grade = np.indices(C.entries.shape).sum(axis=0) + 3  # i + j + k, 1-based
    if int(grade.max()) * m >= 2**63:  # the largest grade leaves int64
        grade = grade.astype(object)
    return _exact_sum(C.entries, grade * m)


def _exact_sum(*parts) -> CostArray:
    """The CostArray of the broadcast sum of parts, taken in Python ints where
    int64 could wrap, so that an entry past int64 raises CostRangeError."""
    if sum(max(int(x.max()), -int(x.min())) for x in parts) >= 2**63:
        parts = [x.astype(object) for x in parts]
    return CostArray(sum(parts))


def is_triply_graded(C: CostArray, strict: bool = False) -> bool:
    """Monotone (nondecreasing, or increasing when strict) along all lines."""
    a = C.entries
    for axis in range(3):
        if a.shape[axis] < 2:
            continue
        d = np.diff(a, axis=axis)
        if strict:
            if d.min() <= 0:
                return False
        elif d.min() < 0:
            return False
    return True
