"""Instance generators: random layered Monge families, hardness embeddings,
and the three-layer single-block counterexample.

Random Monge matrices are built as negated 2-d prefix sums of nonnegative
random densities plus row/column constants, which guarantees the Monge
property without rejection sampling.  The embeddings reduce 0-1 P3AP
instances to layered Monge instances with an exactly predictable optimum
shift, and the counterexample is a distribution array whose unique optimum
is a single full-width block.
"""

from __future__ import annotations

import numpy as np

from .core import CostArray, DimensionError
from .monge import build_distribution_array


def random_monge_matrix(n: int, rng: np.random.Generator) -> np.ndarray:
    """Negated prefix sums of a random density plus row/column constants."""
    density = rng.integers(0, 10, size=(n, n))
    base = -density.cumsum(axis=0).cumsum(axis=1)
    u = rng.integers(-20, 21, size=n)
    v = rng.integers(-20, 21, size=n)
    return base + u[:, None] + v[None, :]


def gen_random_layered_monge(n: int, p: int, seed: int) -> CostArray:
    """Stack p independent random Monge layers; deterministic per seed."""
    if not 1 <= p <= n:
        raise DimensionError(f"need 1 <= p <= n, got n={n}, p={p}")
    rng = np.random.default_rng(seed)
    entries = np.stack([random_monge_matrix(n, rng) for _ in range(p)], axis=2)
    return CostArray(entries)


def random_monge_array(n: int, seed: int) -> CostArray:
    """Random n x n x n Monge (distribution) array, for axial-problem tests."""
    rng = np.random.default_rng(seed)
    density = rng.integers(0, 6, size=(n, n, n))
    return build_distribution_array(density)


def random_01_array(n: int, p: int, seed: int) -> CostArray:
    """Uniform random 0-1 cost array."""
    rng = np.random.default_rng(seed)
    return CostArray(rng.integers(0, 2, size=(n, n, p)))


def _quadratic_monge_layer(n: int, nonneg: bool) -> np.ndarray:
    i = np.arange(1, n + 1)
    m = -((i[:, None] + i[None, :]) ** 2)
    if nonneg:
        m = m + 4 * n * n
    return m.astype(np.int64)


def gen_p3ap_embedding(C01: CostArray, nonneg: bool = False):
    """Embed a 0-1 P3AP instance into a layered Monge one; returns (C', offset).

    Every layer of the added array is the quadratic Monge matrix
    m_{ij} = -(i+j)^2 (or its nonnegative variant 4n^2 - (i+j)^2), so every
    feasible solution's cost moves by exactly offset = sum of all m_{ij}.
    """
    n, p = C01.n, C01.p
    if p != n:
        raise DimensionError(f"embedding needs p = n, got n={n}, p={p}")
    if not np.isin(C01.entries, (0, 1)).all():
        raise ValueError("embedding input must be a 0-1 cost array")
    m = _quadratic_monge_layer(n, nonneg)
    entries = C01.entries + m[:, :, None]
    offset = int(m.sum())
    return CostArray(entries), offset


def gen_pp3ap_embedding(C01: CostArray):
    """Embed an n x n x n 0-1 P3AP instance into a 2n x 2n x n p-P3AP.

    The added matrix is [[M, Y], [Y^t, Z]] with m_{ij} = -(i+j)^2,
    y_{ij} = i*n and Z = 0; the original instance sits in the i, j <= n
    block.  Dropping the triples with indices > n from an optimum of the
    embedded instance yields an optimum of the original P3AP.
    """
    n, p = C01.n, C01.p
    if p != n:
        raise DimensionError(f"embedding needs an n x n x n array, got p={p}, n={n}")
    if not np.isin(C01.entries, (0, 1)).all():
        raise ValueError("embedding input must be a 0-1 cost array")
    n2 = 2 * n
    m_big = np.zeros((n2, n2), dtype=np.int64)
    m_big[:n, :n] = _quadratic_monge_layer(n, nonneg=False)
    i = np.arange(1, n + 1)
    m_big[:n, n:] = np.repeat(i[:, None] * n, n, axis=1)  # Y
    m_big[n:, :n] = m_big[:n, n:].T  # Y^t
    expanded = np.zeros((n2, n2, n), dtype=np.int64)
    expanded[:n, :n, :] = C01.entries
    entries = expanded + m_big[:, :, None]
    return CostArray(entries), n


def restrict_dropped(sol_rows, n: int):
    """Drop triples with any index > n and keep the surviving n x n rectangle.

    sol_rows are the rows of a 2n-column rectangle with p = n; the result
    gathers, per layer, the columns j <= n whose value is also <= n.
    """
    rows = []
    for row in sol_rows:
        new_row = [0] * n
        for j, i in enumerate(row[:n], start=1):
            if i <= n:
                new_row[j - 1] = i
        rows.append(tuple(new_row))
    return tuple(rows)


def counterexample_density(a: int = 10):
    """Density of the counterexample: returns a (10, 10, 3) nonnegative array.

    Layer 1 is all ones with a spike 100 at (7, 7); layer 2 is the column
    tier vector (1,1,a,a,a,a^2,a^2,a^3,a^3,a^3) with spikes 10a at (4, 5)
    and 10a^3 at (9, 10); layer 3 is the constant a^a.  The scale a must be
    at least 10.
    """
    return _extended_density(0, a)


def gen_counterexample(a: int = 10) -> CostArray:
    """10x10x3 distribution array from the tiered two-spike density.

    The construction aims at an optimum that is a single width-10 block
    (see COUNTEREXAMPLE_CANDIDATE_ROWS); whether it achieves that is
    checked by the acceptance tests, not assumed here.
    """
    return build_distribution_array(counterexample_density(a))


def _extended_density(extra: int, a: int):
    """Counterexample density stretched by `extra` middle 2-column blocks.

    The column tier vector grows to (1,1, a,a,a, a^2,a^2, ..., a^(2+extra) x2,
    a^(3+extra) x3) and the layer spikes move with the blocks they select;
    each inserted tier pair contributes one more width-2 block to the 2-layer
    sub-solution that the top layer then glues into a single block.
    """
    if a < 10:
        raise ValueError(f"scale a must be at least 10, got {a}")
    if extra < 0:
        raise ValueError("extra_middle_blocks must be nonnegative")
    n = 10 + 2 * extra
    # a >= 10, so a^63 and up are past 2^63 without computing them.
    if 3 + extra >= 63 or a ** (3 + extra) >= 2**63:
        raise OverflowError(f"top tier a^{3 + extra} for a={a} too large for int64 entries")
    if 10 * a ** (3 + extra) >= 2**63:
        raise OverflowError(
            f"layer-2 spike 10*a^{3 + extra} for a={a} too large for int64 entries"
        )
    # Likewise a^a >= 10^a, past 2^62 from a = 19 on.
    if a >= 19 or n * n * a**a >= 2**62:
        raise OverflowError(f"a^a for a={a} too large for 64-bit cost sums")
    tiers = [1, 1, a, a, a]
    for t in range(2, 3 + extra):
        tiers += [a**t, a**t]
    top = a ** (3 + extra)
    tiers += [top, top, top]
    assert len(tiers) == n
    density = np.zeros((n, n, 3), dtype=np.int64)
    density[:, :, 0] = 1
    spike1 = max(100, n * n)
    density[n - 4, n - 4, 0] = spike1
    density[:, :, 1] = np.array(tiers, dtype=np.int64)[None, :]
    density[3, 4, 1] = 10 * a
    density[n - 2, n - 1, 1] = 10 * top
    density[:, :, 2] = a**a
    return density


def gen_counterexample_extended(extra_middle_blocks: int, a: int = 10) -> CostArray:
    """Tiered construction of side 10 + 2*extra with extra middle tier pairs."""
    return build_distribution_array(_extended_density(extra_middle_blocks, a))


# The single-block rectangle the tiered construction is designed to single
# out, in the convention where the entry at (layer k, column j) is the row i.
# Whether it is actually optimal is decided by the solvers in the tests.
COUNTEREXAMPLE_CANDIDATE_ROWS = (
    (3, 4, 1, 2, 6, 5, 8, 10, 7, 9),
    (2, 1, 4, 5, 3, 7, 6, 9, 10, 8),
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
)
