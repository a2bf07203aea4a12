"""solve_dp at p = 2 against an independent block-structure oracle, up to n = 2000.

Criterion 7 asserts the paper's two-layer block structure: some optimum is
made only of normalized blocks of width 2 or 3, a block on columns
j .. j+w-1 holding exactly the integers j .. j+w-1 in both layers.  So the
optimum is a shortest path over the cut points between blocks,
f[j] = min(f[j-2] + best2, f[j-3] + best3), where a width-2 block has 2
choices and a width-3 block has 12.
"""

import itertools

import numpy as np
import pytest

from p3ap import CostArray, cost, solve_bruteforce, solve_dp
from p3ap.instances import gen_random_layered_monge
from p3ap.monge import DecompositionTerms, apply_decomposable_shift, build_distribution_array


def block_choices(w: int) -> list:
    """The normalized blocks of width w: (layer 1, layer 2) integer offsets
    per column, the two layers never equal in a column."""
    perms = list(itertools.permutations(range(w)))
    return [(a, b) for a in perms for b in perms if all(x != y for x, y in zip(a, b))]


def block_oracle(C: CostArray) -> int:
    """The least cost of a rectangle made of normalized width-2 and width-3
    blocks, by a shortest path over the cut points."""
    n, e = C.n, C.entries
    best = {}
    for w in (2, 3):
        cols = np.arange(max(0, n - w + 1))
        best[w] = np.min(
            [sum(e[cols + a[c], cols + c, 0] + e[cols + b[c], cols + c, 1] for c in range(w))
             for a, b in block_choices(w)],
            axis=0,
        ).tolist()
    f = [0, None]  # no rectangle of width 1 is made of such blocks
    for j in range(2, n + 1):
        f.append(min(f[j - w] + best[w][j - w] for w in (2, 3)
                     if j >= w and f[j - w] is not None))
    return f[n]


def shifted(C: CostArray, seed: int) -> CostArray:
    """C plus a seeded decomposable shift, which moves every solution's cost
    by the same constant."""
    rng = np.random.default_rng(seed)
    n = C.n
    terms = DecompositionTerms(
        A=np.zeros((n, n), dtype=np.int64),
        B=rng.integers(-50, 51, size=(n, 2)),
        D=rng.integers(-50, 51, size=(n, 2)),
    )
    return apply_decomposable_shift(C, terms)[0]


FAMILIES = {
    "random": lambda n, seed: gen_random_layered_monge(n, 2, seed=seed),
    # Every rectangle ties: each costs the shift's constant.
    "shifted-zeros": lambda n, seed: shifted(CostArray(np.zeros((n, n, 2), dtype=np.int64)), seed),
    "constant-density": lambda n, seed: shifted(
        build_distribution_array(np.full((n, n, 2), 1 + seed % 5, dtype=np.int64)), seed),
}

SIZES = [(n, seed) for n in range(2, 40) for seed in range(3)]
SIZES += [(n, seed) for n in (100, 500, 1000, 2000) for seed in range(2)]


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_block_oracle_matches_bruteforce(family):
    # The oracle rests on the block theorem; up to n = 6 every rectangle is
    # enumerated.
    for n in range(2, 7):
        for seed in range(2):
            C = FAMILIES[family](n, 2000 * n + seed)
            assert block_oracle(C) == solve_bruteforce(C).optimum, (n, seed)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_dp_matches_block_oracle(family):
    make = FAMILIES[family]
    mismatches = []
    for n, seed in SIZES:
        C = make(n, 2000 * n + seed)
        want = block_oracle(C)
        report = solve_dp(C)
        got = (report.optimum, cost(C, report.solution))
        if got != (want, want):
            mismatches.append((n, seed, got, want))
    assert len(SIZES) >= 100
    assert not mismatches, mismatches
