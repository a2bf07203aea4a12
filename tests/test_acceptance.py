"""Acceptance gate: one test per advertised guarantee of the package.

Each test function is one criterion, so `pytest -v` prints one pass/fail
line per criterion.  Criteria 2 and 8 assert the single-block claim for the
tiered three-layer construction exactly as advertised; if the construction
does not deliver it, they fail with the measured optimum in the message.
"""

import itertools
import random
import statistics
import time

import numpy as np
import pytest

from p3ap import (
    CostArray,
    LatinRectangle,
    band_normalize,
    bandwidth,
    block_decompose,
    cost,
    solve_bruteforce,
    solve_dp,
)
from p3ap.instances import (
    COUNTEREXAMPLE_CANDIDATE_ROWS,
    gen_counterexample,
    gen_counterexample_extended,
    gen_p3ap_embedding,
    gen_pp3ap_embedding,
    gen_random_layered_monge,
    random_01_array,
    random_monge_array,
    random_monge_matrix,
    restrict_dropped,
)
from p3ap.monge import DecompositionTerms, apply_decomposable_shift

from test_core import random_rectangle


def _suite_sizes():
    """(n, p, count) mix: >= 200 instances, brute-feasible in budget."""
    sizes = []
    for n in range(2, 6):
        for p in range(1, min(3, n) + 1):
            sizes.append((n, p, 16))
    sizes.append((6, 1, 16))
    sizes.append((6, 2, 12))
    sizes.append((6, 3, 2))
    return sizes


@pytest.fixture(scope="module")
def oracle_suite():
    """Solve the shared random suite with both solvers once."""
    results = []
    seed = 0
    for n, p, count in _suite_sizes():
        for _ in range(count):
            C = gen_random_layered_monge(n, p, seed)
            seed += 1
            results.append((C, solve_dp(C), solve_bruteforce(C)))
    return results


def test_criterion_1_oracle_equivalence(oracle_suite):
    assert len(oracle_suite) >= 200
    for C, dp, brute in oracle_suite:
        assert dp.optimum == brute.optimum, (
            f"solver disagreement at n={C.n}, p={C.p}: "
            f"dp {dp.optimum} vs brute {brute.optimum}"
        )


def test_criterion_2_counterexample_unique_optimum():
    C = gen_counterexample()
    report = solve_dp(C, all_optima_in_band=True)
    candidate = LatinRectangle(COUNTEREXAMPLE_CANDIDATE_ROWS)
    candidate_cost = cost(C, candidate)
    assert report.optima_count == 1 and report.unique_in_band, (
        f"expected a unique in-band optimum, found {report.optima_count}"
    )
    assert report.solution.rows == candidate.rows, (
        "the advertised single-block rectangle is not the optimum: "
        f"solver found {report.solution.rows} at cost {report.optimum}, "
        f"candidate costs {candidate_cost} (gap {candidate_cost - report.optimum})"
    )


def test_criterion_3_band_property(oracle_suite):
    for C, dp, brute in oracle_suite:
        band = 2 * C.p - 2
        assert bandwidth(dp.solution) <= band, (
            f"DP output leaves the band at n={C.n}, p={C.p}"
        )
        normalized = band_normalize(brute.solution, C)
        assert cost(C, normalized) == brute.optimum
        assert bandwidth(normalized) <= band, (
            f"band_normalize left the band at n={C.n}, p={C.p}"
        )


def test_criterion_4_shift_equivalences():
    rng = np.random.default_rng(404)
    pyrng = random.Random(404)
    for regime in ("p_equals_n", "p_below_n"):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            p = n if regime == "p_equals_n" else int(rng.integers(1, n))
            C = CostArray(rng.integers(-50, 50, size=(n, n, p)))
            A = (
                rng.integers(-9, 10, size=(n, n))
                if regime == "p_equals_n"
                else np.zeros((n, n), dtype=np.int64)
            )
            terms = DecompositionTerms(
                A=A,
                B=rng.integers(-9, 10, size=(n, p)),
                D=rng.integers(-9, 10, size=(n, p)),
            )
            shifted, constant = apply_decomposable_shift(C, terms)
            sol = random_rectangle(n, p, pyrng)
            assert cost(shifted, sol) - cost(C, sol) == constant


def test_criterion_5_embedding_round_trips():
    cases = [CostArray(np.zeros((n, n, n), dtype=np.int64)) for n in (2, 3)]
    cases += [random_01_array(n, n, seed) for n in (2, 3) for seed in range(10)]
    assert len(cases) >= 22
    for C01 in cases:
        embedded, offset = gen_p3ap_embedding(C01)
        assert (
            solve_bruteforce(embedded).optimum
            == solve_bruteforce(C01).optimum + offset
        )
    for C01 in cases:
        if C01.n != 2:
            continue
        big, p = gen_pp3ap_embedding(C01)
        rbig = solve_bruteforce(big)
        recovered = LatinRectangle(restrict_dropped(rbig.solution.rows, p))
        assert cost(C01, recovered) == solve_bruteforce(C01).optimum


def test_criterion_6_identity_optimality():
    rng = np.random.default_rng(606)
    for trial in range(50):
        n = int(rng.integers(2, 7))
        M = random_monge_matrix(n, rng)
        identity_cost = int(M.trace())
        best = min(
            sum(int(M[i, pi[i]]) for i in range(n))
            for pi in itertools.permutations(range(n))
        )
        assert identity_cost == best, f"LAP identity suboptimal at trial {trial}"
    for trial in range(20):
        n = 2 + trial % 4  # n in 2..5
        a = random_monge_array(n, seed=1000 + trial).entries
        diagonal = sum(int(a[i, i, i]) for i in range(n))
        best = min(
            sum(int(a[i, phi[i], psi[i]]) for i in range(n))
            for phi in itertools.permutations(range(n))
            for psi in itertools.permutations(range(n))
        )
        assert diagonal == best, f"A3AP identity pair suboptimal at trial {trial}"


def test_criterion_7_two_layer_block_structure():
    falsifications = []
    count = 0
    for seed in range(210):
        n = 2 + seed % 6  # n in 2..7
        C = gen_random_layered_monge(n, 2, seed=7000 + seed)
        report = solve_dp(C, all_optima_in_band=True)
        count += 1
        if not any(
            block_decompose(sol).all_normalized_width_2_or_3()
            for sol in report.all_optima
        ):
            falsifications.append(
                (n, 7000 + seed, [block_decompose(s).widths for s in report.all_optima])
            )
    assert count >= 200
    assert not falsifications, (
        "optima without an all-normalized width-2/3 decomposition "
        f"(falsifying instances): {falsifications}"
    )


def test_criterion_8_single_block_phenomenon():
    observed = {}
    for extra, side in ((0, 10), (1, 12), (2, 14)):
        C = gen_counterexample_extended(extra)
        report = solve_dp(C)
        observed[side] = block_decompose(report.solution).widths
    assert all(observed[side] == (side,) for side in (10, 12, 14)), (
        "optimum is not a single full-width block: observed widths "
        f"{observed} for sides 10/12/14"
    )


def test_criterion_9_linear_scaling():
    def run(n):
        C = gen_random_layered_monge(n, 2, seed=9000 + n)
        times, counts = [], None
        for _ in range(5):
            start = time.perf_counter()
            report = solve_dp(C)
            times.append(time.perf_counter() - start)
            counts = report.state_counts
        return statistics.median(times), counts

    t1000, c1000 = run(1000)
    t2000, c2000 = run(2000)
    ratio = t2000 / t1000
    assert ratio <= 2.5, f"scaling ratio {ratio:.2f} exceeds 2.5"
    interior1 = set(c1000[2:-2])
    interior2 = set(c2000[2:-2])
    assert interior1 == interior2, (
        f"interior state counts differ: {interior1} vs {interior2}"
    )
