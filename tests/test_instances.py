"""Instance generators: Monge conformance, embeddings, and the tiered
three-layer construction."""

import numpy as np
import pytest

from p3ap import CostArray, cost, solve_bruteforce
from p3ap.core import DimensionError, LatinRectangle
from p3ap.instances import (
    COUNTEREXAMPLE_CANDIDATE_ROWS,
    counterexample_density,
    gen_counterexample,
    gen_counterexample_extended,
    gen_p3ap_embedding,
    gen_pp3ap_embedding,
    gen_random_layered_monge,
    random_01_array,
    random_monge_array,
    restrict_dropped,
)
from p3ap.monge import is_layered_monge, is_monge_array


def test_generators_deterministic():
    for gen, args in (
        (gen_random_layered_monge, (5, 2, 7)),
        (random_monge_array, (4, 7)),
        (random_01_array, (4, 4, 7)),
    ):
        a, b = gen(*args), gen(*args)
        assert np.array_equal(a.entries, b.entries)


def test_generators_conform_to_predicates():
    for seed in range(20):
        assert is_layered_monge(gen_random_layered_monge(6, 3, seed))
        assert is_monge_array(random_monge_array(4, seed))
        e = random_01_array(5, 3, seed).entries
        assert np.isin(e, (0, 1)).all()


def test_layered_monge_dimension_check():
    with pytest.raises(DimensionError):
        gen_random_layered_monge(3, 4, seed=0)


def test_counterexample_params():
    with pytest.raises(ValueError):
        counterexample_density(a=9)


def test_counterexample_density_values():
    d = counterexample_density()
    assert d.shape == (10, 10, 3)
    assert (d >= 0).all()
    assert d[6, 6, 0] == 100
    assert d[3, 4, 1] == 10 * 10
    assert d[8, 9, 1] == 10 * 10**3
    assert (d[:, :, 2] == 10**10).all()
    # layer-1 density: 99 ones plus the spike of 100
    assert int(d[:, :, 0].sum()) == 199


def test_counterexample_array_values():
    C = gen_counterexample()
    assert (C.n, C.p) == (10, 3)
    assert C.at(1, 1, 1) == -1  # minus the single density cell under (1,1,1)
    assert C.at(10, 10, 1) == -199
    assert is_monge_array(C)
    sol = LatinRectangle(COUNTEREXAMPLE_CANDIDATE_ROWS)
    assert sol.triples()  # candidate rows form a feasible rectangle


def test_counterexample_overflow_guard():
    with pytest.raises(OverflowError):
        counterexample_density(a=15)
    with pytest.raises(OverflowError):
        gen_counterexample_extended(1, a=15)


def test_counterexample_extended_shapes():
    assert gen_counterexample_extended(0).n == 10
    C12 = gen_counterexample_extended(1)
    assert (C12.n, C12.p) == (12, 3)
    assert is_monge_array(C12)
    with pytest.raises(ValueError):
        gen_counterexample_extended(-1)


def test_p3ap_embedding_shifts_every_cost_equally():
    for seed in range(10):
        for n in (2, 3):
            C01 = random_01_array(n, n, seed)
            for nonneg in (False, True):
                Cm, offset = gen_p3ap_embedding(C01, nonneg=nonneg)
                assert is_layered_monge(Cm)
                if nonneg:
                    assert (Cm.entries >= 0).all()
                r0 = solve_bruteforce(C01, all_optima=True)
                r1 = solve_bruteforce(Cm, all_optima=True)
                assert r1.optimum == r0.optimum + offset
                assert {s.rows for s in r1.all_optima} == {
                    s.rows for s in r0.all_optima
                }


def test_p3ap_embedding_input_validation():
    with pytest.raises(DimensionError):
        gen_p3ap_embedding(random_01_array(3, 2, 0))
    bad = CostArray(np.full((2, 2, 2), 3, dtype=np.int64))
    with pytest.raises(ValueError):
        gen_p3ap_embedding(bad)


def test_pp3ap_embedding_round_trip():
    for seed in range(8):
        C01 = random_01_array(2, 2, seed)
        Cbig, n = gen_pp3ap_embedding(C01)
        assert (Cbig.n, Cbig.p, n) == (4, 2, 2)
        rbig = solve_bruteforce(Cbig)
        r0 = solve_bruteforce(C01)
        dropped = restrict_dropped(rbig.solution.rows, n)
        recovered = LatinRectangle(dropped)
        assert cost(C01, recovered) == r0.optimum


def test_restrict_dropped_keeps_small_triples():
    rows = ((1, 3, 2, 4), (3, 1, 4, 2))
    assert restrict_dropped(rows, 2) == ((1, 0), (0, 1))


def side10_counterexample_density(a: int):
    """The side-10 density as its own builder wrote it, before every side
    went through one builder; kept as the oracle of that builder at side 10."""
    n = 10
    density = np.zeros((n, n, 3), dtype=np.int64)
    density[:, :, 0] = 1
    density[6, 6, 0] = 100
    tiers = (1, 1, a, a, a, a * a, a * a, a**3, a**3, a**3)
    density[:, :, 1] = np.array(tiers)[None, :]
    density[3, 4, 1] = 10 * a
    density[8, 9, 1] = 10 * a**3
    if n * n * a**a >= 2**62:
        raise OverflowError(f"a^a for a={a} too large for 64-bit cost sums")
    density[:, :, 2] = a**a
    return density


# a = 10 to 14 build; from 15 on a^a overflows, and at 10^6 the oracle's
# numpy assignment of the layer-2 spike 10 * a^3 does too.
@pytest.mark.parametrize("a", [10, 11, 12, 13, 14, 15, 100, 10**6])
def test_counterexample_density_matches_side10_oracle(a):
    try:
        want = side10_counterexample_density(a)
    except OverflowError:
        with pytest.raises(OverflowError):
            counterexample_density(a)
        return
    got = counterexample_density(a)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # At a = 14 both refuse the cost range of the summed array.
    try:
        side10 = gen_counterexample(a)
    except ValueError as e:
        with pytest.raises(type(e)):
            gen_counterexample_extended(0, a)
    else:
        assert gen_counterexample_extended(0, a) == side10
