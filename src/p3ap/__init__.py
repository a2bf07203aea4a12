"""Exact solvers and structural tools for planar 3-dimensional assignment
problems with Monge-like cost arrays."""

from .core import (
    CostArray,
    FeasibilityReport,
    LatinRectangle,
    PartialLatinSquare,
    check_rows,
    cost,
    to_latin_rectangle,
    to_partial_latin_square,
)
from .monge import (
    DecompositionTerms,
    apply_decomposable_shift,
    build_distribution_array,
    is_layered_monge,
    is_monge_array,
    is_monge_matrix,
    make_triply_graded,
)
from .solvers import SolveReport, solve_auto, solve_bruteforce, solve_dp
from .structure import (
    BlockPartition,
    band_normalize,
    bandwidth,
    block_decompose,
    swap,
)
from .instances import (
    gen_counterexample,
    gen_counterexample_extended,
    gen_p3ap_embedding,
    gen_pp3ap_embedding,
    gen_random_layered_monge,
)

__all__ = [
    "CostArray",
    "FeasibilityReport",
    "LatinRectangle",
    "PartialLatinSquare",
    "check_rows",
    "cost",
    "to_latin_rectangle",
    "to_partial_latin_square",
    "DecompositionTerms",
    "apply_decomposable_shift",
    "build_distribution_array",
    "is_layered_monge",
    "is_monge_array",
    "is_monge_matrix",
    "make_triply_graded",
    "SolveReport",
    "solve_auto",
    "solve_bruteforce",
    "solve_dp",
    "BlockPartition",
    "band_normalize",
    "bandwidth",
    "block_decompose",
    "swap",
    "gen_counterexample",
    "gen_counterexample_extended",
    "gen_p3ap_embedding",
    "gen_pp3ap_embedding",
    "gen_random_layered_monge",
]

__version__ = "0.1.0"
