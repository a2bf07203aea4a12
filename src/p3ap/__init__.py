"""Exact solvers and structural tools for planar 3-dimensional assignment
problems with Monge-like cost arrays.

The public names load their module on first access (PEP 562), so that
`import p3ap`, and each CLI command, loads only the modules it uses.
"""

import importlib

# Each public name and the module that defines it.
_MODULE_OF = {
    "CostArray": "core",
    "FeasibilityReport": "core",
    "LatinRectangle": "core",
    "PartialLatinSquare": "core",
    "check_rows": "core",
    "cost": "core",
    "to_latin_rectangle": "core",
    "to_partial_latin_square": "core",
    "DecompositionTerms": "monge",
    "apply_decomposable_shift": "monge",
    "build_distribution_array": "monge",
    "is_layered_monge": "monge",
    "is_monge_array": "monge",
    "is_monge_matrix": "monge",
    "make_triply_graded": "monge",
    "SolveReport": "solvers",
    "solve_auto": "solvers",
    "solve_bruteforce": "solvers",
    "solve_dp": "solvers",
    "BlockPartition": "structure",
    "band_normalize": "structure",
    "bandwidth": "structure",
    "block_decompose": "structure",
    "swap": "structure",
    "gen_counterexample": "instances",
    "gen_counterexample_extended": "instances",
    "gen_p3ap_embedding": "instances",
    "gen_pp3ap_embedding": "instances",
    "gen_random_layered_monge": "instances",
}

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
