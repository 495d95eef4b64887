"""Solvers for color-balanced independent and dominating sets on interval graphs."""

from .bds import DominationIndex, solve_fbds_brute
from .cnf import CnfFormula, is_three_bounded, is_tptn, parse_dimacs, serialize_dimacs
from .fbis_dp import max_colors, max_f_with_witness, solve_fbis_dp
from .fbis_vc import (
    VertexCoverDecomposition,
    enumerate_swap_candidates,
    minimum_vertex_cover,
    solve_fbis_vc,
)
from .gen import GenSpec, generate, random_three_bounded, random_tptn_uniform3
from .mcis import LocalSearchConfig, greedy_mcis, local_search_mcis
from .model import (
    ColoredIntervalInstance,
    FormatError,
    GuardError,
    Interval,
    SolutionSet,
    SortedView,
    Verdict,
    VerificationError,
    build_sorted_view,
    intersects,
    parse_assignment,
    parse_instance,
    parse_solution,
    serialize_assignment,
    serialize_instance,
    serialize_solution,
    solution_from_ids,
    verify_solution,
)
from .reductions import (
    GadgetMetadata,
    canonicalize_bds,
    decode_domset,
    decode_indset,
    encode_domset_solution,
    encode_indset_solution,
    reduce_domset,
    reduce_indset,
)

__all__ = [
    "CnfFormula",
    "ColoredIntervalInstance",
    "DominationIndex",
    "FormatError",
    "GadgetMetadata",
    "GenSpec",
    "GuardError",
    "BudgetError",
    "Interval",
    "LocalSearchConfig",
    "OracleBudget",
    "SolutionSet",
    "SortedView",
    "Verdict",
    "VerificationError",
    "VertexCoverDecomposition",
    "build_sorted_view",
    "canonicalize_bds",
    "decode_domset",
    "decode_indset",
    "encode_domset_solution",
    "encode_indset_solution",
    "enumerate_swap_candidates",
    "generate",
    "greedy_mcis",
    "intersects",
    "is_b_locally_optimal",
    "is_three_bounded",
    "is_tptn",
    "local_search_mcis",
    "max_colors",
    "max_f_with_witness",
    "minimum_vertex_cover",
    "oracle_fbds",
    "oracle_fbis",
    "oracle_maximal_is",
    "oracle_mcis",
    "oracle_sat",
    "parse_assignment",
    "parse_dimacs",
    "parse_instance",
    "parse_solution",
    "random_three_bounded",
    "random_tptn_uniform3",
    "reduce_domset",
    "reduce_indset",
    "serialize_assignment",
    "serialize_dimacs",
    "serialize_instance",
    "serialize_solution",
    "solution_from_ids",
    "solve_fbds_brute",
    "solve_fbis_dp",
    "solve_fbis_vc",
    "verify_solution",
]

_ORACLE_NAMES = {
    "BudgetError", "OracleBudget", "is_b_locally_optimal",
    "oracle_fbds", "oracle_fbis", "oracle_maximal_is", "oracle_mcis", "oracle_sat",
}


def __getattr__(name: str):
    """Load balint.oracle, the naive reference solvers, on first use (PEP 562)."""
    if name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import oracle

    return getattr(oracle, name)
