"""Fault-tree unreliability analysis via squarefree polynomial algebras."""

from .algebra import Poly
from .dominators import immediate_dominators, topo_sort
from .errors import (
    AlgebraError,
    CapExceededError,
    InfeasibleConfigError,
    NoCutSetError,
    NotATreeError,
    ParseError,
    SfpaError,
    ValidationError,
)
from .galileo import parse_ft, serialize_ft
from .generator import GenConfig, generate, generate_corpus
from .solver import (
    SolveReport,
    minimal_cut_set_via_reduction,
    solve_sfpa,
    solve_sfpa2,
    solve_treelike,
    variable_budget,
)
from .tree import FaultTree, GateKind, cut_sets, oracle_unreliability

__all__ = [
    "AlgebraError",
    "CapExceededError",
    "FaultTree",
    "GateKind",
    "GenConfig",
    "InfeasibleConfigError",
    "NoCutSetError",
    "NotATreeError",
    "ParseError",
    "Poly",
    "SfpaError",
    "SolveReport",
    "ValidationError",
    "cut_sets",
    "generate",
    "generate_corpus",
    "immediate_dominators",
    "minimal_cut_set_via_reduction",
    "oracle_unreliability",
    "parse_ft",
    "serialize_ft",
    "solve_sfpa",
    "solve_sfpa2",
    "solve_treelike",
    "topo_sort",
    "variable_budget",
]

__version__ = "0.1.0"
