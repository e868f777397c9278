"""Bound analysis for guarded difference constraint programs.

A difference constraint program (DCP) is a control-flow graph whose
transitions carry positivity guards and inequalities x' <= y + c relating
post-state variables to pre-state atoms. This package parses DCPs, abstracts
concrete integer transition systems into them, computes symbolic worst-case
transition/variable bounds and whole-program complexity, and validates the
bounds against a brute-force concrete interpreter.
"""

from dcbound.expr import (
    BoundExpr,
    UNDEFINED,
    add,
    mul,
    maximum,
    minimum,
    evaluate,
    parse_expr,
    to_str,
)
from dcbound.dcp import Dcp, Transition, DifferenceConstraint, parse_dcp, DcpError
from dcbound.engine import AnalysisMode, Analysis, BoundReport
from dcbound.oracle import explore, check_soundness, RunStats
from dcbound.program import ConcreteProgram, parse_program
from dcbound.abstraction import abstract_program, AbstractionResult

__version__ = "0.1.0"

__all__ = [
    "BoundExpr",
    "UNDEFINED",
    "add",
    "mul",
    "maximum",
    "minimum",
    "evaluate",
    "parse_expr",
    "to_str",
    "Dcp",
    "Transition",
    "DifferenceConstraint",
    "parse_dcp",
    "DcpError",
    "AnalysisMode",
    "Analysis",
    "BoundReport",
    "explore",
    "check_soundness",
    "RunStats",
    "ConcreteProgram",
    "parse_program",
    "abstract_program",
    "AbstractionResult",
    "__version__",
]
