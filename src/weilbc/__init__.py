"""Exact Weil representations over finite fields and twisted base-change checks."""

from .cyclotomic import CycNum, gauss_sum
from .fieldtower import Tower, build_tower, enlarge_tower
from .grouplib import (
    HeisGroup,
    SpHGroup,
    SympGroup,
    TorusSL2,
    conjugacy_classes,
    membership,
    twisted_classes,
)
from .normmap import NormConfig, choose_t, gyoja_norm, gyoja_norms, lang_solve, twisted_product, verify_bijection
from .schrodinger import RepContext, WeilOperator, siegel_factor
from .characters import ClassFunction, inner_product, lift_class_function, weil_torus_restriction
from .checks import CHECK_NAMES, Report, RunConfig, Workspace, run_check

__all__ = [
    "CycNum",
    "gauss_sum",
    "Tower",
    "build_tower",
    "enlarge_tower",
    "HeisGroup",
    "SpHGroup",
    "SympGroup",
    "TorusSL2",
    "conjugacy_classes",
    "membership",
    "twisted_classes",
    "NormConfig",
    "choose_t",
    "gyoja_norm",
    "gyoja_norms",
    "lang_solve",
    "twisted_product",
    "verify_bijection",
    "RepContext",
    "WeilOperator",
    "siegel_factor",
    "ClassFunction",
    "inner_product",
    "lift_class_function",
    "weil_torus_restriction",
    "CHECK_NAMES",
    "Report",
    "RunConfig",
    "Workspace",
    "run_check",
]
