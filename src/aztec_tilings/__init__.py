"""Exact enumeration of domino tilings of Aztec diamonds and rectangles with
boundary defects: closed-form counts, Pfaffian condensation, and three
independent counting engines that cross-validate every formula."""

from .condensation import (
    ENGINES,
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_configuration,
)
from .counting import count_matchings_brute, count_tilings_dp, count_tilings_paths
from .dualgraph import boundary_cycle
from .formulas import (
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_se_block_nw_defect,
    count_ar_se_nw_defects,
    count_aztec_diamond,
)
from .geometry import Cell, DefectConfiguration, DefectSpec, Region, boundary_cell, is_white

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "DefectConfiguration",
    "DefectSpec",
    "ENGINES",
    "Region",
    "boundary_cell",
    "boundary_cycle",
    "check_face_alternating_identity",
    "check_kuo_identity",
    "condensation_count",
    "condensation_count_symdiff",
    "count_ad_adjacent_defects",
    "count_ar_gamma_nw_defect",
    "count_ar_gamma_se_defect",
    "count_ar_kept_se",
    "count_ar_se_block_nw_defect",
    "count_ar_se_nw_defects",
    "count_aztec_diamond",
    "count_configuration",
    "count_matchings_brute",
    "count_tilings_dp",
    "count_tilings_paths",
    "is_white",
]
