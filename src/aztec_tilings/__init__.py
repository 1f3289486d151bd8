"""Exact enumeration of domino tilings of Aztec diamonds and rectangles with
boundary defects: closed-form counts, Pfaffian condensation, and two
independent counting engines that cross-validate every formula."""

from .condensation import (
    ENGINES,
    check_face_alternating_identity,
    check_kuo_identity,
    condensation_count,
    condensation_count_symdiff,
    count_configuration,
    count_defects_four_sided,
    count_defects_three_sided,
)
from .counting import count_matchings_brute, count_tilings_dp
from .dualgraph import boundary_cycle
from .exactalg import determinant, pfaffian, pfaffian_expand_first_row
from .formulas import (
    binomial_ext,
    count_ad_adjacent_defects,
    count_ar_gamma_nw_defect,
    count_ar_gamma_se_defect,
    count_ar_kept_se,
    count_ar_one_se_removed,
    count_ar_se_block_nw_defect,
    count_ar_se_block_removed,
    count_ar_se_nw_defects,
    count_aztec_diamond,
    hyp_terminating,
)
from .geometry import (
    Cell,
    DefectConfiguration,
    DefectSpec,
    Region,
    boundary_cell,
    is_white,
    make_aztec_rectangle,
)

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "DefectConfiguration",
    "DefectSpec",
    "ENGINES",
    "Region",
    "binomial_ext",
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
    "count_ar_one_se_removed",
    "count_ar_se_block_nw_defect",
    "count_ar_se_block_removed",
    "count_ar_se_nw_defects",
    "count_aztec_diamond",
    "count_configuration",
    "count_defects_four_sided",
    "count_defects_three_sided",
    "count_matchings_brute",
    "count_tilings_dp",
    "determinant",
    "hyp_terminating",
    "is_white",
    "make_aztec_rectangle",
    "pfaffian",
    "pfaffian_expand_first_row",
]
