"""Exact enumeration of arc diagrams on compact oriented surfaces.

The package counts collections of disjoint embedded arcs meeting the
boundary of a genus-g surface with n boundary components in prescribed
numbers of points: all diagrams (``count_G``), diagrams without
boundary-parallel arcs (``count_N``), and refinements by the number of
complementary regions (``count_G_r``) or the stable region parameter t
(``count_G_t``, ``count_N_t``).  On top of the counts sit exact
quasi-polynomial fits, intersection-number extraction, weighted
boundary-sum families, truncated generating series with their identity
checks, brute-force oracles, and the verification suites wired into the
``surfcount`` command-line tool.

All arithmetic is exact: Python integers and ``fractions.Fraction``
throughout; nothing is ever rounded.
"""

from .closed import (
    NoClosedForm,
    PantsProfile,
    annulus_split,
    bar,
    catalan,
    closed_G,
    closed_N,
    closed_refined,
    local_count,
    pants_classify,
    pants_regions,
)
from .engine import (
    clear_memo,
    convolve_G_from_N,
    count_G,
    count_G_r,
    count_G_t,
    count_G_t_via_r,
    count_lattice,
    count_N,
    count_N_t,
    dilaton_reduce,
    load_cache,
    save_cache,
)
from .exact import (
    DegenerateGridError,
    FitInvalid,
    MultiPoly,
    QuasiPoly,
    binomial,
    frac_str,
    interpolate_tensor,
    parse_frac,
)
from .fitlab import (
    FitReport,
    compare_top_degree,
    extract_psi,
    fit_G_poly,
    fit_Nhat,
    fit_Nhat_refined,
)
from .oracles import (
    ArcStructure,
    DiscDiagram,
    all_arrow_labellings,
    arrows_to_arcs,
    enumerate_disc,
    pants_search,
)
from .series import (
    CLOSED_FORM_NAMES,
    SeriesIdentityError,
    TruncSeries,
    build_fG,
    build_fN,
    build_bold_fN,
    build_frak_f,
    closed_form_reference,
    diff_recursion_residual,
    expand_closed_form,
    first_diff_residual,
    pullback_check,
    scaling_check,
)
from .sums import (
    NorburyPolyPair,
    SumFamily,
    fit_sum,
    norbury_pq,
    sum_direct,
    tilde_sum,
    tilde_sum_factored,
)
from .verify import CheckResult, SUITES, all_passed, format_report, run_suite

__version__ = "0.1.0"

__all__ = [
    "ArcStructure",
    "CLOSED_FORM_NAMES",
    "CheckResult",
    "DegenerateGridError",
    "DiscDiagram",
    "FitInvalid",
    "FitReport",
    "MultiPoly",
    "NoClosedForm",
    "NorburyPolyPair",
    "PantsProfile",
    "QuasiPoly",
    "SUITES",
    "SeriesIdentityError",
    "SumFamily",
    "TruncSeries",
    "all_arrow_labellings",
    "all_passed",
    "annulus_split",
    "arrows_to_arcs",
    "bar",
    "binomial",
    "build_bold_fN",
    "build_fG",
    "build_fN",
    "build_frak_f",
    "catalan",
    "clear_memo",
    "closed_G",
    "closed_N",
    "closed_form_reference",
    "closed_refined",
    "compare_top_degree",
    "convolve_G_from_N",
    "count_G",
    "count_G_r",
    "count_G_t",
    "count_G_t_via_r",
    "count_lattice",
    "count_N",
    "count_N_t",
    "diff_recursion_residual",
    "dilaton_reduce",
    "enumerate_disc",
    "expand_closed_form",
    "extract_psi",
    "first_diff_residual",
    "fit_G_poly",
    "fit_Nhat",
    "fit_Nhat_refined",
    "fit_sum",
    "format_report",
    "frac_str",
    "interpolate_tensor",
    "load_cache",
    "local_count",
    "norbury_pq",
    "pants_classify",
    "pants_regions",
    "pants_search",
    "parse_frac",
    "pullback_check",
    "run_suite",
    "save_cache",
    "scaling_check",
    "sum_direct",
    "tilde_sum",
    "tilde_sum_factored",
]
