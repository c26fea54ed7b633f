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

``import surfcount`` loads no submodule: each public name, and each
submodule such as ``surfcount.engine``, loads its module on first use
(PEP 562 ``__getattr__``).
"""

from importlib import import_module

# Each public name with the module that defines it.
_LAZY = {
    name: module
    for module, names in (
        ("closed", ("NoClosedForm", "PantsProfile", "annulus_split", "bar", "catalan",
                    "closed_G", "closed_N", "closed_refined", "local_count", "pants_classify",
                    "pants_regions")),
        ("engine", ("clear_memo", "convolve_G_from_N", "count_G", "count_G_r", "count_G_t",
                    "count_G_t_via_r", "count_lattice", "count_N", "count_N_t", "dilaton_reduce",
                    "load_cache", "save_cache")),
        ("exact", ("DegenerateGridError", "FitInvalid", "MultiPoly", "QuasiPoly", "SeriesIdentityError",
                   "binomial", "frac_str", "interpolate_tensor", "parse_frac")),
        ("fitlab", ("FitReport", "compare_top_degree", "extract_psi", "fit_G_poly", "fit_Nhat",
                    "fit_Nhat_refined")),
        ("oracles", ("ArcStructure", "DiscDiagram", "all_arrow_labellings", "arrows_to_arcs",
                     "enumerate_disc", "pants_search")),
        ("series", ("CLOSED_FORM_NAMES", "TruncSeries", "build_fG",
                    "build_fN", "build_bold_fN", "build_frak_f", "closed_form_reference",
                    "diff_recursion_residual", "expand_closed_form", "first_diff_residual",
                    "pullback_check", "scaling_check")),
        ("sums", ("NorburyPolyPair", "SumFamily", "fit_sum", "norbury_pq", "sum_direct",
                  "tilde_sum", "tilde_sum_factored")),
        ("verify", ("CheckResult", "SUITES", "all_passed", "format_report", "run_suite")),
    )
    for name in names
}

_SUBMODULES = {*_LAZY.values(), "cli", "moduli"}


def __getattr__(name: str):
    if name in _SUBMODULES:  # importing it binds the attribute
        return import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})


__version__ = "0.1.0"

__all__ = sorted(_LAZY)
