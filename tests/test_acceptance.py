"""Acceptance gate: the fourteen acceptance criteria, one test per criterion.

Each test delegates to the corresponding verification checks (which raise
``CheckFailure`` with a pinpointed message on any disagreement) and prints a
single ``criterion NN PASS`` line with the evidence summary.  Run with
``pytest -v tests/test_acceptance.py`` to see one pass/fail line per
criterion.
"""

import hashlib

from surfcount import clear_memo, fitlab, verify


def _passes(num: int, *checks) -> None:
    details = [fn() for fn in checks]
    print(f"criterion {num:02d} PASS: " + "; ".join(details))


def test_criterion_01_disc_counts_are_catalan():
    _passes(1, verify.check_disc_catalan, verify.check_disc_oracle)


def test_criterion_02_closed_forms_match_recursion_G():
    _passes(2, verify.check_closed_vs_recursion_G)


def test_criterion_03_closed_forms_match_recursion_N():
    _passes(3, verify.check_closed_vs_recursion_N)


def test_criterion_04_collar_convolution():
    _passes(4, verify.check_collar_convolution)


def test_criterion_05_sum_tables_and_moments():
    _passes(5, verify.check_sum_tables, verify.check_moment_sums)


def test_criterion_06_fits_reproduce_reference_polynomials():
    _passes(
        6,
        verify.check_nhat_reference,
        verify.check_nhat_degree_heldout,
        verify.check_g_poly_stripped,
    )


def test_criterion_07_refined_fit_cells():
    _passes(
        7,
        verify.check_refined_cells_1_1,
        verify.check_refined_cells_0_3,
        verify.check_refined_cells_0_4,
    )


def test_criterion_08_refinements_sum_to_totals():
    _passes(8, verify.check_refinement_sums)


def test_criterion_09_dilaton_reduction():
    _passes(9, verify.check_dilaton)


def test_criterion_10_refined_window_and_existence():
    _passes(10, verify.check_refined_window)


def test_criterion_11_intersection_numbers_and_top_degree():
    _passes(
        11,
        verify.check_psi_values,
        verify.check_lattice_top_degree,
        verify.check_refined_top_at_k,
    )


def test_criterion_12_series_identities():
    _passes(
        12,
        verify.check_series_pullback,
        verify.check_series_catalogue,
        verify.check_series_diff_recursion,
        verify.check_series_scaling,
    )


def test_criterion_13_pants_and_arrow_oracles():
    _passes(13, verify.check_pants_oracle, verify.check_arrows_oracle)


def test_criterion_14_reports_independent_of_check_order(monkeypatch):
    """Every check gives the same result whatever ran before it: the
    registry run backwards, in this process, from a cold memo and an empty
    fit cache matches a forward ``run_suite("all")`` in two forked workers,
    check for check."""
    monkeypatch.setattr(verify, "_cpu_count", lambda: 2)
    forward = verify.run_suite("all")
    assert verify.all_passed(forward)
    report = (verify.format_report(forward) + "\n").encode()
    assert hashlib.sha256(report).hexdigest() == (
        "20f25a050c21f5eb0f538bc1df9592654ff62bef782d272be05c997881aa76de"
    ), "the verify report is no longer byte-identical"
    clear_memo()
    fitlab._NHAT_CACHE.clear()
    backward = [verify._run_one(entry) for entry in reversed(verify._REGISTRY)]
    assert backward[::-1] == forward, "a check's result depends on the checks run before it"
    print(f"criterion 14 PASS: {len(forward)} checks identical forward and backward")
