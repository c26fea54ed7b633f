"""Weighted boundary-sum families and central-moment sums."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.exact import binomial
from surfcount.oracles import all_arrow_labellings, enumerate_disc, pants_search
from surfcount.series import (
    build_bold_fN,
    build_frak_f,
    build_fN,
    diff_recursion_residual,
    expand_closed_form,
    pullback_check,
    scaling_check,
)
from surfcount.sums import (
    SumFamily,
    fit_sum,
    norbury_pq,
    sum_direct,
    tilde_sum,
    tilde_sum_factored,
)


def test_family_validation():
    SumFamily("A", 2)
    SumFamily("B", 0, 1)
    with pytest.raises(ValueError):
        SumFamily("X", 0)
    with pytest.raises(ValueError):
        SumFamily("B", 0)  # two-index family needs n
    for tag in ("A", "S"):  # one-index families take no n
        with pytest.raises(ValueError, match="takes one index"):
            SumFamily(tag, 1, 5)


@pytest.mark.parametrize(
    "fn, args, what",
    [
        (SumFamily, ("A", True), "indices"),
        (SumFamily, ("A", 1.0), "indices"),
        (SumFamily, ("B", 0, 1.0), "indices"),
        (sum_direct, (SumFamily("A", 0), True), "k"),
        (tilde_sum, ("p", True, 2), "alpha and n"),
        (tilde_sum_factored, ("p", 1, True), "alpha and n"),
        (norbury_pq, (True,), "alpha"),
        (enumerate_disc, (True,), "m"),
        (all_arrow_labellings, (True,), "m"),
        (pants_search, (True, True, 0), "boundary point counts"),
        (build_fN, (0, 2, True), "truncation orders and bounds"),
        (build_frak_f, (0, 1, 4, 2.0), "truncation orders and bounds"),
        (build_bold_fN, (0, 2, 4, True), "truncation orders and bounds"),
        (expand_closed_form, ("fN01", True), "truncation orders and bounds"),
        (pullback_check, (0, 2, True), "truncation orders and bounds"),
        (scaling_check, (0, 1, True), "truncation orders and bounds"),
        (diff_recursion_residual, (0, 2, 2.0), "truncation orders and bounds"),
    ],
)
def test_lab_entry_points_reject_bools_and_floats(fn, args, what):
    # each entry names its own argument: nothing is coerced on the way down
    with pytest.raises(TypeError, match=f"^{what} must be exact"):
        fn(*args)


def test_direct_values():
    a0 = SumFamily("A", 0)
    assert [sum_direct(a0, k) for k in (0, 2, 3, 4, 6, 8)] == [0, 2, 2, 8, 22, 48]
    s0 = SumFamily("S", 0)
    assert sum_direct(s0, 4) == 4


def test_degree_attribute():
    assert SumFamily("A", 1).degree == 5
    assert SumFamily("S", 0).degree == 3
    assert SumFamily("B", 0, 1).degree == 7
    assert SumFamily("B", 1, 1).degree == 9


@given(st.sampled_from(["A", "S"]), st.integers(0, 2), st.integers(0, 30))
@settings(max_examples=60, deadline=None)
def test_fit_matches_direct_one_index(tag, m, k):
    fam = SumFamily(tag, m)
    qp = fit_sum(fam)
    assert qp.eval((k,)) == sum_direct(fam, k)


@given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 24))
@settings(max_examples=60, deadline=None)
def test_fit_matches_direct_two_index(m, n, k):
    fam = SumFamily("B", m, n)
    qp = fit_sum(fam)
    assert qp.eval((k,)) == sum_direct(fam, k)


def test_fitted_a0_branches():
    qp = fit_sum(SumFamily("A", 0))
    e = qp.branches["e"]
    assert e.coefficient((3,)) == Fraction(1, 12)
    assert e.coefficient((1,)) == Fraction(2, 3)
    o = qp.branches["o"]
    assert o.coefficient((1,)) == Fraction(-1, 12)


def test_norbury_recurrence_polynomials():
    p0 = norbury_pq(0)
    assert p0.p.evaluate((5,)) == 1 and p0.q.evaluate((5,)) == 1
    p2 = norbury_pq(2)
    assert p2.p.total_degree() == 2
    assert p2.q.total_degree() == 2


# Ascending coefficient lists of p_alpha and q_alpha for alpha <= 4.
_NORBURY_P = [[1], [0, 4], [0, -16, 32], [0, 192, -512, 384], [0, -4352, 13824, -15360, 6144]]
_NORBURY_Q = [[1], [1, 4], [1, 8, 32], [1, 12, -32, 384], [1, 16, 1728, -4608, 6144]]


@pytest.mark.parametrize("alpha", range(5))
def test_norbury_coefficients_are_pinned(alpha):
    pair = norbury_pq(alpha)
    for poly, want in ((pair.p, _NORBURY_P[alpha]), (pair.q, _NORBURY_Q[alpha])):
        assert [poly.coefficient((e,)) for e in range(alpha + 1)] == want
        assert poly.total_degree() == alpha
        assert all(type(c) is Fraction for c in poly.terms.values())


def test_tilde_sums_factored():
    for alpha in range(4):
        for n in range(9):
            for which in ("p", "P", "q", "Q"):
                assert tilde_sum_factored(which, alpha, n) == tilde_sum(which, alpha, n)


def test_tilde_reference_rows():
    for n in range(10):
        c = binomial(2 * n, n)
        assert tilde_sum("P", 0, n) == c * (n + 1)
        assert tilde_sum("P", 1, n) == c * 4 * n * n
        assert tilde_sum("Q", 0, n) == c * (2 * n + 1)
        assert tilde_sum("Q", 3, n) == c * (2 * n + 1) * (384 * n**3 - 32 * n * n + 12 * n + 1)
