"""Truncated series: builders, arithmetic, and the identity checks."""

import hashlib
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.closed import catalan
from surfcount.series import (
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


def test_build_fN_examples():
    s = build_fN(0, 2, 6)
    assert s.coefficient((1, 1)) == 2
    assert s.coefficient((-1, -1)) == 1
    s1 = build_fN(0, 1, 6)
    assert s1.coefficient((-1,)) == 1
    assert all(k == (-1,) for k, _ in s1.sorted_terms())
    s3 = build_fN(0, 3, 4)
    assert s3.coefficient((0, 0, -1)) == 1  # boundary points (1,1,0)
    assert s3.coefficient((0, 0, 0)) == 0  # odd total


def test_build_fG_examples():
    s = build_fG(0, 1, 8)
    for mexp, cm in ((1, 1), (3, 1), (5, 2), (7, 5)):
        assert s.coefficient((mexp,)) == cm
    s2 = build_fG(0, 2, 8)
    assert s2.coefficient((1, 1)) == 1  # empty diagram
    assert s2.coefficient((3, 3)) == 6


def test_build_frak_f_alpha_grading():
    s = build_frak_f(0, 1, 7, 5)
    for m in range(3):
        assert s.coefficient((2 * m + 1,), aux_exp=m + 1) == catalan(m)
    with pytest.raises(ValueError):
        build_frak_f(0, 1, 5, 0)


@pytest.mark.parametrize(
    "build, args",
    [
        (build_fN, (0, 2, -1)),
        (build_fG, (0, 2, -1)),
        (build_frak_f, (1, 2, -3, 13)),
        (build_bold_fN, (1, 2, -2)),
        (expand_closed_form, ("fN01", -3)),
    ],
    ids=lambda x: getattr(x, "__name__", None),
)
def test_negative_truncation_order_is_rejected(build, args):
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        build(*args)


def test_bold_fN_sums_to_unrefined():
    graded = build_bold_fN(0, 3, 6)
    plain = build_fN(0, 3, 6)
    collapsed = {}
    for key, c in graded.terms.items():
        collapsed[key[:-1]] = collapsed.get(key[:-1], Fraction(0)) + c
    assert {k: v for k, v in collapsed.items() if v} == plain.terms


def test_series_immutable_and_shape_checked():
    s = build_fN(0, 2, 4)
    with pytest.raises(AttributeError):
        s.order = 99
    with pytest.raises(ValueError):
        TruncSeries(1, 4, mins=(-2,))
    with pytest.raises(ValueError):
        TruncSeries(1, 4, mins=(-1,), terms={(-2,): Fraction(1)})


@pytest.mark.parametrize(
    "terms",
    [{(1,): 0.1}, {(1.0,): 1}, {(True,): 1}, {(1,): True}],
    ids=["float-coefficient", "float-key", "bool-key", "bool-coefficient"],
)
def test_series_rejects_inexact_terms(terms):
    with pytest.raises(TypeError, match="must be exact"):
        TruncSeries(1, 3, terms=terms)


def test_y_multiplication_truncates():
    a = TruncSeries(1, 4, terms={(1,): Fraction(1), (3,): Fraction(2)})
    b = TruncSeries(1, 4, terms={(1,): Fraction(1)})
    p = a * b
    assert p.coefficient((2,)) == 1
    assert p.coefficient((4,)) == 2
    deep = TruncSeries(1, 2, terms={(1,): Fraction(1)})
    assert (deep * deep).coefficient((2,)) == 1


def test_divided_difference_matches_monomial_identity():
    # (x_k - x_1)^{-1} (y_k^3 - y_1^3 style) on a single monomial
    s = TruncSeries(2, 8, terms={(0, 3): Fraction(1)})
    d = s.divided_difference(1)
    want = {(1, 3): Fraction(-1), (2, 2): Fraction(-1), (3, 1): Fraction(-1)}
    assert d.terms == want


def test_pullback_zero_and_excluded_disc():
    assert pullback_check(0, 2, 8).is_zero_through(8)
    assert pullback_check(0, 3, 6, t=1).is_zero_through(6)
    with pytest.raises(ValueError):
        pullback_check(0, 1, 6)


def test_catalogue_matches_reference():
    for name in CLOSED_FORM_NAMES:
        got = expand_closed_form(name, 7)
        want = closed_form_reference(name, 7)
        assert got.eq_through(want, 7), name


def test_catalogue_rejects_unknown():
    with pytest.raises(ValueError):
        expand_closed_form("fN99", 5)


def test_diff_recursion_residuals():
    assert diff_recursion_residual(0, 1, 7).is_zero_through(7)
    assert diff_recursion_residual(0, 2, 5).is_zero_through(5)
    assert first_diff_residual(1, 1, 5).is_zero_through(5)


def test_scaling_check_small():
    assert scaling_check(0, 1, 6)
    assert scaling_check(1, 1, 6)


@given(st.integers(2, 8))
@settings(max_examples=7, deadline=None)
def test_truncation_stability(T):
    full = build_fN(0, 2, 8)
    small = build_fN(0, 2, T)
    assert full.truncate(T).terms == small.terms


def test_json_shape_graded_lex():
    d = build_fN(0, 2, 4).to_json_dict()
    assert d["vars"] == ["z1", "z2"]
    assert d["aux"] == "none"
    degrees = [sum(t["exps"]) for t in d["terms"]]
    assert degrees == sorted(degrees)


def _shape_and_json(s):
    return [s.to_json_dict(), [s.nvars, list(s.mins), s.order, s.aux, s.aux_bound]]


def _frozen_outputs():
    out = []
    for g, n, T in ((0, 1, 7), (0, 2, 6), (0, 3, 5), (1, 1, 6), (1, 2, 4)):
        for t in (None,) + tuple(range(2 * g + n)):
            out.append(("fN", g, n, T, t, _shape_and_json(build_fN(g, n, T, t=t))))
            out.append(("fG", g, n, T, t, _shape_and_json(build_fG(g, n, T, t=t))))
        for bound in (1, 2, T // 2 + 2):
            out.append(("frakf", g, n, T, bound, _shape_and_json(build_frak_f(g, n, T, bound))))
        for bound in (None, 0, 1):
            out.append(("boldfN", g, n, T, bound, _shape_and_json(build_bold_fN(g, n, T, bound))))
    for name in CLOSED_FORM_NAMES:
        for T in (0, 1, 4, 7):
            out.append((name, T, _shape_and_json(expand_closed_form(name, T))))
            out.append(("ref", name, T, _shape_and_json(closed_form_reference(name, T))))
    for g, n, T in ((0, 1, 5), (0, 2, 4), (0, 3, 3), (1, 1, 4)):
        for bound in (None, 1, 3):
            res = diff_recursion_residual(g, n, T, alpha_bound=bound)
            out.append(("diff", g, n, T, bound, _shape_and_json(res)))
        out.append(("first", g, n, T, _shape_and_json(first_diff_residual(g, n, T))))
    for g, n, T in ((0, 2, 6), (0, 3, 4), (1, 1, 5)):
        for t in (None,) + tuple(range(2 * g + n)):
            out.append(("pullback", g, n, T, t, _shape_and_json(pullback_check(g, n, T, t=t))))
    return out


def test_series_outputs_are_frozen():
    """Every builder, catalogue entry, reference, residual and pullback on a
    fixed grid, as JSON and shape, hashed: any change to a coefficient, a
    truncation or an auxiliary bound changes the digest."""
    outputs = _frozen_outputs()
    blob = json.dumps(outputs, separators=(",", ":")).encode()
    assert len(outputs) == 181
    assert hashlib.sha256(blob).hexdigest() == (
        "11c551f9139ea6c7e17500b723ed6d94e31afa60efdea396f28d16174ca23268"
    )
