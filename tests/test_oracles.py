"""Brute-force enumerations against the formulas they certify."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.closed import catalan, pants_classify
from surfcount.engine import count_G_t
from surfcount.exact import binomial
from surfcount.oracles import (
    all_arrow_labellings,
    arrows_to_arcs,
    enumerate_disc,
    pants_search,
)


def test_disc_counts_are_catalan():
    for m in range(7):
        assert len(enumerate_disc(m)) == catalan(m)


def test_an_exact_non_int_is_rejected_as_not_an_int():
    # Fraction(2) is exact, so the reason is its type, not inexactness
    want = "m must be an int, not Fraction: Fraction(2, 1)"
    with pytest.raises(TypeError, match=f"^{re.escape(want)}$"):
        enumerate_disc(Fraction(2))


def test_disc_diagrams_are_noncrossing_matchings():
    for d in enumerate_disc(4):
        seen = set()
        for a, b in d.pairs:
            assert (b - a) % 2 == 1  # even gap between endpoints
            seen.update((a, b))
        assert seen == set(range(8))
        for a, b in d.pairs:
            for c, e in d.pairs:
                if (a, b) == (c, e):
                    continue
                # no interleaving: c,e both inside or both outside (a,b)
                assert (a < c < b) == (a < e < b)


def test_disc_region_census_matches_refined_count():
    """Regions of an enumerated disc diagram grade it by t = r - 1 - m."""
    for m in range(6):
        census: dict[int, int] = {}
        for d in enumerate_disc(m):
            t = d.regions - 1 - m
            census[t] = census.get(t, 0) + 1
        for t in range(0, 2):
            assert census.get(t, 0) == count_G_t(0, 1, (2 * m,), t)


def test_arrow_labellings_count():
    for m in range(6):
        assert len(list(all_arrow_labellings(m))) == binomial(2 * m, m)


def test_arrow_decode_injective():
    for m in range(5):
        labs = list(all_arrow_labellings(m))
        assert len({arrows_to_arcs(lab) for lab in labs}) == len(labs)


@given(st.integers(0, 14), st.integers(0, 14), st.integers(0, 14))
@settings(max_examples=150)
def test_pants_search_unique_and_classified(b1, b2, b3):
    if (b1 + b2 + b3) % 2:
        with pytest.raises(ValueError):
            pants_search(b1, b2, b3)
        return
    found = pants_search(b1, b2, b3)
    assert len(found) == 1
    assert found[0] == pants_classify(b1, b2, b3)
