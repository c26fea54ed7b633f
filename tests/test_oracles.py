"""Brute-force enumerations against the formulas they certify."""

import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.closed import PantsProfile, catalan, pants_classify
from surfcount.engine import count_G_t
from surfcount.exact import binomial, vectors_with_sum_at_most
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
    for oracle in (all_arrow_labellings, enumerate_disc):
        with pytest.raises(ValueError, match="^m must be >= 0$"):
            oracle(-1)


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


@pytest.mark.parametrize("b", [(-1, 1, 0), (2, -2, 0), (0, 0, -2)])
def test_pants_search_rejects_negative_entries(b):
    with pytest.raises(ValueError, match="negative"):
        pants_search(*b)
    with pytest.raises(ValueError, match="negative"):
        pants_classify(*b)


def _pants_search_unpruned(b1, b2, b3):
    """Every traversing triple in 0..max(b), kept when the boundary equations
    leave even nonnegative remainders and the profile is admissible."""
    found = []
    top = max(b1, b2, b3)
    for t12, t23, t31 in product(range(top + 1), repeat=3):
        rems = (b1 - t12 - t31, b2 - t12 - t23, b3 - t31 - t23)
        if min(rems) < 0 or any(r % 2 for r in rems):
            continue
        profile = PantsProfile(*(r // 2 for r in rems), t12, t23, t31)
        if profile.admissible():
            found.append(profile)
    return found


def test_pruned_pants_search_equals_the_unpruned_loop():
    cases = 0
    for b in vectors_with_sum_at_most(3, 16):
        if sum(b) % 2 == 0:
            assert sorted(pants_search(*b)) == sorted(_pants_search_unpruned(*b)), b
            cases += 1
    assert cases == 525


def _regions_by_side_vectors(m, pairs):
    """Reference region count: a region of a noncrossing diagram touches the
    boundary, and it is fixed by its side of every chord, so the regions are
    the distinct side vectors of the 2m boundary gaps (gap i, between points
    i and i + 1 mod 2m, lies inside chord (a, b) iff a <= i < b)."""
    if m == 0:
        return 1
    return len({tuple(a <= gap < b for a, b in pairs) for gap in range(2 * m)})


def test_traced_regions_equal_the_side_vector_count():
    diagrams = [d for m in range(9) for d in enumerate_disc(m)]
    assert len(diagrams) == sum(catalan(m) for m in range(9)) == 2056
    for d in diagrams:
        assert d.regions == _regions_by_side_vectors(d.m, d.pairs) == d.m + 1, d


def test_disc_pairs_come_sorted_with_the_smaller_point_first():
    for m in range(9):
        for d in enumerate_disc(m):
            assert d.pairs == tuple(sorted(d.pairs))
            assert all(a < b for a, b in d.pairs)


def test_an_arc_wraps_exactly_when_its_out_comes_before_its_in():
    for m in range(8):
        for labels in all_arrow_labellings(m):
            for start, end, wraps in arrows_to_arcs(labels).arcs:
                assert labels[start - 1] == "in" and labels[end - 1] == "out"
                assert wraps == (end < start), (labels, start, end, wraps)
