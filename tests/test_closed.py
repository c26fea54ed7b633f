"""Printed closed forms for the small surfaces."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfcount.closed import (
    NoClosedForm,
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

CATALAN = [1, 1, 2, 5, 14, 42, 132, 429, 1430, 4862]


def test_catalan_sequence():
    assert [catalan(m) for m in range(10)] == CATALAN


def test_bar():
    assert bar(0) == 1
    assert bar(1) == 1
    assert bar(6) == 6


def test_disc():
    for m in range(10):
        assert closed_G(0, 1, (2 * m,)) == CATALAN[m]
    assert closed_G(0, 1, (7,)) == 0
    assert closed_N(0, 1, (0,)) == 1
    assert closed_N(0, 1, (4,)) == 0


def test_annulus_values():
    assert closed_G(0, 2, (0, 0)) == 1
    assert closed_G(0, 2, (2, 0)) == 2
    assert closed_G(0, 2, (2, 2)) == 6
    assert closed_G(0, 2, (1, 1)) == 1
    assert closed_G(0, 2, (1, 2)) == 0
    assert closed_N(0, 2, (3, 3)) == 3
    assert closed_N(0, 2, (2, 4)) == 0  # unequal entries leave a gap


def test_annulus_split_adds_up():
    for b1 in range(9):
        for b2 in range(9):
            ins, tra = annulus_split(b1, b2)
            assert ins + tra == closed_G(0, 2, (b1, b2))
    assert annulus_split(2, 2) == (4, 2)
    assert annulus_split(0, 0) == (1, 0)
    assert annulus_split(1, 1) == (0, 1)


def test_pants_and_torus_values():
    assert closed_G(0, 3, (2, 2, 2)) == 64
    assert closed_G(0, 3, (1, 1, 2)) == 4
    assert closed_G(0, 3, (1, 1, 0)) == 1
    assert closed_G(1, 1, (0,)) == 1
    assert closed_G(1, 1, (2,)) == 3
    assert closed_G(1, 1, (4,)) == 13
    assert closed_N(1, 1, (2,)) == 1
    assert closed_N(1, 1, (4,)) == 3
    assert closed_N(0, 3, (2, 2, 2)) == 8
    assert closed_N(0, 4, (2, 2, 2, 2)) == 96


def test_no_closed_form():
    with pytest.raises(NoClosedForm):
        closed_G(2, 1, (0,))
    with pytest.raises(NoClosedForm):
        closed_N(1, 2, (0, 0))


def test_local_count():
    assert local_count(4, 2) == 8
    assert local_count(4, 0) == 6
    assert local_count(3, 1) == 3
    assert local_count(3, 2) == 0  # parity mismatch
    assert local_count(0, 0) == 1


@given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12))
@settings(max_examples=120)
def test_pants_profile_consistency(b1, b2, b3):
    if (b1 + b2 + b3) % 2:
        return
    prof = pants_classify(b1, b2, b3)
    assert prof.admissible()
    assert prof.boundary_points() == (b1, b2, b3)


def test_pants_regions_cases():
    assert pants_regions(0, 0, 0) == (1, 2)
    assert pants_regions(2, 2, 0) == (2, 1)
    assert pants_regions(2, 0, 0) == (2, 2)
    assert pants_regions(2, 2, 2) == (2, 0)
    assert pants_regions(6, 2, 2) == (4, 0)


def test_closed_refined_small():
    assert closed_refined("N", 0, 1, (0,), 0) == 1
    assert closed_refined("N", 0, 2, (3, 3), 0) == 3
    assert closed_refined("N", 0, 2, (0, 0), 1) == 1
    assert closed_refined("N", 0, 3, (2, 2, 2), 0) == 8
    assert closed_refined("N", 0, 3, (2, 2, 0), 1) == 4
    total = sum(closed_refined("G", 0, 2, (2, 2), t) for t in (0, 1))
    assert total == closed_G(0, 2, (2, 2))
    assert closed_refined("G", 0, 3, (2, 2, 2), 2) == 4 * 8
    with pytest.raises(NoClosedForm):
        closed_refined("N", 1, 1, (4,), 0)


@pytest.mark.parametrize(
    "fn, args",
    [
        (closed_N, (1, 1, (2.5,))),
        (closed_G, (0, 3, (True, True, 0))),
        (closed_G, (0.0, 1, (4,))),
        (closed_refined, ("N", 0, 3, (2, 2, 0), 1.0)),
        (closed_refined, ("G", 0, 2, [2, True], 0)),
        (annulus_split, (2, 2.0)),
        (local_count, (4, True)),
        (pants_classify, (2, 2, 2.0)),
        (pants_regions, (2.0, 2, 0)),
    ],
    ids=["N-float-entry", "G-bool-entries", "G-float-genus", "refined-float-t",
         "refined-bool-entry", "annulus-float", "local-bool", "classify-float",
         "regions-float"],
)
def test_closed_forms_reject_non_int_input(fn, args):
    with pytest.raises(TypeError, match="must be an int"):
        fn(*args)
