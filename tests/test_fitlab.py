"""Quasi-polynomial fits, intersection numbers, lattice twin."""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from surfcount import fitlab
from surfcount.cli import _report_json
from surfcount.engine import count_lattice, count_N
from surfcount.exact import FitInvalid, MultiPoly, certify, interpolate_tensor
from surfcount.fitlab import (
    _grid_points,
    _validation_free,
    compare_top_degree,
    extract_psi,
    fit_G_poly,
    fit_Nhat,
    fit_Nhat_refined,
)


def test_nhat_0_3_is_one():
    rep = fit_Nhat(0, 3)
    one = MultiPoly.constant(3, 1)
    for sig in ("eee", "ooe", "oeo", "eoo"):
        assert rep.branch(sig) == one
    for sig in ("oee", "ooo"):
        assert rep.branch(sig) == MultiPoly.zero(3)


def test_nhat_1_1_branch():
    rep = fit_Nhat(1, 1)
    assert rep.branch("e") == MultiPoly(
        1, {(2,): Fraction(1, 48), (0,): Fraction(5, 12)}
    )
    assert rep.degree == 2


def test_nhat_0_4_three_parity_classes():
    rep = fit_Nhat(0, 4)
    even = rep.branch("eeee")
    assert even.coefficient((0, 0, 0, 0)) == 2
    assert even.coefficient((2, 0, 0, 0)) == Fraction(1, 4)
    mixed = rep.branch("ooee")
    assert mixed.coefficient((0, 0, 0, 0)) == Fraction(1, 2)
    assert mixed.coefficient((0, 0, 2, 0)) == Fraction(1, 4)
    allodd = rep.branch("oooo")
    assert allodd.coefficient((0, 0, 0, 0)) == 2


def test_nhat_rejects_bad_surface():
    with pytest.raises(ValueError):
        fit_Nhat(0, 2)
    with pytest.raises(ValueError):
        fit_Nhat_refined(0, 4, 0, 9)


def test_refined_fit_cells():
    rep = fit_Nhat_refined(1, 1, 1, 0)
    assert rep.branch("e") == MultiPoly(1, {(0,): Fraction(1, 2)})
    rep2 = fit_Nhat_refined(0, 4, 3, 3)
    assert rep2.branch("ezzz") == MultiPoly(
        1, {(2,): Fraction(1, 4), (0,): Fraction(2)}
    )
    # infeasible t comes back as confirmed zero
    rep3 = fit_Nhat_refined(0, 4, 0, 1)
    assert rep3.branch("eeez") == MultiPoly.zero(3)


@pytest.mark.parametrize(
    "fit, args",
    [
        (fit_Nhat, (True, 1)),
        (fit_Nhat, (1, 1.0)),
        (fit_Nhat_refined, (1, 1, 0, False)),
        (fit_Nhat_refined, (0, 4, 3, 3.0)),
        (fit_Nhat_refined, (1, True, 1, 0)),
        (fit_G_poly, (0, 3, True)),
        (fit_G_poly, (1, 1.0)),
        (extract_psi, (True, 1)),
        (compare_top_degree, (1, True)),
    ],
)
def test_fit_entry_points_reject_bools_and_floats(fit, args):
    # a warm (1,1) fit must not answer for True == 1 or 1.0 == 1
    fit_Nhat(1, 1)
    with pytest.raises(TypeError, match="must be an int"):
        fit(*args)


def test_g_poly_needs_hyperbolic_type():
    # the stripped annulus count is rational, not polynomial; (0,2) is out
    with pytest.raises(ValueError):
        fit_G_poly(0, 2)


def test_g_poly_pants_branch():
    rep = fit_G_poly(0, 3)
    want = {exps: Fraction(1) for exps in
            [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)]}
    assert rep.branch("eee") == MultiPoly(3, want)
    assert rep.branch("eee").evaluate((1, 2, 3)) == 2 * 3 * 4


def test_g_poly_outside_the_t_window_is_certified_zero():
    # count_G_t vanishes for t outside 0..2g+n-1: every branch is zero and
    # still checked on held-out points
    for g, n, t in ((0, 3, -1), (0, 3, -2), (0, 3, 3), (1, 1, -1)):
        rep = fit_G_poly(g, n, t=t)
        sigs = rep.branches.branches
        assert len(sigs) == 2**n and all(p.is_zero() for p in sigs.values()), t
        assert rep.validation_points == 10 * 2**n


def test_g_poly_refined_degree_drop():
    rep = fit_G_poly(0, 3, t=2)
    # at t = 2 the stripped count is m1 + m2 + m3 + 1 on the all-even branch
    assert rep.branch("eee") == MultiPoly(
        3,
        {
            (1, 0, 0): Fraction(1),
            (0, 1, 0): Fraction(1),
            (0, 0, 1): Fraction(1),
            (0, 0, 0): Fraction(1),
        },
    )


def test_psi_small_values():
    assert extract_psi(1, 1) == {(1,): Fraction(1, 24)}
    got = extract_psi(0, 4)
    assert set(got.values()) == {Fraction(1)}
    assert len(got) == 4
    assert extract_psi(0, 3) == {(0, 0, 0): Fraction(1)}
    assert extract_psi(3, 1) == {(7,): Fraction(1, 82944)}


def test_lattice_top_degree_agreement():
    assert compare_top_degree(0, 3)
    assert compare_top_degree(1, 1)


def test_lattice_0_5_even_branch_is_norburys_polynomial():
    """Lattice counts vanish at odd totals, so the all-even (0,5) branch is
    N_{0,5} = 1/32 sum b_i^4 + 1/8 sum_{i<j} b_i^2 b_j^2 - 5/8 sum b_i^2 + 2,
    whose constant term is the Euler characteristic of M_{0,5}."""
    terms = {(0,) * 5: Fraction(2)}
    for i in range(5):
        e2, e4 = [0] * 5, [0] * 5
        e2[i], e4[i] = 2, 4
        terms[tuple(e2)] = Fraction(-5, 8)
        terms[tuple(e4)] = Fraction(1, 32)
        for j in range(i + 1, 5):
            e = [0] * 5
            e[i] = e[j] = 2
            terms[tuple(e)] = Fraction(1, 8)
    fit = interpolate_tensor({p: count_lattice(0, 5, p) for p in _grid_points("eeeee", 4)}, 4)
    assert fit == MultiPoly(5, terms)
    held_out = _validation_free("eeeee", 4, random.Random("lattice 0 5"), 10)
    assert certify("lattice(0,5)", fit, lambda p: count_lattice(0, 5, p), held_out) >= 10


def test_fits_interpolate_one_grid_per_signature_orbit(monkeypatch):
    """Branches whose signatures are permutations of each other share one
    interpolation: (0,5) has the orbits eeeee, eeeoo, eoooo among its 16
    even-total branches, (0,4) has eeee, eeoo, oooo, and the (0,3) stripped
    all-diagram fit has eee, eoo."""
    grids = []

    def spy(grid, degree):
        grids.append(len(grid))
        return interpolate_tensor(grid, degree)

    monkeypatch.setattr(fitlab, "interpolate_tensor", spy)
    monkeypatch.setattr(fitlab, "_NHAT_CACHE", {})
    rep = fit_Nhat(0, 5)
    assert (len(grids), sum(grids)) == (3, 9375)
    assert len(rep.branches.branches) == 32 and rep.validation_points == 320
    grids.clear()
    fit_Nhat(0, 4)
    assert len(grids) == 3
    grids.clear()
    fit_G_poly(0, 3)
    assert len(grids) == 2


def test_derived_branches_are_certified_on_their_own_points(monkeypatch):
    """A count that breaks the symmetry on the branches with an odd first
    entry is caught at the first such branch, which is derived from eeoo
    by permuting variables and never interpolated."""

    def skewed(g, n, b):
        bump = sum(b) % 2 == 0 and b[0] % 2 == 1
        return count_N(g, n, b) + bump

    monkeypatch.setattr(fitlab, "count_N", skewed)
    monkeypatch.setattr(fitlab, "_NHAT_CACHE", {})
    with pytest.raises(FitInvalid, match=r"Nhat\(0,4\) branch oeeo: held-out mismatch"):
        fit_Nhat(0, 4)


def test_fit_outputs_and_samples_are_frozen(monkeypatch):
    """Every fit target, byte for byte: the JSON of each report, and every
    interpolation grid and held-out point set in the order they are used.
    Covers a zero-window refined cell, k = n, t = k, a stripped fit with t
    outside its window and one with D = 0, the lattice twin and psi."""
    log = []

    def spy_certify(ctx, poly, value, points):
        points = list(points)
        log.append(("certify", ctx, sorted((e, str(c)) for e, c in poly.terms.items()), points))
        return certify(ctx, poly, value, points)

    def spy_interpolate(grid, degree):
        log.append(("interpolate", sorted(grid), degree))
        return interpolate_tensor(grid, degree)

    monkeypatch.setattr(fitlab, "certify", spy_certify)
    monkeypatch.setattr(fitlab, "interpolate_tensor", spy_interpolate)
    monkeypatch.setattr(fitlab, "_NHAT_CACHE", {})
    reports = [fit_Nhat(g, n) for g, n in ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))]
    reports += [
        fit_Nhat_refined(g, n, t, k)
        for g, n, t, k in (
            (1, 1, 1, 0), (1, 1, 0, 0), (1, 1, 5, 0), (0, 3, 0, 0), (0, 3, 1, 1),
            (0, 3, 2, 3), (0, 3, 1, 3), (0, 4, 3, 3), (0, 4, 0, 1), (0, 4, 1, 1),
            (0, 4, 2, 1), (1, 2, 1, 1), (1, 2, 0, 0),
        )
    ]
    reports += [
        fit_G_poly(g, n, t)
        for g, n, t in (
            (0, 3, None), (1, 1, None), (0, 3, 1), (1, 1, -1), (1, 1, 0), (1, 1, 1),
            (1, 1, 2), (1, 1, 3), (1, 2, -1), (1, 2, 1), (1, 2, 2), (1, 2, 3),
        )
    ]
    flags = [compare_top_degree(g, n) for g, n in ((0, 3), (1, 1), (0, 4), (1, 2))]
    psi = [extract_psi(g, n) for g, n in ((0, 3), (1, 1), (0, 4), (1, 2), (2, 1))]
    assert flags == [True] * 4
    assert psi[-1] == {(4,): Fraction(1, 1152)}
    psi_json = [sorted((list(d), str(v)) for d, v in p.items()) for p in psi]
    out = json.dumps([_report_json(r) for r in reports] + psi_json, sort_keys=True)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2e6f5425bb1ed03372e5e69522051c09fe2bbc647a6607325825c77e2792ff0b"
    )
    assert len(log) == 201
    assert hashlib.sha256(repr(log).encode()).hexdigest() == (
        "20e55fbe0e9ebe640988f8cf754f06780c5b98107477cce753205aa7670b8d51"
    )
