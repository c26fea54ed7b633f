"""Exact arithmetic and interpolation layer."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfcount import exact
from surfcount.exact import (
    DegenerateGridError,
    FitInvalid,
    MultiPoly,
    QuasiPoly,
    binomial,
    certify,
    frac_str,
    interpolate_tensor,
    parity_signature,
    parse_frac,
    signature_matches,
)


def test_binomial_small():
    assert binomial(0, 0) == 1
    assert binomial(4, 2) == 6
    assert binomial(10, 3) == 120
    assert binomial(3, 5) == 0
    assert binomial(5, -1) == 0


@given(st.integers(0, 40), st.integers(0, 40))
def test_binomial_pascal(n, k):
    assert binomial(n + 1, k + 1) == binomial(n, k) + binomial(n, k + 1)


def test_frac_str_roundtrip():
    for x in (Fraction(0), Fraction(3), Fraction(-7, 12), Fraction(22, 7)):
        assert parse_frac(frac_str(x)) == x
    assert frac_str(Fraction(4, 2)) == "2"
    assert parse_frac("5") == 5


def test_multipoly_basic_algebra():
    p = MultiPoly(2, {(2, 0): 1, (0, 2): -1})  # x^2 - y^2
    assert p == MultiPoly(2, [((2, 0), Fraction(1)), ((0, 2), -1), ((1, 1), 0)])
    assert p.evaluate((3, 2)) == 5
    assert p.total_degree() == 2
    assert p.coefficient((2, 0)) == 1
    assert p.coefficient((1, 1)) == 0
    assert MultiPoly(2, [((2, 0), 1), ((2, 0), -1)]).is_zero()
    assert not hasattr(MultiPoly, "variable") and not hasattr(MultiPoly, "__add__")


def test_multipoly_structure_maps():
    p = MultiPoly(3, {(2, 0, 1): Fraction(1), (0, 1, 0): Fraction(-2)})
    assert p.permute_vars((1, 0, 2)) == MultiPoly(
        3, {(0, 2, 1): Fraction(1), (1, 0, 0): Fraction(-2)}
    )
    assert p.homogeneous_part(3) == MultiPoly(3, {(2, 0, 1): Fraction(1)})
    assert p.substitute_zero([2]) == MultiPoly(2, {(0, 1): Fraction(-2)})
    assert p.degree_in(0) == 2 and p.degree_in(2) == 1


def test_multipoly_json_roundtrip():
    p = MultiPoly(2, {(0, 0): Fraction(1, 3), (4, 2): Fraction(-5)})
    assert MultiPoly.from_json_dict(p.to_json_dict()) == p


def test_pretty_renders_constants_and_powers():
    assert MultiPoly.zero(1).pretty() == "0"
    one = MultiPoly.constant(3, 1)
    assert one.pretty() == "1"
    p = MultiPoly(1, {(2,): Fraction(1, 48), (0,): Fraction(5, 12)})
    s = p.pretty()
    assert "b1^2" in s and "5/12" in s


def test_parity_signature():
    assert parity_signature((2, 3, 0)) == "eoe"
    assert signature_matches("eoe", (4, 1, 2))
    assert not signature_matches("eo", (1, 2))


def test_quasipoly_branch_dispatch():
    qp = QuasiPoly(1)
    qp.set_branch("e", MultiPoly(1, {(1,): Fraction(1)}))
    qp.set_branch("o", MultiPoly(1, {(0,): Fraction(7)}))
    assert qp.eval((4,)) == 4
    assert qp.eval((3,)) == 7
    with pytest.raises(ValueError):
        qp.set_branch("ee", MultiPoly.zero(2))


@st.composite
def _tensor_cases(draw):
    """A polynomial with mixed-denominator coefficients, its per-variable
    degree bound, and distinct, unevenly spaced nodes per axis."""
    nvars = draw(st.integers(1, 4))
    d = draw(st.integers(0, 6 if nvars <= 2 else 3))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, d)) for _ in range(nvars))
        terms[exps] = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 36)))
    nodes = st.lists(st.integers(-9, 30), min_size=d + 1, max_size=d + 1, unique=True)
    return MultiPoly(nvars, terms), d, [draw(nodes) for _ in range(nvars)]


@given(_tensor_cases())
@example((MultiPoly.zero(3), 1, [[0, -9], [30, 4], [-1, 0]]))
@settings(max_examples=60, deadline=None)
def test_interpolation_recovers_polynomial(case):
    """Tensor-grid interpolation is exact on any polynomial within bounds,
    on zero, negative and unevenly spaced nodes."""
    p, d, axes = case
    grid = {pt: p.evaluate(pt) for pt in product(*axes)}
    # integral values go in as int, the rest as Fraction
    grid = {pt: v if v.denominator > 1 else v.numerator for pt, v in grid.items()}
    q = interpolate_tensor(grid, d)
    assert q == p
    assert all(type(c) is Fraction for c in q.terms.values())


def test_interpolation_builds_one_basis_per_axis(monkeypatch):
    calls = []
    basis = exact._lagrange_basis
    monkeypatch.setattr(exact, "_lagrange_basis", lambda nodes: calls.append(nodes) or basis(nodes))
    p = MultiPoly(3, {(2, 0, 1): Fraction(3, 4), (0, 1, 2): Fraction(-2), (0, 0, 0): Fraction(5)})
    nodes = [(1, 2, 3), (2, 4, 6), (1, 3, 5)]
    grid = {pt: p.evaluate(pt) for pt in product(*nodes)}
    assert interpolate_tensor(grid, 2) == p
    assert calls == [list(ax) for ax in nodes]


def test_certify_counts_points_and_stops_at_the_first_mismatch():
    p = MultiPoly(1, {(1,): Fraction(1)})
    seen = []

    def value(pt):
        seen.append(pt)
        return pt[0] if pt[0] < 3 else 0

    assert certify("id", p, value, [(0,), (1,), (2,)]) == 3
    seen.clear()
    with pytest.raises(FitInvalid, match=r"id: held-out mismatch at \(3,\)"):
        certify("id", p, value, [(1,), (3,), (4,)])
    assert seen == [(1,), (3,)]
    assert certify("zero", MultiPoly.zero(2), lambda pt: 0, [(1, 2), (3, 4)]) == 2


def test_interpolation_rejects_ragged_grid():
    grid = {(1, 1): Fraction(1), (1, 2): Fraction(2), (2, 1): Fraction(3)}
    with pytest.raises(DegenerateGridError):
        interpolate_tensor(grid, 1)


def test_certify_catches_an_offset_below_the_coefficient_denominator():
    p = MultiPoly(2, {(1, 0): Fraction(1, 3), (0, 2): Fraction(-5, 4), (0, 0): Fraction(7, 6)})
    den = 12  # the lcm of p's denominators
    points = [(2, 3), (-1, 4), (5, 0)]
    assert certify("p", p, p.evaluate, points) == 3

    def off(pt):
        return p.evaluate(pt) + (Fraction(1, 2 * den) if pt == (-1, 4) else 0)

    with pytest.raises(FitInvalid, match=r"p: held-out mismatch at \(-1, 4\)"):
        certify("p", p, off, points)
    fraction_points = [(Fraction(1, 2), Fraction(-2, 3)), (Fraction(5, 7), 3)]
    assert certify("p", p, p.evaluate, fraction_points) == 2


@pytest.mark.parametrize(
    "grid, bound, error",
    [
        ({(1,): 1, (2,): 4, (3,): 9}, 1, FitInvalid),
        ({(1,): 0.1, (2,): 0}, 1, TypeError),
        ({(1,): True, (2,): False}, 1, TypeError),
        ({(Fraction(1, 2),): 1, (2,): 3}, 1, TypeError),
        ({(1.0,): 1, (2,): 3}, 1, TypeError),
        ({(True,): 1, (2,): 3}, 1, TypeError),
        ({(0,): 5}, -1, ValueError),
    ],
    ids=["degree-past-bound", "float-value", "bool-value", "fraction-coordinate",
         "float-coordinate", "bool-coordinate", "negative-bound"],
)
def test_interpolation_rejects_inexact_input_and_broken_bounds(grid, bound, error):
    with pytest.raises(error) as info:
        interpolate_tensor(grid, bound)
    assert info.type is error


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: MultiPoly(1, {(2.7,): 0.5}), "exponents must be an int, not float"),
        (lambda: MultiPoly(1, {(2.7,): 1}), "exponents must be an int, not float"),
        (lambda: MultiPoly(1, {(Fraction(1),): 1}), "exponents must be an int, not Fraction"),
        (lambda: MultiPoly(1, {(2,): 0.5}), "coefficients must be exact, not float"),
        (lambda: MultiPoly(1, {(True,): 1}), "exponents must be an int, not bool"),
        (lambda: MultiPoly(1, {(1,): True}), "coefficients must be exact, not bool"),
        (lambda: MultiPoly.constant(2, 1.5), "coefficients must be exact, not float"),
        (lambda: MultiPoly.constant(2, False), "coefficients must be exact, not bool"),
    ],
    ids=["float-exponent-and-coefficient", "float-exponent", "fraction-exponent",
         "float-coefficient", "bool-exponent", "bool-coefficient", "float-constant",
         "bool-constant"],
)
def test_multipoly_rejects_inexact_terms(build, message):
    # an exponent must be an int; a coefficient may be any exact number
    with pytest.raises(TypeError, match=f"^{message}"):
        build()


def test_multipoly_keeps_exact_terms():
    p = MultiPoly(1, {(2,): 3, (1,): Fraction(1, 2), (0,): 0})
    assert p.terms == {(2,): Fraction(3), (1,): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in p.terms.values())
    assert MultiPoly.constant(2, 0) == 0 and MultiPoly.constant(2, Fraction(3, 2)) == Fraction(3, 2)


def test_evaluate_takes_exact_points_only():
    p = MultiPoly(2, {(1, 1): Fraction(1, 3)})
    assert p.evaluate((3, Fraction(1, 2))) == Fraction(1, 2)
    assert type(p.evaluate((3, 2))) is Fraction
    for point in [(0.5, 2), (True, 2)]:
        with pytest.raises(TypeError):
            p.evaluate(point)
