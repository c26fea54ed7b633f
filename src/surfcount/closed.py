"""Closed-form counts for the small surfaces.

Every explicitly known arc-diagram count lives here: discs, annuli, pants,
the four-boundary sphere and the one-boundary torus, together with the
annulus insular/traversing split, single-boundary collar counts, the pants
arc-type classification, and the region-refined small cases.  These values
are the recursion engine's base cases and the test suite's ground truth.

Conventions used throughout: counts are zero when the total number of
boundary points is odd; the all-zero vector admits exactly the empty
diagram; bar(b) = b for b > 0 and 1 for b = 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .exact import _reject, binomial


def bar(b: int) -> int:
    """b if b > 0, else 1 — the basepoint-count normalizer."""
    return b if b > 0 else 1


def catalan(m: int) -> int:
    return math.comb(2 * m, m) // (m + 1)


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise ArithmeticError(f"expected an integer, got {x}")
    return x.numerator


class NoClosedForm(ValueError):
    """Requested a closed form outside the supported (g, n) menu."""


def closed_G(g: int, n: int, b: list[int] | tuple[int, ...]) -> int:
    """Count of all arc diagrams, from the tabulated small-case formulas.

    Supported: (0,1), (0,2) both parity patterns, (0,3) both admissible
    parity patterns, and (1,1).
    """
    b = tuple(b)
    _reject(int, (g, n) + b, "g, n and the boundary point counts")
    if len(b) != n or any(x < 0 for x in b):
        raise ValueError("bad boundary vector")
    if (g, n) not in {(0, 1), (0, 2), (0, 3), (1, 1)}:
        raise NoClosedForm(f"no closed form for (g, n) = ({g}, {n})")
    if sum(b) % 2:
        return 0
    if (g, n) == (0, 1):
        return catalan(b[0] // 2)
    if (g, n) == (0, 2):
        b1, b2 = b
        m1, m2 = b1 // 2, b2 // 2
        cc = binomial(2 * m1, m1) * binomial(2 * m2, m2)
        if b1 % 2 == 0:  # both even (sum is even)
            if m1 + m2 == 0:
                return 1
            return _as_int(Fraction(m1 + m2 + m1 * m2, m1 + m2) * cc)
        return _as_int(Fraction((2 * m1 + 1) * (2 * m2 + 1), m1 + m2 + 1) * cc)
    if (g, n) == (0, 3):
        odds = [x for x in b if x % 2]
        evens = [x for x in b if x % 2 == 0]
        cc = 1
        for x in b:
            cc *= binomial(2 * (x // 2), x // 2)
        if not odds:
            m = [x // 2 for x in b]
            return (m[0] + 1) * (m[1] + 1) * (m[2] + 1) * cc
        # exactly two odd entries (sum is even)
        return odds[0] * odds[1] * (evens[0] // 2 + 1) * cc
    # (1, 1)
    m = b[0] // 2
    return _as_int(
        (Fraction(m * m, 12) + Fraction(5 * m, 12) + 1) * binomial(2 * m, m)
    )


def annulus_split(b1: int, b2: int) -> tuple[int, int]:
    """(insular, traversing) diagram counts on the annulus.

    Insular diagrams have every arc returning to its own boundary;
    traversing diagrams have at least one crossing arc, which forces all
    non-parallel structure.  The two add up to the full annulus count.
    """
    _reject(int, (b1, b2), "boundary point counts")
    if b1 < 0 or b2 < 0:
        raise ValueError("negative boundary count")
    if (b1 + b2) % 2:
        return (0, 0)
    m1, m2 = b1 // 2, b2 // 2
    cc = binomial(2 * m1, m1) * binomial(2 * m2, m2)
    if b1 % 2:  # both odd: every diagram traverses
        t = Fraction((2 * m1 + 1) * (2 * m2 + 1), m1 + m2 + 1) * cc
        return (0, _as_int(t))
    insular = cc
    if m1 == 0 or m2 == 0:
        return (insular, 0)
    return (insular, _as_int(Fraction(m1 * m2, m1 + m2) * cc))


def closed_N(g: int, n: int, b: list[int] | tuple[int, ...]) -> int:
    """Count of arc diagrams with no boundary-parallel arcs (small cases).

    Supported: (0,1), (0,2), (0,3), (0,4), (1,1).
    """
    b = tuple(b)
    _reject(int, (g, n) + b, "g, n and the boundary point counts")
    if len(b) != n or any(x < 0 for x in b):
        raise ValueError("bad boundary vector")
    if (g, n) not in {(0, 1), (0, 2), (0, 3), (0, 4), (1, 1)}:
        raise NoClosedForm(f"no closed form for (g, n) = ({g}, {n})")
    if sum(b) % 2:
        return 0
    if (g, n) == (0, 1):
        return 1 if b[0] == 0 else 0
    if (g, n) == (0, 2):
        return bar(b[0]) if b[0] == b[1] else 0
    if (g, n) == (0, 3):
        return bar(b[0]) * bar(b[1]) * bar(b[2])
    if (g, n) == (0, 4):
        if all(x == 0 for x in b):
            return 1
        odd = sum(1 for x in b if x % 2)
        corr = {0: Fraction(2), 2: Fraction(1, 2), 4: Fraction(2)}[odd]
        nhat = Fraction(sum(x * x for x in b), 4) + corr
        prod = 1
        for x in b:
            prod *= bar(x)
        return _as_int(prod * nhat)
    # (1, 1)
    b1 = b[0]
    if b1 == 0:
        return 1
    return _as_int(b1 * (Fraction(b1 * b1, 48) + Fraction(5, 12)))


def local_count(b: int, a: int) -> int:
    """Ways to fill a one-boundary collar: b outer points, a inner points.

    binom(b, (b-a)/2) * bar(a) when 0 <= a <= b with matching parity,
    else 0.
    """
    _reject(int, (b, a), "point counts")
    if b < 0 or a < 0:
        raise ValueError("negative point count")
    if a > b or (b - a) % 2:
        return 0
    return binomial(b, (b - a) // 2) * bar(a)


class PantsProfile(NamedTuple):
    """Arc-type census on a pair of pants without boundary-parallel arcs.

    p1, p2, p3 count arcs returning to boundary 1, 2, 3; t12, t23, t31
    count arcs joining the named pair of boundaries.
    """

    p1: int
    p2: int
    p3: int
    t12: int
    t23: int
    t31: int

    def boundary_points(self) -> tuple[int, int, int]:
        return (
            self.t12 + self.t31 + 2 * self.p1,
            self.t23 + self.t12 + 2 * self.p2,
            self.t31 + self.t23 + 2 * self.p3,
        )

    def admissible(self) -> bool:
        return pants_admissible(*self)


def pants_admissible(p1: int, p2: int, p3: int, t12: int, t23: int, t31: int) -> bool:
    """The exclusion rules of a pants profile: no count is negative, and arcs
    returning to one boundary leave no arc returning to another and no arc
    joining the other two."""
    if min(p1, p2, p3, t12, t23, t31) < 0:
        return False
    if p1 > 0 and (p2 or p3 or t23):
        return False
    if p2 > 0 and (p3 or p1 or t31):
        return False
    if p3 > 0 and (p1 or p2 or t12):
        return False
    return True


def pants_classify(b1: int, b2: int, b3: int) -> PantsProfile:
    """The unique arc-type profile on a pair of pants with the given
    boundary point counts (no boundary-parallel arcs).

    Triangle-inequality case: no returning arcs, t_ij = (b_i + b_j - b_k)/2.
    Otherwise the largest boundary sends returning arcs and the profile is
    forced.
    """
    b = (b1, b2, b3)
    _reject(int, b, "boundary point counts")
    if any(x < 0 for x in b):
        raise ValueError("negative boundary count")
    if sum(b) % 2:
        raise ValueError("no diagram: odd total boundary count")
    order = sorted(range(3), key=lambda i: b[i])
    i, j, k = order  # b[i] <= b[j] <= b[k]
    t = {(0, 1): 0, (1, 2): 0, (2, 0): 0}
    p = [0, 0, 0]

    def tkey(a, c):
        return (a, c) if (a, c) in t else (c, a)

    if b[i] + b[j] >= b[k]:
        t[(0, 1)] = (b[0] + b[1] - b[2]) // 2
        t[(1, 2)] = (b[1] + b[2] - b[0]) // 2
        t[(2, 0)] = (b[2] + b[0] - b[1]) // 2
    else:
        p[k] = (b[k] - b[i] - b[j]) // 2
        t[tkey(i, k)] = b[i]
        t[tkey(j, k)] = b[j]
    profile = PantsProfile(p[0], p[1], p[2], t[(0, 1)], t[(1, 2)], t[(2, 0)])
    if not profile.admissible() or profile.boundary_points() != b:
        raise RuntimeError(f"pants classification of {b} gave {profile}")
    return profile


def pants_regions(b1: int, b2: int, b3: int) -> tuple[int, int]:
    """(regions, t) for the unique pants diagram without parallel arcs.

    t = r - chi - half the boundary points; on pants chi = -1.
    """
    b = (b1, b2, b3)
    _reject(int, b, "boundary point counts")
    if any(x < 0 for x in b):
        raise ValueError("negative boundary count")
    if sum(b) % 2:
        raise ValueError("no diagram: odd total boundary count")
    half = sum(b) // 2
    zeros = sum(1 for x in b if x == 0)
    if zeros == 3:
        return (1, 2)
    if zeros == 2:
        return (half + 1, 2)
    if zeros == 1:
        return (half, 1)
    return (half - 1, 0)


def closed_refined(mode: str, g: int, n: int, b, t: int) -> int:
    """Region-refined closed forms for (0,1), (0,2), (0,3).

    mode 'G' counts all diagrams, mode 'N' only those without
    boundary-parallel arcs; t is the stable region parameter
    t = r - (2 - 2g - n) - half the boundary points.
    """
    b = tuple(b)
    _reject(int, (g, n, t) + b, "g, n, t and the boundary point counts")
    if mode not in ("G", "N"):
        raise ValueError("mode must be 'G' or 'N'")
    if len(b) != n or any(x < 0 for x in b):
        raise ValueError("bad boundary vector")
    if (g, n) not in {(0, 1), (0, 2), (0, 3)}:
        raise NoClosedForm(f"no refined closed form for (g, n) = ({g}, {n})")
    if sum(b) % 2:
        return 0
    if mode == "G":
        if (g, n) == (0, 1):
            return catalan(b[0] // 2) if t == 0 else 0
        if (g, n) == (0, 2):
            ins, trav = annulus_split(*b)
            if t == 0:
                return trav
            if t == 1:
                return ins
            return 0
        # (0, 3)
        odds = sorted(x for x in b if x % 2)
        evens = sorted(x for x in b if x % 2 == 0)
        cc = 1
        for x in b:
            cc *= binomial(2 * (x // 2), x // 2)
        if not odds:
            m1, m2, m3 = (x // 2 for x in b)
            if t == 0:
                return cc * m1 * m2 * m3
            if t == 1:
                return cc * (m1 * m2 + m2 * m3 + m3 * m1)
            if t == 2:
                return cc * (m1 + m2 + m3 + 1)
            return 0
        # two odd entries, one even
        o1, o2 = odds
        m3 = evens[0] // 2
        if t == 0:
            return cc * o1 * o2 * m3
        if t == 1:
            return cc * o1 * o2
        return 0
    # mode 'N'
    if (g, n) == (0, 1):
        return 1 if (b[0] == 0 and t == 0) else 0
    if (g, n) == (0, 2):
        if t == 0:
            return b[0] if (b[0] == b[1] and b[0] > 0) else 0
        if t == 1:
            return 1 if b == (0, 0) else 0
        return 0
    # (0, 3): value is bar-product times a 0/1 indicator keyed by the
    # number of zero entries — t must equal that census's region parameter.
    zeros = sum(1 for x in b if x == 0)
    expected_t = {0: 0, 1: 1, 2: 2, 3: 2}[zeros]
    if t != expected_t:
        return 0
    return bar(b[0]) * bar(b[1]) * bar(b[2])
