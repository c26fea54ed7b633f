"""Auxiliary sum families.

Two groups of finite sums feed the polynomiality arguments and the
recursion bookkeeping:

* weighted two- and three-part compositions of k (families A, S, B, R and
  their parity-split variants B0/B1, R0/R1), which are odd quasi-polynomials
  in k and carry a sign convention extending them to negative k;

* the boundary-moment sums written p~, q~, P~, Q~ here, over a single
  collar, which factor through a recursively defined pair of integer
  polynomials p_alpha, q_alpha.

Everything is computed both by direct summation and by exact interpolation,
so the reference polynomial tables can be checked coefficient by coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .closed import bar
from .exact import MultiPoly, QuasiPoly, binomial, certify, interpolate_tensor

_ONE_INDEX = {"A", "S"}
_TWO_INDEX = {"B", "B0", "B1", "R", "R0", "R1"}


@dataclass(frozen=True)
class SumFamily:
    """A named sum family with its indices: A_m, S_m, B_{m,n}, R_{m,n},
    or the even/odd-p splits B0/B1, R0/R1."""

    tag: str
    m: int
    n: int | None = None

    def __post_init__(self):
        if self.tag not in _ONE_INDEX | _TWO_INDEX:
            raise ValueError(f"unknown family {self.tag!r}")
        if self.m < 0 or (self.n is not None and self.n < 0):
            raise ValueError("indices must be nonnegative")
        if self.tag in _TWO_INDEX and self.n is None:
            raise ValueError(f"family {self.tag} needs two indices")

    @property
    def degree(self) -> int:
        if self.tag in _ONE_INDEX:
            return 2 * self.m + 3
        return 2 * self.m + 2 * self.n + 5


def _sum_nonneg(fam: SumFamily, k: int) -> int:
    tag, m = fam.tag, fam.m
    total = 0
    if tag in _ONE_INDEX:
        for q in range(0, k + 1, 2):
            p = k - q
            if tag == "A":
                total += bar(p) * p ** (2 * m) * q
            else:  # S
                total += p ** (2 * m + 1) * q
        return total
    n = fam.n
    for r in range(0, k + 1, 2):
        for p in range(0, k - r + 1):
            if tag in ("B0", "R0") and p % 2:
                continue
            if tag in ("B1", "R1") and p % 2 == 0:
                continue
            q = k - r - p
            if tag.startswith("B"):
                total += bar(p) * bar(q) * p ** (2 * m) * q ** (2 * n) * r
            else:
                total += p ** (2 * m + 1) * q ** (2 * n + 1) * r
    return total


def sum_direct(fam: SumFamily, k: int) -> int:
    """Exact value of the defining finite sum, extended to k < 0 as an odd
    function: a negative argument negates the sum over -k, and k = 0 gives 0."""
    if k == 0:
        return 0
    if k < 0:
        return -_sum_nonneg(fam, -k)
    return _sum_nonneg(fam, k)


def fit_sum(fam: SumFamily) -> QuasiPoly:
    """Fit the family's even and odd branches as polynomials in k and
    validate against direct summation on 5 extra points per branch."""
    deg = fam.degree
    qp = QuasiPoly(1)
    for sig, start in (("e", 2), ("o", 1)):
        grid_pts = [start + 2 * i for i in range(deg + 1)]
        grid = {(x,): Fraction(sum_direct(fam, x)) for x in grid_pts}
        poly = interpolate_tensor(grid, deg)
        hold = [(grid_pts[-1] + 2 * (i + 1),) for i in range(5)]
        certify(str(fam), poly, lambda k: sum_direct(fam, k[0]), hold)
        qp.set_branch(sig, poly)
    return qp


# -- boundary-moment sums ----------------------------------------------------

@dataclass(frozen=True)
class NorburyPolyPair:
    """The degree-alpha integer polynomial pair (p_alpha, q_alpha) from the
    moment recurrences."""

    alpha: int
    p: MultiPoly
    q: MultiPoly


def _shift_back(f: list[int]) -> list[int]:
    """Substitute u -> u - 1 in a polynomial given by its ascending
    coefficient list."""
    return [
        sum(f[e] * binomial(e, j) * (-1) ** (e - j) for e in range(j, len(f)))
        for j in range(len(f))
    ]


def _add(*fs: list[int]) -> list[int]:
    """Sum of ascending coefficient lists, with trailing zeros dropped."""
    out = [sum(cs) for cs in zip_longest(*fs, fillvalue=0)]
    while out and not out[-1]:
        out.pop()
    return out


def norbury_pq(alpha: int) -> NorburyPolyPair:
    """p_alpha and q_alpha from their recurrences:

    p_{a+1}(u) = 4u^2 (p_a(u) - p_a(u-1)) + 4u p_a(u-1)
    q_{a+1}(u) = 4u^2 (q_a(u) - q_a(u-1)) + (4u+1) q_a(u)

    run on ascending integer coefficient lists, where prepending k zeros
    multiplies by u^k.
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    p = q = [1]
    for _ in range(alpha):
        p_back, q_back = _shift_back(p), _shift_back(q)
        p = _add([0, 0] + [4 * (a - b) for a, b in zip(p, p_back)], [0] + [4 * c for c in p_back])
        q = _add([0, 0] + [4 * (a - b) for a, b in zip(q, q_back)], [0] + [4 * c for c in q], q)
    for f in (p, q):
        if len(f) != alpha + 1 or f[-1] <= 0:
            raise ArithmeticError(f"moment polynomial of degree {alpha} has a wrong top term")
    p, q = (MultiPoly(1, {(e,): c for e, c in enumerate(f)}) for f in (p, q))
    return NorburyPolyPair(alpha, p, q)


def tilde_sum(which: str, alpha: int, n: int) -> int:
    """Direct evaluation of the collar moment sums.

    'p': sum over l of binom(2n, n-l) (2l)^(2 alpha + 1)
    'P': sum over l of binom(2n, n-l) bar(2l) (2l)^(2 alpha)
    'q' or 'Q': sum over l of binom(2n+1, n-l) (2l+1)^(2 alpha + 1)
    """
    if alpha < 0 or n < 0:
        raise ValueError("need alpha, n >= 0")
    total = 0
    for l in range(n + 1):
        if which == "p":
            total += binomial(2 * n, n - l) * (2 * l) ** (2 * alpha + 1)
        elif which == "P":
            total += binomial(2 * n, n - l) * bar(2 * l) * (2 * l) ** (2 * alpha)
        elif which in ("q", "Q"):
            total += binomial(2 * n + 1, n - l) * (2 * l + 1) ** (2 * alpha + 1)
        else:
            raise ValueError(f"unknown moment sum {which!r}")
    return total


def tilde_sum_factored(which: str, alpha: int, n: int) -> int:
    """The same moment sums through the polynomial factorizations:

    p~_a(n) = binom(2n,n) n p_a(n);  q~_a(n) = binom(2n,n) (2n+1) q_a(n);
    P~_a = p~_a + binom(2n,n) [a=0];  Q~_a = q~_a.
    """
    pair = norbury_pq(alpha)
    cc = binomial(2 * n, n)
    if which == "p":
        val = Fraction(cc * n) * pair.p.evaluate((n,))
    elif which == "P":
        val = Fraction(cc * n) * pair.p.evaluate((n,)) + (cc if alpha == 0 else 0)
    elif which in ("q", "Q"):
        val = Fraction(cc * (2 * n + 1)) * pair.q.evaluate((n,))
    else:
        raise ValueError(f"unknown moment sum {which!r}")
    if val.denominator != 1:
        raise ArithmeticError(f"factored {which}~_{alpha}({n}) = {val} is not an integer")
    return val.numerator
