"""Orbifold Euler characteristics of the moduli spaces M_{g,n}.

Harer and Zagier (1986): chi(M_{g,1}) = -B_{2g}/(2g) for g >= 1,
chi(M_{0,3}) = 1, and forgetting a point gives
chi(M_{g,n+1}) = (2 - 2g - n) chi(M_{g,n}).  The all-even branch of the
lattice count takes this value at b = 0 (Norbury 2010); ``verify`` compares
the two.  Nothing here reads the counting engine or the closed forms.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _ints(*xs) -> None:
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in xs):
        raise TypeError("g, n and m must be ints")


def bernoulli(m: int) -> Fraction:
    """B_m, with B_1 = -1/2: B_0 = 1 and sum over k <= j of C(j + 1, k) B_k
    = 0 for every j >= 1."""
    _ints(m)
    if m < 0:
        raise ValueError("Bernoulli numbers need m >= 0")
    B = [Fraction(1)]
    for j in range(1, m + 1):
        B.append(-sum(comb(j + 1, k) * B[k] for k in range(j)) / (j + 1))
    return B[m]


def euler_characteristic(g: int, n: int) -> Fraction:
    """chi(M_{g,n}) for n >= 1 and 2g - 2 + n >= 1."""
    _ints(g, n)
    if g < 0 or n < 1 or 2 * g - 2 + n < 1:
        raise ValueError("chi(M_{g,n}) needs g >= 0, n >= 1 and 2g - 2 + n >= 1")
    k, chi = (3, Fraction(1)) if g == 0 else (1, -bernoulli(2 * g) / (2 * g))
    for m in range(k, n):
        chi *= 2 - 2 * g - m
    return chi
