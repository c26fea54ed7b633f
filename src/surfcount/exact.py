"""Exact arithmetic kernel.

Big integers, reduced rationals, sparse multivariate polynomials (a value
type with no ring arithmetic), parity-indexed quasi-polynomials,
tensor-grid Lagrange interpolation (solved axis by axis, one univariate
basis per axis, in integers over one common denominator), and
``certify``, the held-out check every fit and every claimed zero branch
goes through (integer coefficients over the lcm of the polynomial's
denominators).  Interpolation and certification build a ``Fraction`` only
for their output coefficients.  Everything in this module but ``_say``, the
one writer of a stderr line, is pure and exact; no floating point enters
the computation path anywhere in the package.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain, product
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Exponents = tuple[int, ...]
Scalar = Union[int, Fraction]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient of two ints as a total function.

    Standard value for 0 <= k <= n; otherwise 0, as for k < 0 and k > n.
    Callers with a possibly half-integral index test its parity first.
    """
    if n < 0 or k < 0 or k > n:
        return 0
    return math.comb(n, k)


def frac_str(x: Scalar) -> str:
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    f = Fraction(x)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


parse_frac = Fraction  # the inverse of frac_str


def ordered_splits(items: Sequence) -> Iterator[tuple[tuple, tuple]]:
    """All ordered pairs of disjoint tuples covering ``items``."""
    m = len(items)
    for mask in range(1 << m):
        left = tuple(items[i] for i in range(m) if mask >> i & 1)
        right = tuple(items[i] for i in range(m) if not mask >> i & 1)
        yield left, right


def vectors_with_sum_at_most(n: int, bound: int) -> Iterator[tuple[int, ...]]:
    """All tuples of n nonnegative integers with sum <= bound."""
    if n == 0:
        if bound >= 0:
            yield ()
        return
    for head in range(bound + 1):
        for tail in vectors_with_sum_at_most(n - 1, bound - head):
            yield (head,) + tail


class DegenerateGridError(ValueError):
    """Raised when an interpolation grid is not a usable tensor product."""


class SeriesIdentityError(ValueError):
    """An identity between series failed at some coefficient."""


class FitInvalid(ValueError):
    """Raised when a fitted polynomial fails held-out validation."""


def _say(line: str) -> None:
    """Write one line to stderr.  A stderr that is missing (None) or cannot
    be written takes nothing: the line never lands on stdout, and the exit
    code stays the one it goes with."""
    try:
        if sys.stderr is not None:
            print(line, file=sys.stderr)
    except OSError:
        pass


_KINDS: dict = {}  # kind -> the frozenset of its types, built on first use


def _reject(kind: type | tuple[type, ...], items: Iterable, what: str) -> None:
    """Raise TypeError naming the first item that is a bool or not a ``kind``."""
    items = tuple(items)
    if (kinds := _KINDS.get(kind)) is None:
        kinds = _KINDS[kind] = frozenset(kind if isinstance(kind, tuple) else (kind,))
    # the fast test passes the kinds themselves; their subclasses other than bool pass the loop
    if kinds.issuperset(map(type, items)):
        return
    want = "an int" if kind is int else "exact"
    for x in items:
        if isinstance(x, bool) or not isinstance(x, kind):
            raise TypeError(f"{what} must be {want}, not {type(x).__name__}: {x!r}")


def _collect(terms: Mapping | Iterable, keylen: int, what: str) -> dict[tuple, Scalar]:
    """Sum exact terms by key: the one way an exact sparse container takes them.

    ``terms`` is a mapping or an iterable of (key, coefficient) pairs.  Key
    entries must be ints (``what`` names them in the TypeError) and
    coefficients ints or Fractions; every key must have ``keylen`` entries.
    Returns every key that occurs, zero sums included, with the sum of its
    coefficients.
    """
    items = list(terms.items() if isinstance(terms, Mapping) else terms)
    _reject(int, chain.from_iterable(key for key, _ in items), what)
    _reject((int, Fraction), (c for _, c in items), "coefficients")
    sums: dict[tuple, Scalar] = {}
    for key, coeff in items:
        key = tuple(key)
        if len(key) != keylen:
            raise ValueError(f"exponent key {key} has wrong length (want {keylen})")
        if key in sums:
            sums[key] += coeff
        else:
            sums[key] = coeff
    return sums


class MultiPoly:
    """Sparse polynomial in a fixed number of variables over Fraction.

    A value type: stored as a map exponent-vector -> nonzero coefficient,
    with comparison, evaluation, structure maps and serialization but no
    ring arithmetic.  Terms come as a mapping or as (exponents, coefficient)
    pairs, repeated exponents summed.  nvars and exponents must be ints and
    coefficients ints or Fractions (a bool is neither).  Instances are
    treated as immutable; all operations return new objects.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | Iterable = ()):
        _reject(int, (nvars,), "nvars")
        if nvars < 0:
            raise ValueError("nvars must be >= 0")
        sums = _collect(terms, nvars, "exponents")
        for exps in sums:
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
        self.nvars = nvars
        self.terms = {e: Fraction(c) for e, c in sums.items() if c}

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: Scalar) -> "MultiPoly":
        return cls(nvars, {(0,) * nvars: c})

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.nvars, other)
        return isinstance(other, MultiPoly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError("point has wrong length")
        _reject((int, Fraction), point, "point entries")
        total = Fraction(0)
        for exps, coeff in self.terms.items():
            total += coeff * math.prod(map(pow, point, exps))
        return total

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, i: int) -> int:
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def coefficient(self, exps: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def homogeneous_part(self, degree: int) -> "MultiPoly":
        return MultiPoly(self.nvars, {e: c for e, c in self.terms.items() if sum(e) == degree})

    def permute_vars(self, perm: Sequence[int]) -> "MultiPoly":
        """Relabel variables: new variable i reads old variable perm[i]."""
        if sorted(perm) != list(range(self.nvars)):
            raise ValueError("not a permutation")
        return MultiPoly(self.nvars, ((tuple(e[p] for p in perm), c) for e, c in self.terms.items()))

    def substitute_zero(self, positions: Sequence[int]) -> "MultiPoly":
        """Set the listed variables to 0 and drop them from the variable list."""
        keep = [i for i in range(self.nvars) if i not in set(positions)]
        # the kept terms are zero at every dropped position, so no two collide
        return MultiPoly(len(keep), {
            tuple(e[i] for i in keep): c
            for e, c in self.terms.items()
            if not any(e[i] for i in positions)
        })

    def sorted_terms(self) -> list[tuple[Exponents, Fraction]]:
        """Terms in graded-lex order (total degree, then exponent vector)."""
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), t[0]))

    # -- serialization and display -----------------------------------------

    def to_json_dict(self, varnames: Sequence[str] | None = None) -> dict:
        names = list(varnames) if varnames else [f"b{i+1}" for i in range(self.nvars)]
        if len(names) != self.nvars:
            raise ValueError("varnames has wrong length")
        return {
            "vars": names,
            "terms": [{"exps": list(e), "coeff": frac_str(c)} for e, c in self.sorted_terms()],
        }

    @classmethod
    def from_json_dict(cls, d: Mapping) -> "MultiPoly":
        nvars = len(d["vars"])
        return cls(nvars, {tuple(t["exps"]): parse_frac(t["coeff"]) for t in d["terms"]})

    def pretty(self, varnames: Sequence[str] | None = None) -> str:
        if not self.terms:
            return "0"
        names = list(varnames) if varnames else [f"b{i+1}" for i in range(self.nvars)]
        pieces = []
        for exps, coeff in self.sorted_terms():
            factors = []
            for name, e in zip(names, exps):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                pieces.append(frac_str(coeff))
            elif coeff == 1:
                pieces.append(body)
            elif coeff == -1:
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{frac_str(coeff)}*{body}")
        out = pieces[0]
        for p in pieces[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out

    def __repr__(self):
        return f"MultiPoly({self.pretty()})"


# -- parity signatures and quasi-polynomials -------------------------------

EVEN, ODD, ZERO = "e", "o", "z"


def signature_matches(sig: str, b: Sequence[int]) -> bool:
    """Whether a branch signature is compatible with a concrete vector.

    'e' wants an even entry, 'o' an odd entry, and 'z' an entry pinned to 0
    (used by the region-refined fits, where zero acts as a third parity).
    """
    if len(sig) != len(b):
        return False
    for ch, x in zip(sig, b):
        if ch == EVEN and x % 2 != 0:
            return False
        if ch == ODD and x % 2 != 1:
            return False
        if ch == ZERO and x != 0:
            return False
    return True


class QuasiPoly:
    """A family of polynomials indexed by parity signature.

    Branch keys are words over {'e','o'} (plus 'z' for slots pinned to zero
    in refined fits).  Evaluation picks the most specific compatible branch
    ('z' beats 'e' on a zero entry); a missing branch means the zero
    function.  A branch containing k 'z' slots stores a polynomial in the
    remaining n-k variables.
    """

    __slots__ = ("nvars", "branches")

    def __init__(self, nvars: int, branches: Mapping[str, MultiPoly] | None = None):
        _reject(int, (nvars,), "nvars")
        self.nvars = nvars
        self.branches: dict[str, MultiPoly] = {}
        for sig, poly in (branches or {}).items():
            self.set_branch(sig, poly)

    def set_branch(self, sig: str, poly: MultiPoly) -> None:
        if len(sig) != self.nvars or any(ch not in (EVEN, ODD, ZERO) for ch in sig):
            raise ValueError(f"bad signature {sig!r}")
        free = sum(1 for ch in sig if ch != ZERO)
        if poly.nvars != free:
            raise ValueError(f"branch {sig!r} wants a {free}-variable polynomial")
        self.branches[sig] = poly

    def eval(self, b: Sequence[int]) -> Fraction:
        if len(b) != self.nvars:
            raise ValueError("length mismatch")
        if any(x < 0 for x in b):
            raise ValueError("negative entry")
        best = None
        for sig in self.branches:
            if signature_matches(sig, b):
                # prefer the signature with more pinned slots
                key = sig.count(ZERO)
                if best is None or key > best[1]:
                    best = (sig, key)
        if best is None:
            return Fraction(0)
        sig = best[0]
        poly = self.branches[sig]
        point = [b[i] for i in range(self.nvars) if sig[i] != ZERO]
        return poly.evaluate(point)

    def __eq__(self, other):
        return (
            isinstance(other, QuasiPoly)
            and self.nvars == other.nvars
            and self.branches == other.branches
        )

    def __repr__(self):
        body = ", ".join(f"{s}: {p.pretty()}" for s, p in sorted(self.branches.items()))
        return f"QuasiPoly({body})"

    def to_json_dict(self) -> dict:
        return {
            "nvars": self.nvars,
            "branches": {s: p.to_json_dict() for s, p in sorted(self.branches.items())},
        }


# -- exact interpolation ---------------------------------------------------

def _lagrange_basis(nodes: Sequence[int]) -> tuple[list[list[int]], int]:
    """Univariate Lagrange basis for distinct integer nodes, in integers
    over one common denominator.

    Returns ``(rows, L)``: for node x_i, ``rows[i]`` is the coefficient
    list (ascending powers) of ``L // d_i * prod_{j != i} (u - x_j)`` with
    ``d_i = prod_{j != i} (x_i - x_j)`` and ``L = lcm(d_i)`` > 0, so
    ``rows[i] / L`` is 1 at x_i and 0 at the other nodes.
    """
    rows, dens = [], []
    for i, xi in enumerate(nodes):
        coeffs, d = [1], 1
        for j, xj in enumerate(nodes):
            if j != i:
                # multiply by (u - xj)
                coeffs = [a - xj * b for a, b in zip([0] + coeffs, coeffs + [0])]
                d *= xi - xj
        rows.append(coeffs)
        dens.append(d)
    L = math.lcm(*dens)
    return [[L // d * c for c in row] for row, d in zip(rows, dens)], L


def interpolate_tensor(grid: Mapping[tuple, Scalar], degree_bound: int) -> MultiPoly:
    """Unique polynomial of per-variable degree <= degree_bound through a
    full tensor-product grid of values; exact rational arithmetic.

    The grid keys are ``int`` coordinate vectors and the values ``int`` or
    ``Fraction`` (a bool or any other type raises TypeError); every
    combination of the per-variable coordinate sets must be present, and
    each variable must offer at least degree_bound + 1 distinct
    coordinates.  With more coordinates than that, an interpolant of
    higher degree in some variable raises FitInvalid.
    """
    if degree_bound < 0:
        raise ValueError(f"degree bound must be >= 0, not {degree_bound}")
    if not grid:
        raise DegenerateGridError("degenerate grid: empty")
    keys = list(grid)
    nvars = len(keys[0])
    if any(len(k) != nvars for k in keys):
        raise DegenerateGridError("degenerate grid: ragged keys")
    _reject(int, (x for k in keys for x in k), "grid coordinates")
    _reject((int, Fraction), grid.values(), "grid values")
    axes = [sorted({k[i] for k in keys}) for i in range(nvars)]
    for ax in axes:
        if len(ax) < degree_bound + 1:
            raise DegenerateGridError("degenerate grid: too few coordinates on an axis")
    expected = 1
    for ax in axes:
        expected *= len(ax)
    if len(grid) != expected or any(pt not in grid for pt in product(*axes)):
        raise DegenerateGridError("degenerate grid: not a full tensor product")

    # Integer values over one common denominator ``den``; every axis
    # multiplies it by its basis denominator.
    den = math.lcm(*(v.denominator for v in grid.values()))
    coeffs = {pt: v.numerator * (den // v.denominator) for pt, v in grid.items()}
    # Separable solve: on each axis in turn, replace the node coordinate of
    # every entry by the power coefficients of its Lagrange basis polynomial.
    for i, nodes in enumerate(axes):
        rows, L = _lagrange_basis(nodes)
        basis = dict(zip(nodes, rows))
        den *= L
        nxt: dict[tuple, int] = {}
        for pt, v in coeffs.items():
            if v:
                head, tail = pt[:i], pt[i + 1 :]
                for p, c in enumerate(basis[pt[i]]):
                    if c:
                        key = head + (p,) + tail
                        nxt[key] = nxt.get(key, 0) + v * c
        coeffs = nxt
    terms = {e: Fraction(c, den) for e, c in coeffs.items() if c}
    if any(len(ax) > degree_bound + 1 for ax in axes):
        for e in terms:
            if max(e) > degree_bound:
                raise FitInvalid(f"interpolant has degree {max(e)} > {degree_bound} in a variable")
    res = MultiPoly.__new__(MultiPoly)
    res.nvars, res.terms = nvars, terms
    return res


def certify(
    ctx: str, poly: MultiPoly, value: Callable[[tuple], Scalar], points: Iterable[tuple]
) -> int:
    """Check a fit against the function it claims to be on held-out points.

    Raises FitInvalid at the first point where ``poly`` and ``value``
    disagree; a claimed zero branch is certified as the zero polynomial.
    The polynomial is scaled once to integer coefficients over the lcm of
    its denominators, so an integer point is evaluated in integers.
    Returns the number of points checked.
    """
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    scaled = [(exps, c.numerator * (den // c.denominator)) for exps, c in poly.terms.items()]
    checked = 0
    for p in points:
        if len(p) != poly.nvars:
            raise ValueError("point has wrong length")
        if sum(c * math.prod(map(pow, p, exps)) for exps, c in scaled) != value(p) * den:
            raise FitInvalid(f"{ctx}: held-out mismatch at {p}")
        checked += 1
    return checked
