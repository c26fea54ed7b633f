"""Memoized exact evaluation of the recursive arc-diagram counts.

The memo is keyed by ``(family, g, n, b)``, with ``b`` sorted decreasingly
since every count is symmetric in the boundary labels.  Families: ``G``
(all diagrams), ``N`` (no boundary-parallel arcs), ``Gr`` (all diagrams by
number r of complementary regions), ``Nt`` (parallel-free diagrams by the
stable region parameter t = r - (2 - 2g - n) - half the boundary points),
``LatticeN`` (the rational lattice-count twin of the normalized
parallel-free count), and ``Gt``, which ``count_G_t`` assembles from ``Nt``.

Each step removes the arc at the first (maximal) entry: it cuts a handle,
joins another boundary, or separates the surface (summed over the genus
and boundary subsets of the pieces).  The step has two shapes, each written
once: A (``G``, ``Gr``) splits the other points with unit weights; B
(``N``, ``Nt``, ``LatticeN``) lets the arc take a run of m points along,
weighted by the family's coefficient rule, admits no disc or annulus piece,
and reads the join difference term as is (never negative on a maximal
entry).  ``G`` and ``N`` carry an ``int``.  ``Gr`` and ``Nt`` carry the
whole refinement in one entry, as a ``_Grades`` polynomial in the grading
variable r or t: the pieces of a split multiply (their grades add), and a
join onto an empty boundary multiplies by the variable.  ``LatticeN``
carries a ``Fraction`` and divides by the first entry at the end.

Each body reads each distinct child about once.  A cut leaving runs (i, j)
and one leaving (j, i) name one key, read once and counted twice.  Shape B's
two join sums (around the sum and the difference of the two boundaries) are
one pass over the points left behind.  A separation and its mirror image
(pieces swapped) give the same term, so a body sums only the separations
whose first piece keeps the second entry of b, and counts each twice; with
one boundary it sums the genus splits g1 <= g - g1, and counts a split into
equal genera once (shape A also folds its runs i <-> j there).  Per separation
the values of the two pieces are read once into lists, and shape B's double
sum over the runs on both sides of the arc is formed from them.

Bodies are generators yielding each child key missing from the memo;
``_eval`` runs them on an explicit stack, so no input meets Python's
recursion limit.  Every edge lowers ``(2g + n - 2, sum(b))``
lexicographically; a key met again on its own stack raises RuntimeError.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import product, zip_longest
from operator import mul
from typing import Callable, NamedTuple

try:  # CPython's own SHA-256: hashlib would load OpenSSL, 3.7 MB per process
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .closed import bar, catalan, closed_N, closed_refined
from .exact import binomial, ordered_splits

_DISC_OR_ANNULUS = {(0, 1), (0, 2)}
_CLOSED_N = {(0, 1), (0, 2), (0, 3)}


class _Grades(tuple):
    """Coefficients c[k] of a polynomial in the grading variable (r or t),
    without trailing zeros: scalars scale it, and the product of two glued
    pieces is the convolution, since their grades add."""

    __slots__ = ()

    def __add__(self, other: _Grades) -> _Grades:
        return _trim([a + c for a, c in zip_longest(self, other, fillvalue=0)])

    def __mul__(self, other) -> _Grades:
        if not isinstance(other, _Grades):
            return _trim([c * other for c in self])
        out = [0] * (len(self) + len(other) - 1)
        for i, a in enumerate(self):
            if a:
                for j, c in enumerate(other, i):
                    out[j] += a * c
        return _trim(out)

    __rmul__ = __mul__

    def coeff(self, k: int) -> int:
        return self[k] if 0 <= k < len(self) else 0

    def __str__(self) -> str:  # the cache text
        return ",".join(map(str, self)) or "-"


def _trim(coeffs: list) -> _Grades:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return _Grades(coeffs)


class _Memo(dict):
    """The memo table.  A missing key answers with its family's base value,
    or None when its body has to run; base values are never stored."""

    def __missing__(self, key):
        return _FAMILIES[key[0]].base(*key[1:])


_MEMO = _Memo()


def clear_memo() -> None:
    _MEMO.clear()


def memo_size() -> int:
    return len(_MEMO)


def _canon(b) -> tuple[int, ...]:
    return tuple(sorted(b, reverse=True))


def _check(g: int, n: int, b, *grades: int) -> tuple[int, ...]:
    b = tuple(b)
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (g, n, *b, *grades)):
        raise TypeError("g, n, the boundary point counts, r and t must be ints")
    if g < 0:
        raise ValueError("genus must be >= 0")
    if n < 1 or len(b) != n:
        raise ValueError("need n >= 1 boundary components and len(b) == n")
    if any(x < 0 for x in b):
        raise ValueError("boundary point counts must be >= 0")
    return b


# -- base values; None sends the key to its family's body ---------------------

def _base_G(g, n, b):
    if g < 0 or sum(b) % 2:
        return 0
    return None if b[0] else 1  # all entries zero: the empty diagram


def _base_Gr(g, n, b):
    if g < 0 or sum(b) % 2:
        return _Grades()
    return None if b[0] else _Grades((0, 1))  # one region


def _base_N(g, n, b):
    if g < 0 or sum(b) % 2:
        return 0
    if (g, n) in _CLOSED_N:
        return closed_N(g, n, b)
    return None if b[0] else 1


def _base_Nt(g, n, b):
    if g < 0 or sum(b) % 2:
        return _Grades()
    if (g, n) in _CLOSED_N:
        return _trim([closed_refined("N", g, n, b, t) for t in range(2 * g + n)])
    return None if b[0] else _Grades((0,) * (2 * g + n - 1) + (1,))


def _base_lattice(g, n, b):
    if sum(b) % 2:
        return Fraction(0)
    if (g, n) == (0, 3):
        return Fraction(1)
    if (g, n) == (1, 1):
        return Fraction(b[0] ** 2, 48) - Fraction(1, 12)
    return None


# -- the two recursion shapes -------------------------------------------------

def _pieces(name: str, g: int, side: tuple[int, ...], runs: range):
    """The values of the pieces (g, (x,) + side) for x in runs, as a list;
    each key is read once and yielded to the driver when missing."""
    memo, n = _MEMO, 1 + len(side)
    values = []
    for x in runs:
        key = (name, g, n, _canon((x,) + side))
        if (v := memo[key]) is None:
            v = yield key
        values.append(v)
    return values


def _halves(g: int, rest: tuple[int, ...]):
    """The arc's separations up to mirror image, as (g1, left, right, own):
    the piece of genus g1 keeps the entries left, the other piece the entries
    right.  Swapping the two pieces (and the runs beside the arc) gives the
    same term, so each separation stands for two, except one that is its own
    mirror image (own: n = 1 and g1 = g - g1)."""
    if rest:  # the left piece holds rest[0]
        for left, right in ordered_splits(rest[1:]):
            for g1 in range(g + 1):
                yield g1, rest[:1] + left, right, False
    else:
        for g1 in range(g // 2 + 1):
            yield g1, (), (), 2 * g1 == g


def _shape_a(fam: _Family, name: str, g: int, n: int, b: tuple[int, ...]):
    """All arc diagrams: the arc's ends split the other b1 - 2 points."""
    memo = _MEMO
    b1, rest = b[0], b[1:]
    acc = fam.zero
    if g:  # cut along the arc: the genus drops; runs (i, j) and (j, i) are one key
        for i in range(b1 // 2):
            j = b1 - 2 - i
            key = (name, g - 1, n + 1, _canon((i, j) + rest))
            if (v := memo[key]) is None:
                v = yield key
            acc += v if i == j else 2 * v
    for idx, bk in enumerate(rest):  # the arc runs to another boundary
        if bk:
            key = (name, g, n - 1, _canon((b1 + bk - 2,) + rest[:idx] + rest[idx + 1 :]))
            if (v := memo[key]) is None:
                v = yield key
            acc += bk * v
    for g1, left, right, own in _halves(g, rest):  # the arc separates, runs i + j = b1 - 2
        # pieces with odd totals are empty
        U = yield from _pieces(name, g1, left, range(sum(left) % 2, b1 - 1, 2))
        if own:  # fold i <-> j as well; the middle run pairs with itself once
            half, middle = divmod(len(U), 2)
            pairs = zip(U[:half], reversed(U))
            if middle:
                acc += U[half] * U[half]
        else:
            V = yield from _pieces(name, g - g1, right, range(sum(right) % 2, b1 - 1, 2))
            pairs = zip(U, reversed(V))
        for u, v in pairs:
            acc += 2 * u * v
    return acc


def _lowest_run(run_w: Callable, total: int) -> int:
    """The shortest run of the parity of total that has a nonzero weight."""
    x = total % 2
    return x if run_w(x) else x + 2


def _shape_b(fam: _Family, name: str, g: int, n: int, b: tuple[int, ...]):
    """Parallel-free shape: the arc takes a run of m points with it."""
    memo, run_w, join_w = _MEMO, fam.run_w, fam.join_w
    b1, rest = b[0], b[1:]
    acc = fam.zero
    if g:  # the arc and its run are cut away: the genus drops
        for m in range(2, b1 + 1, 2):
            for i in range((b1 - m) // 2 + 1):  # runs (i, j) and (j, i) are one key
                j = b1 - m - i
                if w := run_w(i) * run_w(j) * (m // 2):
                    key = (name, g - 1, n + 1, _canon((i, j) + rest))
                    if (v := memo[key]) is None:
                        v = yield key
                    acc += (w if i == j else 2 * w) * v
    for idx, bj in enumerate(rest):  # the arc joins boundary j: sum and difference
        others = rest[:idx] + rest[idx + 1 :]
        for x in range(b1 + bj - 2, -1, -2):  # x points stay on the joined boundary
            w = join_w(bj, x, b1 + bj - x)
            if x <= b1 - bj - 2:  # the difference leaves x points as well
                w += join_w(bj, x, b1 - bj - x)
            if w:
                key = (name, g, n - 1, _canon((x,) + others))
                if (v := memo[key]) is None:
                    v = yield key
                # joining an empty boundary creates a region
                acc += (w if bj else w * fam.region) * v
    for g1, left, right, own in _halves(g, rest):  # the arc separates
        g2 = g - g1
        if (g1, 1 + len(left)) in _DISC_OR_ANNULUS or (g2, 1 + len(right)) in _DISC_OR_ANNULUS:
            continue
        # runs i | m | j along b1 with i + m + j = b1; pieces with odd totals
        # are empty, and runs that weigh nothing are not read
        lo, ro = _lowest_run(run_w, sum(left)), _lowest_run(run_w, sum(right))
        U = yield from _pieces(name, g1, left, range(lo, b1 - 1 - ro, 2))
        if own:  # the double sum below holds both (i, j) and its mirror (j, i)
            V = U
        else:
            V = yield from _pieces(name, g2, right, range(ro, b1 - 1 - lo, 2))
        # with i = lo + 2p and j = ro + 2q, the arc takes m = 2(k - p - q) points
        k = len(U)
        weighted = [run_w(ro + 2 * q) * v for q, v in enumerate(V)]
        sep = fam.zero
        for p, u in enumerate(U):
            if u:
                inner = sum(map(mul, range(k - p, 0, -1), weighted), fam.zero)
                sep += run_w(lo + 2 * p) * u * inner
        acc += sep if own else 2 * sep
    return acc / b1 if fam.per_b1 else acc


class _Family(NamedTuple):
    body: Callable  # _shape_a or _shape_b
    base: Callable  # (g, n, b) -> base value, or None
    zero: object  # the value of an empty sum
    region: object = 1  # the factor for one more region: the grading variable
    run_w: Callable | None = None
    join_w: Callable | None = None
    per_b1: bool = False


# Coefficient rules of shape B: an arc that takes m points and leaves runs of
# i and j on its sides weighs run_w(i) * run_w(j) * m/2, and join_w(bj, x, m)
# weighs a join onto a boundary with bj points that takes m points and leaves
# x.  The arc weight is symmetric in i and j, so a body reads the key of the
# runs (i, j) once and counts it twice.  The lattice weights vanish on an
# empty run, so its zero entries are never queried.
_N_RULE = (lambda x: 1, lambda bj, x, m: (m // 2) * bar(bj))
_LATTICE_RULE = (lambda x: x, lambda bj, x, m: x * (m // 2))

_FAMILIES = {
    "G": _Family(_shape_a, _base_G, 0),
    "Gr": _Family(_shape_a, _base_Gr, _Grades()),
    "N": _Family(_shape_b, _base_N, 0, 1, *_N_RULE),
    "Nt": _Family(_shape_b, _base_Nt, _Grades(), _Grades((0, 1)), *_N_RULE),
    "LatticeN": _Family(
        _shape_b, _base_lattice, Fraction(0), 1, *_LATTICE_RULE, per_b1=True
    ),
}


def _body(key):
    fam = _FAMILIES[key[0]]
    return fam.body(fam, *key)


def _eval(key):
    """The value of one key: bodies of missing entries run on an explicit
    stack, each resumed with the value of the child it yielded."""
    value = _MEMO[key]
    if value is not None:
        return value
    stack = [(key, _body(key))]
    active = {key}
    while stack:
        key, body = stack[-1]
        try:
            child = body.send(value)
        except StopIteration as done:
            value = _MEMO[key] = done.value
            stack.pop()
            active.discard(key)
            continue
        if child in active:
            raise RuntimeError(f"engine recursion revisits {child} on its own stack")
        stack.append((child, _body(child)))
        active.add(child)
        value = None
    return value


# -- public counts --------------------------------------------------------------

def count_G(g: int, n: int, b) -> int:
    """Number of arc diagrams, every arc type allowed."""
    return _eval(("G", g, n, _canon(_check(g, n, b))))


def count_N(g: int, n: int, b) -> int:
    """Number of arc diagrams with no boundary-parallel arcs."""
    return _eval(("N", g, n, _canon(_check(g, n, b))))


def count_G_r(g: int, n: int, b, r: int) -> int:
    """Arc diagrams whose complement has exactly r regions."""
    return _eval(("Gr", g, n, _canon(_check(g, n, b, r)))).coeff(r)


def count_N_t(g: int, n: int, b, t: int) -> int:
    """Parallel-free arc diagrams with stable region parameter t."""
    return _eval(("Nt", g, n, _canon(_check(g, n, b, t)))).coeff(t)


def _collars(b):
    """(ways to fill the boundary collars, canonical core) pairs."""
    for a in product(*(range(x % 2, x + 1, 2) for x in b)):
        w = 1
        for x, y in zip(b, a):
            w *= binomial(x, (x - y) // 2)
        yield w, _canon(a)


def count_G_t(g: int, n: int, b, t: int) -> int:
    """All-diagram counts refined by t, assembled from the parallel-free
    refined counts by filling boundary collars (collar filling preserves t).
    """
    b = _check(g, n, b, t)
    if sum(b) % 2:
        return 0
    if (g, n) == (0, 1):  # every disc diagram has t = 0
        return catalan(b[0] // 2) if t == 0 else 0
    key = ("Gt", g, n, _canon(b))
    if (vec := _MEMO.get(key)) is None:
        vec = _MEMO[key] = sum((w * _eval(("Nt", g, n, a)) for w, a in _collars(b)), _Grades())
    return vec.coeff(t)


def count_G_t_via_r(g: int, n: int, b, t: int) -> int:
    """Independent route to the same refined count through the region-count
    recursion, via r = t + (2 - 2g - n) + half the boundary points."""
    b = _check(g, n, b, t)
    r = t + (2 - 2 * g - n) + sum(b) // 2
    return _eval(("Gr", g, n, _canon(b))).coeff(r)


def count_lattice(g: int, n: int, b) -> Fraction:
    """The rational lattice-count twin of the normalized parallel-free
    count: same recursion with the bar factors dropped, so zero entries are
    annihilated by the weights and are never queried.  Odd totals count
    zero, as lattice points of an odd total do not exist."""
    b = _check(g, n, b)
    if 2 * g - 2 + n < 1:
        raise ValueError("lattice counts need 2g - 2 + n >= 1: no disc or annulus")
    if not all(b):
        raise ValueError("lattice counts require strictly positive entries")
    return _eval(("LatticeN", g, n, _canon(b)))


# -- relations ---------------------------------------------------------------

def convolve_G_from_N(g: int, n: int, b) -> int:
    """Assemble the all-diagram count by filling boundary collars around
    every parallel-free core: sum over admissible core boundary vectors a of
    the product of collar binomials times the core count."""
    b = _check(g, n, b)
    if (g, n) == (0, 1):
        raise ValueError("collar convolution does not apply to the disc")
    return sum(w * _eval(("N", g, n, a)) for w, a in _collars(b))


def dilaton_reduce(g: int, n: int, b, r: int) -> int:
    """Fill in an unmarked boundary: with b1 = 0 and n >= 2, the refined
    count equals r times the count with that boundary forgotten."""
    b = _check(g, n, b, r)
    if n < 2:
        raise ValueError("need n >= 2")
    if b[0] != 0:
        raise ValueError("first entry must be 0")
    return r * _eval(("Gr", g, n - 1, _canon(b[1:]))).coeff(r)


# -- optional persistent cache ------------------------------------------------

CACHE_HEADER = "surfcount-cache v2"


def _read_grades(text: str) -> _Grades:
    return _Grades(() if text == "-" else map(int, text.split(",")))


_READ = dict(G=int, N=int, LatticeN=Fraction, Gr=_read_grades, Nt=_read_grades, Gt=_read_grades)


def save_cache(path: str) -> int:
    """Write the memo table to a line-based cache file, replacing it
    atomically; the header carries the record count and the SHA-256 of the
    body.  Returns the number of records written."""
    body = "".join(
        f"{name} {g} {n} {','.join(map(str, b))} {v}\n"
        for (name, g, n, b), v in sorted(_MEMO.items())
    )
    digest = sha256(body.encode("ascii")).hexdigest()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"{CACHE_HEADER} {len(_MEMO)} {digest}\n{body}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    return len(_MEMO)


def load_cache(path: str) -> int:
    """Load a cache file into the memo table.  A file of another version, or
    with a wrong digest, record count or record, is ignored as a whole with a
    warning on stderr.  Returns the number of records loaded."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return 0
    try:
        head, _, body = data.partition(b"\n")
        fields = head.decode("ascii").rsplit(" ", 2)
        if len(fields) != 3 or fields[0] != CACHE_HEADER:
            raise ValueError("unknown version")
        if sha256(body).hexdigest() != fields[2]:
            raise ValueError("digest mismatch")
        lines = body.decode("ascii").splitlines()
        if len(lines) != int(fields[1]):
            raise ValueError("record count mismatch")
        entries = {}
        for no, line in enumerate(lines, 2):
            parts = line.split(" ")
            if len(parts) != 5 or parts[0] not in _READ:
                raise ValueError(f"malformed record on line {no}")
            name, g, n, b, v = parts
            b = tuple(map(int, b.split(",")))
            if len(b) != int(n):
                raise ValueError(f"malformed record on line {no}")
            entries[(name, int(g), int(n), b)] = _READ[name](v)
    except (ValueError, ZeroDivisionError) as exc:  # UnicodeDecodeError is a ValueError
        print(f"warning: ignoring cache {path!r} ({exc})", file=sys.stderr)
        return 0
    _MEMO.update(entries)
    return len(entries)
