"""Memoized exact evaluation of the recursive arc-diagram counts.

The memo holds one table per head ``(family, g, n)``, keyed by ``b``
sorted decreasingly, since every count is symmetric in the boundary labels.
Five families: ``G`` (all diagrams), ``N`` (no boundary-parallel arcs),
``Gr`` (all diagrams by number r of complementary regions), ``Nt``
(parallel-free diagrams by the stable region parameter t = r - (2 - 2g - n)
- half the boundary points) and ``Gt`` (all diagrams by t).
The lattice-count twin is no family of its own: ``count_lattice`` reads
the t = 0 grade of ``Nt`` and divides by the product of the entries.

Each step removes the arc at the first (maximal) entry: it cuts a handle,
joins another boundary, or separates the surface (summed over the genus
and boundary subsets of the pieces).  The step has two shapes, each written
once: A (``G``, ``Gr``) splits the other points with unit weights; B
(``N``, ``Nt``) lets the arc take a run of m points along, weighing it m/2
(and a join the bar factor of the boundary it joins), admits no disc or
annulus piece, and reads the join difference term as is (never negative on
a maximal entry).  ``G`` and ``N`` carry an ``int``.  ``Gr`` and ``Nt``
carry the whole refinement in one entry, as a ``_Grades`` polynomial in the
grading variable r or t: the pieces of a split multiply (their grades add),
and a join onto an empty boundary multiplies by the variable.

A cut leaving runs (i, j) and one leaving (j, i) name one key, read once and
counted twice.  A separation and its mirror image (pieces swapped) give the
same term, so a body sums only the separations whose first piece keeps the
second entry of b, and counts each twice; with one boundary it sums the
genus splits g1 <= g - g1, and counts a split into equal genera once (shape
A also folds its runs i <-> j there).

A row is keyed by the family, its kind, the genus and the entries the arc
leaves alone (side), so bodies of any first entry b1 share it, each
extending it only as far as its b1 needs; rows live on the memo
(``_MEMO.rows``), are never saved and are cleared with it.  Bodies read
every row through ``_row``: a row that holds the values a body needs comes
back as it is, and any other row is grown by one builder, ``_grow``, which
returns the row itself.  A value row holds the pieces (g, (x,) + side) in
ascending x: every piece that a join or a separation leaves, one new entry
beside entries the arc leaves alone, is read through one, in both shapes,
so each is keyed and read once per memo.
A cut row holds Q(s), the sum of the pieces (g, (i, j) + side) over the
runs i + j = s.  A shape-B row keeps its ramp, a running sum of running
sums, in step with its values, and shape B reads each of its sums from a
ramp: the cut sum from a cut row, and the join sums (around the sum and the
difference of the two boundaries) and a separation's sum over the runs
beyond the arc from value rows.  Shape A's rows keep no ramp, and its cut
reads its pieces directly.

A family is one record of ``_FAMILIES``: its body, zero, empty diagram and the
heads it answers by formula (``rules``), in shape B the disc and annulus
closed forms and the pants (0,3), a product of bar factors.  ``Gt``'s body
fills the boundary collars around its ``Nt`` cores (``_collar_sum``), its rule
is the disc (Catalan numbers at t = 0).  ``_base`` reads every value no body
computes from that record, and a shape-B row of a head with a rule takes each
value from it (no key, no memo read) and keeps it like any other row.  The
separations of a body come from one index table per shape, g and n.

Bodies are plain functions: a piece missing from the memo runs its body
through ``_fill``, which stores its value.  Every edge of a shape lowers
``(2g + n - 2, sum(b))`` lexicographically, every edge of ``Gt`` ends in
``Nt``, and a key met again while its body runs raises RuntimeError.  A key
``(family, g, n, b)`` lives only there, while its body runs.  Bodies nest at
most 2g + n + 2 deep, so no input meets Python's recursion limit: every
shape-B piece lowers 2g + n; in shape A only the disc separation's same-head
piece keeps it, and that piece is a value of a row; rows grow in ascending
order, so such a piece's body finds the smaller pieces of its head that it
reads already stored, and the nesting at one head stays shallow.

The memo persists in an optional cache directory of one file per head
``family g n``, whose body is the ``marshal`` form of the head's records,
which no int/str digit limit covers: a table reads its head's file when a
read first fetches it (``load_cache``), and ``save_cache`` rewrites the
files of tables that grew.
"""

from __future__ import annotations

import marshal
import os
from fractions import Fraction
from functools import cache, partial
from itertools import chain
from math import prod
from operator import mul
from typing import Callable, NamedTuple

try:  # CPython's own SHA-256: hashlib would load OpenSSL, 3.7 MB per process
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .closed import bar, catalan, closed_N, closed_refined
from .exact import _reject, _say, binomial, ordered_splits

_DISC_OR_ANNULUS = {(0, 1), (0, 2)}
_INT = frozenset((int,))


class _Grades(tuple):
    """Coefficients c[k] of a polynomial in the grading variable (r or t),
    without trailing zeros: scalars scale it, and the product of two glued
    pieces is the convolution, since their grades add."""

    __slots__ = ()

    def __add__(self, other: _Grades) -> _Grades:  # the longer copied, the shorter added in
        out, other = (list(self), other) if len(self) >= len(other) else (list(other), self)
        for i, c in enumerate(other):
            out[i] += c
        return _trim(out)

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


def _trim(coeffs: list) -> _Grades:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return _Grades(coeffs)


class _Row(list):
    """One row of ``_MEMO.rows``: it lists its values v_t in ascending t
    (``_grow``).  A shape-B row keeps its ramp in step with them: ``ramp[k]``
    is the sum of (k - t) * v_t over t < k, for k up to the number of values,
    and ``run`` the sum of all values.  A shape-A row has neither."""

    __slots__ = ("ramp", "run")


class _Table(dict):
    """The entries of one head (family, g, n), keyed by b.  A missing b
    answers with ``_base``: its base value, or None when its body has to run;
    base values are never stored.  ``held``: see ``_Memo.read``."""

    __slots__ = ("base", "held")

    def __init__(self, head: tuple):
        name, g, n = head
        self.base = partial(_base, _FAMILIES[name], g, n)

    def __missing__(self, b):
        return self.base(b)


class _Memo(dict):
    """The memo: one ``_Table`` per head (family, g, n).  A missing head
    answers with a new table, which first reads the head's file in the
    attached cache directory ``cache``, if any.  ``rows`` holds the rows that
    ``_grow`` creates, shape B's with their ramps: never saved, cleared with
    the entries they derive from."""

    def __init__(self):
        super().__init__()
        self.rows = {}  # (family, cut, g, side) -> _Row
        self.cache = None

    def __missing__(self, head):
        self.read(head, table := _Table(head))  # stored only once its file is read
        self[head] = table
        return table

    def read(self, head: tuple, table: _Table) -> int:
        """Read the file of ``head`` in the attached directory into ``table``:
        ``held`` is its record count (returned), or -1 if refused (warned)."""
        table.held = 0
        if self.cache is not None:
            path = os.path.join(self.cache, "%s-%x-%x" % head)
            try:
                with open(path, "rb") as fh:
                    table.update(records := _records(head, fh.read()))
                table.held = len(records)
            except FileNotFoundError:
                pass
            except ValueError as exc:  # UnicodeDecodeError is a ValueError
                _say(f"warning: ignoring cache {path!r} ({exc})")
                table.held = -1
        return max(table.held, 0)


_MEMO = _Memo()


def clear_memo() -> None:  # detaching the cache directory too
    _MEMO.clear()
    _MEMO.rows.clear()
    detach_cache()


def memo_size() -> int:
    return sum(map(len, _MEMO.values()))


def _canon(b) -> tuple[int, ...]:
    return tuple(sorted(b, reverse=True))


def _check(g: int, n: int, b, *grades: int) -> tuple[int, ...]:
    b = tuple(b)
    if not _INT.issuperset(map(type, args := (g, n, *b, *grades))):  # plain ints pass at once
        _reject(int, args, "g, n, the boundary point counts, r and t")
        b = tuple(map(int, b))  # int subclasses as plain ints, the only ints a cache file holds
    if g < 0:
        raise ValueError("genus must be >= 0")
    if n < 1 or len(b) != n:
        raise ValueError("need n >= 1 boundary components and len(b) == n")
    if min(b) < 0:
        raise ValueError("boundary point counts must be >= 0")
    return b


def _count(name: str, g: int, n: int, b, *grades: int):
    """A public count's entry: b checked and canonicalised, then ``_eval``."""
    return _eval((name, g, n, _canon(_check(g, n, b, *grades))))


# -- rules and base values; None sends the key to its family's body ----------

# The heads a shape-B family answers by formula: the disc and annulus values
# from ``closed``, and the (0,3) value, symmetric in three entries of an even
# total: the bar product, graded at t = 0/1/2/2 for 0/1/2/3 zero entries in Nt.

def _pants_N(b):
    x, y, z = b
    return (x or 1) * (y or 1) * (z or 1)  # bar(x) * bar(y) * bar(z): entries >= 0


def _pants_Nt(b):
    return _Grades((0,) * min(b.count(0), 2) + (_pants_N(b),))


def _closed_Nt(g, n, b):
    return _trim([closed_refined("N", g, n, b, t) for t in range(2 * g + n)])


def _base(fam: _Family, g: int, n: int, b: tuple[int, ...]):
    """The value of a key that no body computes, or None when its body has
    to run: zero at a negative genus or an odd total, the rule's value at a
    head the family answers by formula, the empty diagram's when every entry
    is zero."""
    if g < 0 or sum(b) % 2:
        return fam.zero
    if (rule := fam.rules.get((g, n))) is not None:
        return rule(b)
    return None if b[0] else fam.empty(g, n)


# -- the two recursion shapes -------------------------------------------------

def _row(fam: _Family, name: str, cut: bool, g: int, side: tuple[int, ...], stop: int) -> _Row:
    """The row of (g, side), p = sum(side) % 2 (odd totals are empty), grown
    to at least stop values.  Value t of a value row is the piece
    (g, (s,) + side) at s = p + 2t; of a cut row it is Q(s), the sum of the
    pieces (g, (i, j) + side) left by a cut with runs i + j = s, where (i, j)
    and (j, i) are one key, read once and counted twice.  A row that already
    holds stop values is returned as it is; any other is grown (``_grow``)."""
    if (row := _MEMO.rows.get(rkey := (name, cut, g, side))) is not None and len(row) >= stop:
        return row
    return _grow(fam, rkey, row, stop)


def _grow(fam: _Family, rkey: tuple, row: _Row | None, stop: int) -> _Row:
    """Grow ``row``, the row of ``rkey``, to stop values, creating it if it
    is None.  The row grows one value at a time, each appended as soon as
    its pieces are read, and a shape-B row appends its ramp entry in the
    same step, so len(row.ramp) == len(row) + 1.  A row that grew while the
    body of one of its pieces ran raises RuntimeError (``_shape_a`` and
    ``_shape_b`` say why none can).  A row of a head that the family
    answers by formula keeps its values too, each taken from the rule, not
    the memo."""
    name, cut, g, side = rkey
    p, n = sum(side) % 2, len(side) + 1 + cut
    rule = fam.rules.get((g, n))
    table, shape_b = None if rule else _MEMO[name, g, n], fam.body is _shape_b
    if row is None:
        row = _MEMO.rows[rkey] = _Row()
        if shape_b:
            row.ramp, row.run = [fam.zero], fam.zero
    for s in range(p + 2 * len(row), p + 2 * stop, 2):
        have, value = len(row), None  # a single piece is kept as it is, shared with its table
        for j in range(s, (s - 1) // 2, -1) if cut else (s,):  # a cut row's runs (j, s - j), j >= s - j
            entries = (j, s - j, *side) if cut else (s, *side)
            if rule:
                v = rule(entries)
            elif (v := table[b := tuple(sorted(entries, reverse=True))]) is None:
                v = _fill((name, g, n, b))
                if len(row) != have:
                    raise RuntimeError(f"engine row {rkey} grew while a body was extending it")
            v = 2 * v if cut and 2 * j != s else v  # (j, s - j) and (s - j, j) are one key
            value = v if value is None else value + v
        row.append(value)
        if shape_b:  # S_k = S_(k-1) + v_(k-1) and ramp_k = ramp_(k-1) + S_k
            row.run += value
            row.ramp.append(row.ramp[-1] + row.run)
    return row


_HALVES: dict[tuple, list] = {}  # (parallel_free, g, len(rest)) -> (g1, left, right, own) in indices


def _halves(g: int, rest: tuple[int, ...], parallel_free: bool) -> list:
    """The arc's separations up to mirror image, as a list of (g1, left,
    right, own): the piece of genus g1 keeps the entries left (rest[0] among
    them), the other piece the entries right.  Each stands for itself and
    its mirror image, except one that is its own (own: n = 1 and g1 = g -
    g1).  They come from an index table built once per shape, g and
    len(rest); shape B's (parallel_free) has no split leaving a disc or an
    annulus piece."""
    if (table := _HALVES.get(tkey := (parallel_free, g, len(rest)))) is None:
        splits = [((0, *x), y) for x, y in ordered_splits(range(1, len(rest)))] if rest else [((), ())]
        table = _HALVES[tkey] = [
            (g1, left, right, not rest and 2 * g1 == g)
            for left, right in splits
            for g1 in range(g + 1 if rest else g // 2 + 1)  # one boundary: g1 <= g - g1
            if not parallel_free
            or {(g1, 1 + len(left)), (g - g1, 1 + len(right))}.isdisjoint(_DISC_OR_ANNULUS)
        ]
    get = rest.__getitem__
    return [(g1, tuple(map(get, left)), tuple(map(get, right)), own) for g1, left, right, own in table]


def _shape_a(fam: _Family, name: str, g: int, n: int, b: tuple[int, ...]):
    """All arc diagrams: the arc's ends split the other b1 - 2 points.

    A join and a separation read their pieces from value rows.  The cut
    reads its pieces directly: it needs Q(b1 - 2) alone, and a cut row
    would read every Q(s) below it too.  No row grows while one of its
    values is pending: every edge lowers (2g + n - 2, sum(b)), and a
    row's values share (g, n) while sum(b) rises along it, so a body nested
    under the read of value i reads only values below i of that row, which
    were appended before value i was asked for.  This holds even where a
    disc or annulus piece leaves its other piece the body's own (g, n)."""
    b1, rest = b[0], b[1:]
    acc = fam.zero
    if g:  # cut along the arc: the genus drops; runs (i, j) and (j, i) are one key
        table = _MEMO[name, g - 1, n + 1]
        for i in range(b1 // 2):
            j = b1 - 2 - i
            if (v := table[pair := _canon((i, j) + rest)]) is None:
                v = _fill((name, g - 1, n + 1, pair))
            acc += v if i == j else 2 * v
    for idx, bk in enumerate(rest):  # the arc runs to another boundary, leaving b1 + bk - 2 points
        if bk:
            other = rest[:idx] + rest[idx + 1 :]
            acc += bk * _row(fam, name, False, g, other, (b1 + bk) // 2)[(b1 + bk - 2) // 2]
    for g1, left, right, own in _halves(g, rest, False):  # the arc separates, runs i + j = b1 - 2
        k = (b1 - sum(left) % 2) // 2  # both sides have k runs of the pieces' parity
        # rows may hold more than k values
        U = _row(fam, name, False, g1, left, k)
        if own:  # fold i <-> j as well; the middle run pairs with itself once
            half, middle = divmod(k, 2)
            if middle:
                acc += U[half] * U[half]
            acc += 2 * sum(map(mul, U[:half], reversed(U[:k])), fam.zero)
        else:
            V = _row(fam, name, False, g - g1, right, k)
            acc += 2 * sum(map(mul, U, reversed(V[:k])), fam.zero)
    return acc


def _shape_b(fam: _Family, name: str, g: int, n: int, b: tuple[int, ...]):
    """Parallel-free shape: the arc takes a run of m points with it.

    The cut leaving runs i + j = s weighs m/2 = (b1 - s)/2, a join onto
    boundary j leaving x points weighs bar(bj) times (b1 + bj - x)/2 and,
    for the difference, (b1 - bj - x)/2, and a separation weighs each value
    of its second piece by m/2 as well: each sum is an entry of the ramp
    that a shared row keeps in step with its values (``_grow``), and entry k
    needs the row's first k values.  No row grows while an enclosing body
    is extending it: every edge lowers 2g + n - 2, a body of (g, n)
    extends only rows of values lower in it, and a row's key fixes (g, n)
    of its values, so no body below can ask for the same row."""
    b1, rest = b[0], b[1:]
    acc = fam.zero
    if g:  # the arc and its run are cut away: the genus drops
        acc += _row(fam, name, True, g - 1, rest, b1 // 2).ramp[b1 // 2]
    for idx, bj in enumerate(rest):  # the arc joins boundary j: sum and difference
        other = rest[:idx] + rest[idx + 1 :]
        row = _row(fam, name, False, g, other, (b1 + bj) // 2)
        term = bar(bj) * (row.ramp[(b1 + bj) // 2] + row.ramp[(b1 - bj) // 2])
        acc += term if bj else term * fam.region  # joining an empty boundary creates a region
    for g1, left, right, own in _halves(g, rest, True):  # the arc separates, leaving no disc or annulus
        # runs i | m | j along b1 with i + m + j = b1, i = sum(left) % 2 + 2p and
        # j = sum(right) % 2 + 2q (pieces with odd totals are empty)
        k = (b1 - sum(left) % 2 - sum(right) % 2) // 2
        U = _row(fam, name, False, g1, left, k)
        # the arc takes m = 2(k - p - q) points; the sum over q < k - p of
        # (k - p - q) V[q] over the other piece's values V is its ramp's entry
        # k - p; with one boundary and equal genera (own) the two pieces share
        # a row, and the double sum holds both (i, j) and its mirror (j, i)
        V = _row(fam, name, False, g - g1, right, k)
        sep = sum(map(mul, U, V.ramp[k:0:-1]), fam.zero)
        acc += sep if own else 2 * sep
    return acc


class _Family(NamedTuple):
    body: Callable  # _shape_a, _shape_b or Gt's collar sum
    zero: object  # the value of an empty sum
    empty: Callable  # (g, n) -> the value of the empty diagram
    region: object = 1  # the factor for one more region: the grading variable
    rules: dict = {}  # (g, n) -> the value of entries b in any order, at a head answered by formula


_FAMILIES = {
    "G": _Family(_shape_a, 0, lambda g, n: 1),
    "Gr": _Family(_shape_a, _Grades(), lambda g, n: _Grades((0, 1))),  # one region
    "N": _Family(
        _shape_b, 0, lambda g, n: 1, 1,
        {(0, 1): partial(closed_N, 0, 1), (0, 2): partial(closed_N, 0, 2), (0, 3): _pants_N},
    ),
    "Nt": _Family(  # the empty diagram has t = 2g + n - 1
        _shape_b, _Grades(), lambda g, n: _Grades((0,) * (2 * g + n - 1) + (1,)), _Grades((0, 1)),
        {(0, 1): partial(_closed_Nt, 0, 1), (0, 2): partial(_closed_Nt, 0, 2), (0, 3): _pants_Nt},
    ),
}
_FAMILIES["Gt"] = _FAMILIES["Nt"]._replace(  # Nt's zero, empty diagram and grading variable
    body=lambda fam, name, g, n, b: _collar_sum("Nt", g, n, b),
    rules={(0, 1): lambda b: _Grades((catalan(b[0] // 2),))},  # every disc diagram has t = 0
)


def _body(key):
    fam = _FAMILIES[key[0]]
    return fam.body(fam, *key)


def _eval(key):  # the value of one key: its table's entry, or on a miss _fill's
    value = _MEMO[key[:3]][key[3]]
    return _fill(key) if value is None else value


_RUNNING = set()  # the keys whose bodies are running


def _fill(key):
    """The value of a key missing from the memo: its body's, stored in its
    table.  A key met again while its body runs raises RuntimeError."""
    if key in _RUNNING:
        raise RuntimeError(f"engine recursion revisits {key} while its body runs")
    _RUNNING.add(key)
    try:
        value = _body(key)
    finally:
        _RUNNING.discard(key)
    name, g, n, b = key
    _MEMO[name, g, n][b] = value
    return value


# -- public counts --------------------------------------------------------------

def count_G(g: int, n: int, b) -> int:
    """Number of arc diagrams, every arc type allowed."""
    return _count("G", g, n, b)


def count_N(g: int, n: int, b) -> int:
    """Number of arc diagrams with no boundary-parallel arcs."""
    return _count("N", g, n, b)


def count_G_r(g: int, n: int, b, r: int) -> int:
    """Arc diagrams whose complement has exactly r regions."""
    return _count("Gr", g, n, b, r).coeff(r)


def count_N_t(g: int, n: int, b, t: int) -> int:
    """Parallel-free arc diagrams with stable region parameter t."""
    return _count("Nt", g, n, b, t).coeff(t)


def _collars(b) -> dict:
    """The collar weight of each canonical core: the ways to fill the
    boundary collars around it, summed over the fillings that sort to it.
    Built one entry at a time: after each, partial cores that sort alike
    merge, so no filling is enumerated on its own."""
    weights = {(): 1}
    for x in b:
        step = {}
        for y in range(x % 2, x + 1, 2):  # the collar of x keeps y points of the core
            w = binomial(x, (x - y) // 2)
            for core, v in weights.items():
                core = _canon((*core, y))
                step[core] = step.get(core, 0) + w * v
        weights = step
    return weights


def _collar_sum(core: str, g: int, n: int, b):
    """The sum over the parallel-free cores a of b of the collar weight times
    the value of a in the family ``core`` (``N``, or ``Nt``: filling keeps t)."""
    return sum((w * _eval((core, g, n, a)) for a, w in _collars(b).items()), _FAMILIES[core].zero)


def count_G_t(g: int, n: int, b, t: int) -> int:
    """All-diagram counts refined by t: boundary collars filled around ``Nt``."""
    return _count("Gt", g, n, b, t).coeff(t)


def count_G_t_via_r(g: int, n: int, b, t: int) -> int:
    """Independent route to the same refined count through the region-count
    recursion, via r = t + (2 - 2g - n) + half the boundary points."""
    b = tuple(b)
    return _count("Gr", g, n, b, t).coeff(t + (2 - 2 * g - n) + sum(b) // 2)  # r of grade t


def count_lattice(g: int, n: int, b) -> Fraction:
    """The rational lattice-count twin of the normalized parallel-free
    count: the parallel-free diagrams with stable region parameter t = 0,
    divided by the product of the entries (Norbury's lattice count).  Odd
    totals count zero, as lattice points of an odd total do not exist."""
    b = _check(g, n, b)
    if 2 * g - 2 + n < 1:
        raise ValueError("lattice counts need 2g - 2 + n >= 1: no disc or annulus")
    if not all(b):
        raise ValueError("lattice counts require strictly positive entries")
    return Fraction(_eval(("Nt", g, n, _canon(b))).coeff(0), prod(b))


# -- relations ---------------------------------------------------------------

def convolve_G_from_N(g: int, n: int, b) -> int:
    """Assemble the all-diagram count by filling boundary collars around
    every parallel-free core: the collar sum over the cores' ``N`` counts."""
    b = _check(g, n, b)
    if (g, n) == (0, 1):
        raise ValueError("collar convolution does not apply to the disc")
    return _collar_sum("N", g, n, b)


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

@cache
def _fingerprint() -> str:
    """The SHA-256 of the package source, every ``*.py`` file's bytes in
    sorted name order: a cache file names the code that wrote its values."""
    here = os.path.dirname(os.path.abspath(__file__))
    digest = sha256()
    for name in sorted(os.listdir(here)):
        if name.endswith(".py"):
            with open(os.path.join(here, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _all(kind: type, items) -> bool:  # every item is of exactly the type kind
    return set(map(type, items)) <= {kind}


def _records(head: tuple, data: bytes) -> dict:
    """The records of the file ``data`` of ``head``, by entries: its header
    ``surfcount-cache <fingerprint> <sha256 of body>`` names this source and
    the body, and only then does ``marshal`` load the body, which must be a
    dict from tuples of n plain ints >= 0 to a plain int (``G``, ``N``) or a
    tuple of them (the grades of ``Gr``, ``Nt`` and ``Gt``, returned as
    ``_Grades``).  ValueError names the first fault."""
    header, _, body = data.partition(b"\n")
    fields = header.decode("ascii").split(" ")
    if len(fields) != 3 or fields[0] != "surfcount-cache":
        raise ValueError("unknown version")
    if fields[1] != _fingerprint():
        raise ValueError("written by other source code")
    if sha256(body).hexdigest() != fields[2]:
        raise ValueError("digest mismatch")
    try:
        records = marshal.loads(body)
    except (EOFError, TypeError, ValueError):
        records = None
    scalar, n = head[0] in ("G", "N"), head[2]
    if not (
        type(records) is dict
        and _all(tuple, records) and set(map(len, records)) <= {n}
        and _all(int, entries := [*chain.from_iterable(records)]) and min(entries, default=0) >= 0
        and _all(int if scalar else tuple, values := records.values())
        and (scalar or _all(int, chain.from_iterable(values)))
    ):
        raise ValueError("malformed record")
    return records if scalar else {b: _Grades(v) for b, v in records.items()}


def save_cache(path: str) -> int:
    """Write into the cache directory ``path`` (made if missing, not its
    parents) the file of each table that holds more records than its file
    there held (``_Memo.read``), each replaced atomically; if ``path`` is not
    the attached directory, of each table that holds records.  A file is its
    header line, then the body ``marshal.dumps(records, 2)``: the records
    sorted by entries, grades as plain tuples.  Version 2 writes no
    back-references, so the bytes depend on the records alone.  Returns the
    number of records written."""
    attached = path == _MEMO.cache
    grown = [(head, t) for head, t in _MEMO.items() if len(t) > (t.held if attached else 0)]
    if grown and not os.path.isdir(path):
        os.mkdir(path)
    for head, table in grown:
        body = marshal.dumps({b: v if type(v) is int else tuple(v) for b, v in sorted(table.items())}, 2)
        file = os.path.join(path, "%s-%x-%x" % head)
        tmp = f"{file}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(f"surfcount-cache {_fingerprint()} {sha256(body).hexdigest()}\n".encode("ascii"))
                fh.write(body)
            os.replace(tmp, file)
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
        if attached:
            table.held = len(table)
    return sum(len(table) for _, table in grown)


def load_cache(path: str) -> int:
    """Attach the cache directory ``path`` (``detach_cache`` undoes it): a
    table reads its head's file when a read first fetches it, and the tables
    the memo holds read theirs now.  A missing file holds no records, and a
    refused one (``_records``) none either.  Returns the number read now."""
    _MEMO.cache = path
    return sum(_MEMO.read(head, table) for head, table in _MEMO.items())


def detach_cache() -> None:
    """Detach the cache directory: from here on no table reads a file."""
    _MEMO.cache = None
