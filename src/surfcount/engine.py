"""Memoized exact evaluation of the recursive arc-diagram counts.

The memo is keyed by ``(family, g, n, b)``, with ``b`` sorted decreasingly
since every count is symmetric in the boundary labels.  Families: ``G``
(all diagrams), ``N`` (no boundary-parallel arcs), ``Gr`` (all diagrams by
number r of complementary regions), ``Nt`` (parallel-free diagrams by the
stable region parameter t = r - (2 - 2g - n) - half the boundary points),
and ``Gt``, which ``count_G_t`` assembles from ``Nt``.  The lattice-count
twin is no family of its own: ``count_lattice`` reads the t = 0 grade of
``Nt`` and divides by the product of the entries.

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
counted twice.  Shape B's cut sum and its join sums (around the sum and the
difference of the two boundaries) are weighted sums of rows that do not
depend on the first entry b1: a row is keyed by the family, the genus and
the entries the arc leaves alone, and holds running sums over its values
(see ``_ramps``).  Many bodies share a row, each extending it only as far
as its own b1 needs, so a body reads no cut or join child that another body
already summed; the rows live on the memo (``_MEMO.rows``), are never saved
and are cleared with it.  A separation and its mirror image (pieces
swapped) give the same term, so a body sums only the separations whose
first piece keeps the second entry of b, and counts each twice; with one
boundary it sums the genus splits g1 <= g - g1, and counts a split into
equal genera once (shape A also folds its runs i <-> j there).  Per
separation the values of the two pieces are read once into lists; shape B
forms its double sum over the runs on both sides of the arc from them with
two running sums.

Every parallel-free count bottoms out in pair-of-pants pieces, (0,3), whose
value is a product of bar factors.  Shape B computes them where they are
read, from its family's ``pants`` rule: where a row's or a loop's children
are pants (the cut row of a (1,2) body, the join rows of a (0,4) body, a
run of separating pieces), no key is built, nothing is sorted and the memo
is not consulted.  The (0,3) base values use the same rule.  A one-entry
child, such as a piece of a deep disc, is its own key: nothing is sorted.

Bodies are generators yielding each child key missing from the memo;
``_eval`` runs them on an explicit stack, so no input meets Python's
recursion limit.  Every edge lowers ``(2g + n - 2, sum(b))``
lexicographically; a key met again on its own stack raises RuntimeError.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import accumulate, product, starmap, zip_longest
from math import prod
from operator import mul
from typing import Callable, NamedTuple

try:  # CPython's own SHA-256: hashlib would load OpenSSL, 3.7 MB per process
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256

from .closed import bar, catalan, closed_N, closed_refined
from .exact import binomial, ordered_splits

_DISC_OR_ANNULUS = {(0, 1), (0, 2)}


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
    or None when its body has to run; base values are never stored.

    ``synced`` is ``(path, records, file identity)`` of the cache file whose
    records the table last held exactly, or None.  The table only grows and
    its entries never change, so it still holds exactly those records while
    its size and the file's identity are unchanged.

    ``rows`` holds shape B's running sums (``_ramps``), one table per memo:
    they are derived from the entries, never saved, and cleared with them."""

    synced = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = {}

    def __missing__(self, key):
        return _FAMILIES[key[0]].base(*key[1:])


_MEMO = _Memo()


def clear_memo() -> None:
    _MEMO.clear()
    _MEMO.rows.clear()
    _MEMO.synced = None


def memo_size() -> int:
    return len(_MEMO)


def _canon(b) -> tuple[int, ...]:
    return tuple(sorted(b, reverse=True))


def _check(g: int, n: int, b, *grades: int) -> tuple[int, ...]:
    b = tuple(b)
    if {type(g), type(n), *map(type, b), *map(type, grades)} != {int} and any(
        not isinstance(x, int) or isinstance(x, bool) for x in (g, n, *b, *grades)
    ):  # the fast test passes plain ints only; int subclasses other than bool pass the slow one
        raise TypeError("g, n, the boundary point counts, r and t must be ints")
    if g < 0:
        raise ValueError("genus must be >= 0")
    if n < 1 or len(b) != n:
        raise ValueError("need n >= 1 boundary components and len(b) == n")
    if any(x < 0 for x in b):
        raise ValueError("boundary point counts must be >= 0")
    return b


# -- pants values and base values; None sends the key to its family's body ----

# The (0,3) value of each shape-B family, symmetric in three entries of an
# even total: the bar product, graded at t = 0/1/2/2 for 0/1/2/3 zero entries
# in Nt.

def _pants_N(x, y, z):
    return (x or 1) * (y or 1) * (z or 1)  # bar(x) * bar(y) * bar(z): entries >= 0


def _pants_Nt(x, y, z):
    zeros = (not x) + (not y) + (not z)
    return _Grades((0,) * min(zeros, 2) + (_pants_N(x, y, z),))


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
    if (g, n) == (0, 3):
        return _pants_N(*b)
    if (g, n) in _DISC_OR_ANNULUS:
        return closed_N(g, n, b)
    return None if b[0] else 1


def _base_Nt(g, n, b):
    if g < 0 or sum(b) % 2:
        return _Grades()
    if (g, n) == (0, 3):
        return _pants_Nt(*b)
    if (g, n) in _DISC_OR_ANNULUS:
        return _trim([closed_refined("N", g, n, b, t) for t in range(2 * g + n)])
    return None if b[0] else _Grades((0,) * (2 * g + n - 1) + (1,))


# -- the two recursion shapes -------------------------------------------------

def _children(fam: _Family, name: str, g: int, n: int, bs):
    """The values of the children (g, n, b) for b in bs, as a list.  Pants
    children are computed from the family's rule; any other key is read once
    and yielded to the driver when missing.  A one-entry b is its own key."""
    if fam.pants and (g, n) == (0, 3):
        return list(starmap(fam.pants, bs))
    memo, values = _MEMO, []
    for b in bs:
        key = (name, g, n, b if n == 1 else _canon(b))
        if (v := memo[key]) is None:
            v = yield key
        values.append(v)
    return values


def _pieces(fam: _Family, name: str, g: int, side: tuple[int, ...], runs: range):
    """The values of the pieces (g, (x,) + side) for x in runs, as a list."""
    return _children(fam, name, g, 1 + len(side), [(x,) + side for x in runs])


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
        U = yield from _pieces(fam, name, g1, left, range(sum(left) % 2, b1 - 1, 2))
        if own:  # fold i <-> j as well; the middle run pairs with itself once
            half, middle = divmod(len(U), 2)
            if middle:
                acc += U[half] * U[half]
            acc += 2 * sum(map(mul, U[:half], reversed(U)), fam.zero)
        else:
            V = yield from _pieces(fam, name, g - g1, right, range(sum(right) % 2, b1 - 1, 2))
            acc += 2 * sum(map(mul, U, reversed(V)), fam.zero)
    return acc


class _Row:
    """Running sums over one row v_t of shape B (see ``_ramps``): ``ramp[k]``
    is ramp(p + 2k) for the row's parity p, and ``run`` the sum S of the
    row's values up to the last one ``ramp`` used."""

    __slots__ = ("ramp", "run")

    def __init__(self, zero):
        self.ramp, self.run = [zero], zero


def _cut_row(fam: _Family, name: str, g: int, rest: tuple[int, ...], ts: range):
    """Row values Q(s) for s in ts: the pieces (g, (i, j) + rest) left by a
    cut with runs i + j = s; runs (i, j) and (j, i) are one key, read once
    and counted twice."""
    ws, bs, ends = [], [], []
    for s in ts:
        for i in range(s // 2 + 1):
            ws.append(1 if 2 * i == s else 2)
            bs.append((i, s - i) + rest)
        ends.append(len(ws))
    vs = yield from _children(fam, name, g, 2 + len(rest), bs)
    terms = list(map(mul, ws, vs))
    return [sum(terms[a:z], fam.zero) for a, z in zip([0, *ends], ends)]


def _ramps(fam: _Family, name: str, cut: bool, g: int, side: tuple[int, ...], M: int):
    """The ramp list of one shape-B row, extended to hold
    ramp(M) = sum over t <= M - 2, t = M mod 2 of (M - t)/2 * v_t.

    The row is ``_cut_row`` or, for a join, ``_pieces`` of (g, side), kept
    in ``_MEMO.rows``.  A piece of odd total is empty, so only values v_t
    of the parity p of sum(side) can be nonzero, and every caller's M has
    that parity: entry k of the list is ramp(p + 2k), built by S(M) =
    S(M - 2) + v_M and R(M + 2) = R(M) + S(M).  Missing children are
    yielded to the driver; the new entries are appended once all are read,
    and only to a row that did not grow meanwhile (``_shape_b`` says why
    none can)."""
    key = (name, cut, g, side)
    rows = _MEMO.rows
    if (row := rows.get(key)) is None:
        row = rows[key] = _Row(fam.zero)
    ramp = row.ramp
    have = len(ramp)
    if M // 2 < have:
        return ramp
    ts = range(M % 2 + 2 * have - 2, M - 1, 2)
    values = yield from (_cut_row if cut else _pieces)(fam, name, g, side, ts)
    if len(ramp) != have:
        raise RuntimeError(f"engine row {key} grew while a body was extending it")
    run = row.run
    for v in values:
        run += v
        ramp.append(ramp[-1] + run)
    row.run = run
    return ramp


def _shape_b(fam: _Family, name: str, g: int, n: int, b: tuple[int, ...]):
    """Parallel-free shape: the arc takes a run of m points with it.

    The cut leaving runs i + j = s weighs m/2 = (b1 - s)/2, and a join onto
    boundary j leaving x points weighs bar(bj) times (b1 + bj - x)/2 and,
    for the difference, (b1 - bj - x)/2: each sum is a ramp (see
    ``_ramps``) of a row that does not depend on b1, so bodies share it, and
    it grows only as far as the largest b1 asked for.  No row grows while an enclosing body is
    extending it: every edge lowers 2g + n - 2, a body of (g, n) extends
    rows of values one lower, and a row's key fixes (g, n) of its values,
    so no body below can ask for the same row.  A row that grew meanwhile
    raises RuntimeError."""
    b1, rest = b[0], b[1:]
    acc = fam.zero
    if g:  # the arc and its run are cut away: the genus drops
        ramp = yield from _ramps(fam, name, True, g - 1, rest, b1)
        acc += ramp[b1 // 2]
    for idx, bj in enumerate(rest):  # the arc joins boundary j: sum and difference
        ramp = yield from _ramps(fam, name, False, g, rest[:idx] + rest[idx + 1 :], b1 + bj)
        term = bar(bj) * (ramp[(b1 + bj) // 2] + ramp[(b1 - bj) // 2])
        acc += term if bj else term * fam.region  # joining an empty boundary creates a region
    for g1, left, right, own in _halves(g, rest):  # the arc separates
        g2 = g - g1
        if (g1, 1 + len(left)) in _DISC_OR_ANNULUS or (g2, 1 + len(right)) in _DISC_OR_ANNULUS:
            continue
        # runs i | m | j along b1 with i + m + j = b1; pieces with odd totals
        # are empty
        lo, ro = sum(left) % 2, sum(right) % 2
        U = yield from _pieces(fam, name, g1, left, range(lo, b1 - 1 - ro, 2))
        if own:  # the double sum below holds both (i, j) and its mirror (j, i)
            V = U
        else:
            V = yield from _pieces(fam, name, g2, right, range(ro, b1 - 1 - lo, 2))
        # with i = lo + 2p and j = ro + 2q the arc takes m = 2(k - p - q)
        # points, k = len(U); the sum over q < k - p of (k - p - q) V[q] is
        # entry k - p - 1 of a ramp built by two running sums
        ramp = list(accumulate(accumulate(V)))
        sep = sum(map(mul, U, reversed(ramp)), fam.zero)
        acc += sep if own else 2 * sep
    return acc


class _Family(NamedTuple):
    body: Callable  # _shape_a or _shape_b
    base: Callable  # (g, n, b) -> base value, or None
    zero: object  # the value of an empty sum
    region: object = 1  # the factor for one more region: the grading variable
    pants: Callable | None = None  # shape B: the (0,3) value of three entries


_FAMILIES = {
    "G": _Family(_shape_a, _base_G, 0),
    "Gr": _Family(_shape_a, _base_Gr, _Grades()),
    "N": _Family(_shape_b, _base_N, 0, 1, pants=_pants_N),
    "Nt": _Family(_shape_b, _base_Nt, _Grades(), _Grades((0, 1)), pants=_pants_Nt),
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


_READ = dict(G=int, N=int, Gr=_read_grades, Nt=_read_grades, Gt=_read_grades)


def _identity(stat: os.stat_result) -> tuple[int, ...]:
    """Changes whenever the file is rewritten: os.replace makes a new inode."""
    return stat.st_dev, stat.st_ino, stat.st_size, stat.st_mtime_ns


def _on_disk(path: str) -> tuple[int, ...] | None:
    try:
        return _identity(os.stat(path))
    except OSError:
        return None


def save_cache(path: str) -> int:
    """Write the memo table to a line-based cache file, replacing it
    atomically; the header carries the record count and the SHA-256 of the
    body.  A memo that holds exactly the records last loaded from or written
    to ``path``, with the file unchanged since, is not written again.
    Returns the number of records in the memo, written or not."""
    if _MEMO.synced == (path, len(_MEMO), _on_disk(path)):
        return len(_MEMO)
    body = "".join(
        f"{name} {g} {n} {','.join(map(str, b))} {v}\n"
        for (name, g, n, b), v in sorted(_MEMO.items())
    )
    digest = sha256(body.encode("ascii")).hexdigest()
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="ascii") as fh:
            fh.write(f"{CACHE_HEADER} {len(_MEMO)} {digest}\n{body}")
            fh.flush()
            written = _identity(os.fstat(fh.fileno()))
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    _MEMO.synced = (path, len(_MEMO), written)
    return len(_MEMO)


def load_cache(path: str) -> int:
    """Load a cache file into the memo table.  A file of another version, or
    with a wrong digest, record count or record, is ignored as a whole with a
    warning on stderr.  Each distinct ``family g n`` head and each distinct
    boundary is parsed once.  When every memo entry then came from the file,
    the memo counts as in sync with it, and ``save_cache(path)`` skips the
    write until the memo grows or the file changes.  Returns the number of
    records loaded."""
    _MEMO.synced = None
    try:
        with open(path, "rb") as fh:
            stamp = _identity(os.fstat(fh.fileno()))
            data = fh.read()
    except FileNotFoundError:
        return 0
    try:
        header, _, body = data.partition(b"\n")
        fields = header.decode("ascii").rsplit(" ", 2)
        if len(fields) != 3 or fields[0] != CACHE_HEADER:
            raise ValueError("unknown version")
        if sha256(body).hexdigest() != fields[2]:
            raise ValueError("digest mismatch")
        lines = body.decode("ascii").splitlines()
        if len(lines) != int(fields[1]):
            raise ValueError("record count mismatch")
        heads, bounds, entries = {}, {}, {}
        for no, line in enumerate(lines, 2):
            parts = line.rsplit(" ", 2)  # "family g n", b, value
            if len(parts) != 3:
                raise ValueError(f"malformed record on line {no}")
            head, b, v = parts
            if (parsed := heads.get(head)) is None:
                name, *gn = head.split(" ")
                if len(gn) != 2 or name not in _READ:
                    raise ValueError(f"malformed record on line {no}")
                parsed = heads[head] = (name, *map(int, gn), _READ[name])
            name, g, n, read = parsed
            if (bt := bounds.get(b)) is None:
                bt = bounds[b] = tuple(map(int, b.split(",")))
            if len(bt) != n:
                raise ValueError(f"malformed record on line {no}")
            entries[(name, g, n, bt)] = read(v)
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        print(f"warning: ignoring cache {path!r} ({exc})", file=sys.stderr)
        return 0
    _MEMO.update(entries)
    # in sync only if every memo entry came from the file: save_cache compares
    # this count with the memo size
    _MEMO.synced = (path, len(entries), stamp)
    return len(entries)
