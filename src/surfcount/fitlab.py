"""Fit quasi-polynomials to the normalized counts and certify their shape.

The normalized parallel-free count (count divided by the product of barred
boundary entries) agrees with a polynomial in the b_i on each parity class,
of total degree 6g-6+2n with even exponents only.  ``fit_Nhat`` recovers
those branch polynomials by exact tensor-grid interpolation and then proves
the fit honest on held-out points.  ``fit_Nhat_refined`` does the same for
the region-refined counts with a prescribed number of zero entries, and
``fit_G_poly`` for the all-diagram counts stripped of their central
binomial prefactor (a polynomial family in the half-entries m_i).

Every count fitted here is symmetric in its boundary entries, so branches
whose parity signatures are permutations of each other carry one polynomial
up to a relabelling of the variables.  All fits run one branch loop
(``_fit_branches``): it interpolates only the sorted representative of a
signature orbit (evens first, e.g. ``eeeoo``), derives the other branches
by permuting variables, and puts every branch, derived or not, through its
target's structural checks and seeded held-out points of its own.  Grids
and held-out points come from one sampler over two axis kinds: parity axes
in the b_i and unit axes in the m_i.

Two consumers sit on top: ``extract_psi`` reads intersection numbers off
the top-degree coefficients, and ``compare_top_degree`` checks that the
lattice-count twin shares exactly that top-degree data.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import product
from math import factorial, prod

from .closed import bar
from .engine import count_G, count_G_t, count_lattice, count_N, count_N_t
from .exact import (
    EVEN,
    FitInvalid,
    MultiPoly,
    ODD,
    QuasiPoly,
    ZERO,
    _reject,
    binomial,
    certify,
    interpolate_tensor,
    vectors_with_sum_at_most,
)


@dataclass(frozen=True)
class FitReport:
    """Outcome of one fitting run.

    ``branches`` holds one polynomial per parity signature.  For the
    ``Nhat`` targets the polynomials are in the raw boundary entries; for
    the ``G_poly`` targets they are in the half-entries m_i = floor(b_i/2),
    so evaluate those through :meth:`branch`, not through the signature
    dispatch.  ``validation_points`` counts the held-out points at which
    the fit (or a claimed zero branch) was confirmed exactly.
    """

    target: str
    g: int
    n: int
    t: int | None
    k: int | None
    degree: int
    branches: QuasiPoly
    validation_points: int

    def branch(self, sig: str) -> MultiPoly | None:
        return self.branches.branches.get(sig)


# The two axis kinds of a grid: each gives the node at index i on an axis of
# parity `ch`, and one seeded random draw for a held-out point of a grid whose
# degree plus point budget is `span`.  Parity axes run over the boundary
# entries b (the smallest values of one parity); unit axes over the
# half-entries m, where the parity sits in the branch, not the point.
_PARITY = (
    lambda ch, i: (2 if ch == EVEN else 1) + 2 * i,
    lambda ch, rng, span: rng.randrange(2 if ch == EVEN else 1, 2 * span + 18, 2),
)
_UNIT = (lambda ch, i: 1 + i, lambda ch, rng, span: rng.randrange(0, span + 9))


def _grid_points(sig: str, degree: int, axis=_PARITY):
    node = axis[0]
    return product(*([node(ch, i) for i in range(degree + 1)] for ch in sig))


def _validation_free(sig: str, degree: int, rng: random.Random, minimum: int, axis=_PARITY):
    """Held-out points: the next two values beyond the grid on each axis,
    topped up with seeded random points (of the right parities)."""
    node, draw = axis
    pts = set()
    base = [node(ch, 0) for ch in sig]
    for i, ch in enumerate(sig):
        for j in (degree + 1, degree + 2):
            p = list(base)
            p[i] = node(ch, j)
            pts.add(tuple(p))
    while len(pts) < minimum:  # the span keeps each axis richer than `minimum`
        pts.add(tuple(draw(ch, rng, degree + minimum) for ch in sig))
    return sorted(pts)


def _assert_even_exponents(poly: MultiPoly, context: str) -> None:
    for exps in poly.terms:
        if any(e % 2 for e in exps):
            raise FitInvalid(f"{context}: fitted polynomial has an odd exponent")


def _assert_symmetric(poly: MultiPoly, freesig: str, context: str) -> None:
    for ch in (EVEN, ODD):
        pos = [i for i, c in enumerate(freesig) if c == ch]
        for a, b in zip(pos, pos[1:]):
            perm = list(range(poly.nvars))
            perm[a], perm[b] = perm[b], perm[a]
            if poly.permute_vars(perm) != poly:
                raise FitInvalid(f"{context}: not symmetric within a parity class")


def _check_args(g: int, n: int, *grades: int) -> None:
    _reject(int, (g, n, *grades), "g, n, t and k")
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("need a hyperbolic-type surface: 2g - 2 + n > 0")


def _fit_branches(
    ctx: str, n: int, k: int, D: int, values: Callable[[str], Callable[[tuple], Fraction]],
    zero: Callable[[str], bool], check: Callable[[str, str, MultiPoly], None],
    rng: random.Random, zero_held: tuple[int, int] | None = None, held: int = 10, axis=_PARITY,
) -> tuple[QuasiPoly, int]:
    """The branch loop of every fit, over the parity signatures of the n-k
    free slots with the k pinned zeros appended as ``z``.

    ``values(freesig)`` is the branch's value function on free points.  A
    branch where ``zero(freesig)`` holds is certified zero on held-out points
    of budget ``zero_held`` (degree, minimum; default (D, held)).  Any other
    branch is read off one interpolation per signature orbit: the grid of
    the sorted representative (evens first) is interpolated once, and each
    branch relabels its variables.  The branch then passes ``check(ctx,
    freesig, poly)`` and the symmetry check, and is certified on at least
    ``held`` of its own held-out points.  Returns the branches and the
    number of points certified.
    """
    qp = QuasiPoly(n)
    checked = 0
    fitted: dict[str, MultiPoly] = {}
    for word in product((EVEN, ODD), repeat=n - k):
        freesig = "".join(word)
        sig = freesig + ZERO * k
        bctx = f"{ctx} branch {sig}"
        if zero(freesig):
            poly = MultiPoly.zero(n - k)
            degree, minimum = zero_held or (D, held)
            points = _validation_free(freesig, degree, rng, minimum, axis)
        else:
            rep = "".join(sorted(freesig))
            if rep not in fitted:
                value = values(rep)
                grid = {p: value(p) for p in _grid_points(rep, D, axis)}
                fitted[rep] = interpolate_tensor(grid, D)
            # slot order[j] of freesig sits at slot j of rep; freesig's
            # variable i reads rep's variable perm[i], the inverse of order
            order = sorted(range(n - k), key=freesig.__getitem__)
            poly = fitted[rep].permute_vars(sorted(range(n - k), key=order.__getitem__))
            check(bctx, freesig, poly)
            _assert_symmetric(poly, freesig, bctx)
            points = _validation_free(freesig, D, rng, held, axis)
        checked += certify(bctx, poly, values(freesig), points)
        qp.set_branch(sig, poly)
    return qp, checked


_NHAT_CACHE: dict[tuple[int, int], FitReport] = {}


def fit_Nhat(g: int, n: int) -> FitReport:
    """Fit the normalized parallel-free count on every parity class.

    Only the sorted representative of each orbit of even-total signatures
    is interpolated; the other branches are its variable permutations.
    Every branch, derived or not, is checked and certified on its own
    held-out points.  Certifies: even exponents only, total degree exactly
    6g-6+2n on the even-total classes (odd-total classes are confirmed
    identically zero by sampling, never assumed), symmetry within parity
    classes, a strictly positive top-degree part, and exact agreement on
    >= 10 held-out points per branch.
    """
    _check_args(g, n)
    if (g, n) in _NHAT_CACHE:
        return _NHAT_CACHE[(g, n)]
    D = 6 * g - 6 + 2 * n

    def nhat(b) -> Fraction:
        return Fraction(count_N(g, n, b), prod(map(bar, b)))

    def check(ctx: str, sig: str, poly: MultiPoly) -> None:
        _assert_even_exponents(poly, ctx)
        if poly.total_degree() != D:
            raise FitInvalid(f"{ctx}: degree {poly.total_degree()} != {D}")
        if any(c <= 0 for c in poly.homogeneous_part(D).terms.values()):
            raise FitInvalid(f"{ctx}: top-degree part is not positive")

    qp, checked = _fit_branches(
        f"Nhat({g},{n})", n, 0, D, lambda sig: nhat, lambda sig: sig.count(ODD) % 2,
        check, random.Random(f"Nhat {g} {n}"),
    )
    report = FitReport("Nhat", g, n, None, None, D, qp, checked)
    _NHAT_CACHE[(g, n)] = report
    return report


def fit_Nhat_refined(g: int, n: int, t: int, k: int) -> FitReport:
    """Fit the normalized refined count with exactly k zero entries.

    Branch signatures put the k pinned zeros last; each branch polynomial
    lives in the n-k positive variables, has even exponents, and total
    degree at most 2(3g-3+n-t+k).  At t = k the degree is exactly
    2(3g-3+n) and the top-degree part must reproduce the unrefined top
    with the zero slots substituted.  Values of t outside the admissible
    window give branches that are confirmed zero by sampling.
    """
    _check_args(g, n, t, k)
    if not 0 <= k <= n:
        raise ValueError("k must lie between 0 and n")
    if k == n:
        zeros = (0,) * n
        expect = 1 if t == 2 * g + n - 1 else 0
        got = count_N_t(g, n, zeros, t)
        if got != expect:
            raise FitInvalid(f"Nhat_t({g},{n},t={t},k={n}): value {got} != {expect}")
        qp = QuasiPoly(n)
        qp.set_branch(ZERO * n, MultiPoly(0, {(): Fraction(expect)} if expect else {}))
        return FitReport("Nhat_t", g, n, t, k, 0, qp, 1)

    D = 2 * (3 * g - 3 + n - t + k)
    feasible = k <= t <= min(2 * g + n - 1, k + 3 * g - 3 + n)

    def nhat_t(b) -> Fraction:
        return Fraction(count_N_t(g, n, tuple(b) + (0,) * k, t), prod(map(bar, b)))

    def check(ctx: str, freesig: str, poly: MultiPoly) -> None:
        _assert_even_exponents(poly, ctx)
        if poly.total_degree() > D:
            raise FitInvalid(f"{ctx}: degree {poly.total_degree()} > {D}")
        if t == k:
            full = 2 * (3 * g - 3 + n)
            if poly.total_degree() != full:
                raise FitInvalid(f"{ctx}: degree {poly.total_degree()} != {full}")
            base = fit_Nhat(g, n).branch(freesig + EVEN * k)
            zero_pos = list(range(n - k, n))
            want_top = base.homogeneous_part(full).substitute_zero(zero_pos)
            if poly.homogeneous_part(full) != want_top:
                raise FitInvalid(f"{ctx}: top-degree part differs from unrefined")

    qp, checked = _fit_branches(
        f"Nhat_t({g},{n},t={t},k={k})", n, k, D, lambda sig: nhat_t,
        lambda sig: sig.count(ODD) % 2 or not feasible, check,
        random.Random(f"Nhat_t {g} {n} {t} {k}"), zero_held=(max(D, 0), 8),
    )
    return FitReport("Nhat_t", g, n, t, k, D, qp, checked)


def fit_G_poly(g: int, n: int, t: int | None = None) -> FitReport:
    """Fit the all-diagram count divided by its central binomial prefactor.

    The quotient is a polynomial family in the half-entries m_i: total
    degree exactly 3g-3+2n with a positive top part when unrefined; at most
    3g-3+2n-t when refined by t, with equality whenever the parity class
    has at least t even slots.  The count vanishes for t outside 0..2g+n-1
    (the grades of the parallel-free cores, which collar filling keeps), and
    there every branch is confirmed zero by sampling.
    """
    _check_args(g, n, *([] if t is None else [t]))
    Dfull = 3 * g - 3 + 2 * n
    D = Dfull if t is None else Dfull - t
    window = t is None or 0 <= t <= 2 * g + n - 1

    def stripped(sig: str, m) -> Fraction:
        b = tuple(2 * mi + (1 if ch == ODD else 0) for mi, ch in zip(m, sig))
        c = count_G(g, n, b) if t is None else count_G_t(g, n, b, t)
        return Fraction(c, prod(binomial(2 * mi, mi) for mi in m))

    def check(ctx: str, sig: str, poly: MultiPoly) -> None:
        if t is None:
            if poly.total_degree() != D:
                raise FitInvalid(f"{ctx}: degree {poly.total_degree()} != {D}")
            if any(c <= 0 for c in poly.homogeneous_part(D).terms.values()):
                raise FitInvalid(f"{ctx}: top-degree part is not positive")
        else:
            if poly.total_degree() > D:
                raise FitInvalid(f"{ctx}: degree {poly.total_degree()} > {D}")
            if sig.count(EVEN) >= t and poly.total_degree() != D:
                raise FitInvalid(f"{ctx}: degree {poly.total_degree()} != {D}")

    qp, checked = _fit_branches(
        f"Gpoly({g},{n},t={t})", n, 0, D, lambda sig: partial(stripped, sig),
        lambda sig: sig.count(ODD) % 2 or not window, check,
        random.Random(f"Gpoly {g} {n} {t}"), zero_held=(max(D, 1), 10), axis=_UNIT,
    )
    return FitReport("G_poly" if t is None else "G_poly_t", g, n, t, None, D, qp, checked)


def extract_psi(g: int, n: int) -> dict[tuple[int, ...], Fraction]:
    """Read intersection numbers off the top-degree coefficients.

    For every exponent pattern d with sum 3g-3+n, the coefficient c_d of
    prod b_i^{2 d_i} in the fitted normalized count gives the intersection
    number c_d * 2^(5g-6+2n) * prod d_i!.  The top-degree part must agree
    across parity branches, so it is cross-checked against a mixed branch
    before use, and every pattern must appear with a positive value.
    """
    report = fit_Nhat(g, n)
    D = 6 * g - 6 + 2 * n
    top = report.branch(EVEN * n).homogeneous_part(D)
    if n >= 2:
        alt = report.branch(ODD * 2 + EVEN * (n - 2)).homogeneous_part(D)
        if alt != top:
            raise FitInvalid(f"psi({g},{n}): parity branches disagree in top degree")
    scale = Fraction(2) ** (5 * g - 6 + 2 * n)
    out: dict[tuple[int, ...], Fraction] = {}
    for exps, c in top.sorted_terms():
        d = tuple(e // 2 for e in exps)
        v = c * scale
        for di in d:
            v *= factorial(di)
        if v <= 0:
            raise FitInvalid(f"psi({g},{n}): nonpositive value at {d}")
        out[d] = v
    for d in vectors_with_sum_at_most(n, 3 * g - 3 + n):
        if sum(d) == 3 * g - 3 + n and d not in out:
            raise FitInvalid(f"psi({g},{n}): missing top coefficient at {d}")
    return out


def compare_top_degree(g: int, n: int) -> bool:
    """Whether the lattice-count twin matches the normalized parallel-free
    count in top degree, branch by parity branch.  The lattice fits are
    validated on held-out points before the comparison; the twin vanishes
    at odd totals, so those branches are certified as zero."""
    report = fit_Nhat(g, n)
    D = 6 * g - 6 + 2 * n
    lattice = partial(count_lattice, g, n)
    qp, _ = _fit_branches(
        f"lattice({g},{n})", n, 0, D, lambda sig: lattice,
        lambda sig: sig.count(ODD) % 2, lambda ctx, sig, poly: None,
        random.Random(f"lattice {g} {n}"), held=6,
    )
    return all(
        poly.homogeneous_part(D) == report.branch(sig).homogeneous_part(D)
        for sig, poly in qp.branches.items()
    )
