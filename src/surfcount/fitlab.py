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
up to a relabelling of the variables.  Each fit interpolates only the sorted
representative of a signature orbit (evens first, e.g. ``eeeoo``) and
derives the other branches by permuting variables; every branch, derived or
not, still passes its structural checks and is certified on its own seeded
held-out points.

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
from math import factorial

from .closed import bar
from .engine import count_G, count_G_t, count_lattice, count_N, count_N_t
from .exact import (
    EVEN,
    FitInvalid,
    MultiPoly,
    ODD,
    QuasiPoly,
    ZERO,
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


def _axis(ch: str, count: int, offset: int = 0) -> list[int]:
    """The smallest positive values of one parity, skipping `offset` of them."""
    start = (2 if ch == EVEN else 1) + 2 * offset
    return [start + 2 * i for i in range(count)]


def _grid_points(freesig: str, degree: int):
    return product(*(_axis(ch, degree + 1) for ch in freesig))


def _validation_free(freesig: str, degree: int, rng: random.Random, minimum: int):
    """Held-out points: the next two values beyond the grid on each axis,
    topped up with seeded random points of the right parities."""
    pts = set()
    base = [_axis(ch, 1)[0] for ch in freesig]
    for i, ch in enumerate(freesig):
        for extra in _axis(ch, 2, offset=degree + 1):
            p = list(base)
            p[i] = extra
            pts.add(tuple(p))
    hi = 2 * (degree + minimum) + 18  # keep each axis richer than `minimum`
    while len(pts) < minimum:
        pts.add(
            tuple(rng.randrange(2 if ch == EVEN else 1, hi, 2) for ch in freesig)
        )
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


def _signatures(n: int):
    return ("".join(w) for w in product((EVEN, ODD), repeat=n))


def _orbit_fitter(
    grid: Callable[[str], dict[tuple, Fraction]], degree: int
) -> Callable[[str], MultiPoly]:
    """Branch interpolation, done once per orbit of parity signatures.

    ``grid(sig)`` gives the values of a branch on its tensor grid, from a
    count symmetric under permuting the slots of the signature and the
    point together.  The returned ``fit(sig)`` interpolates the grid of the
    sorted representative of ``sig`` (evens first), once, and relabels its
    variables for ``sig``.  It certifies nothing: the callers check and
    certify every branch they get from it.
    """
    fitted: dict[str, MultiPoly] = {}

    def fit(sig: str) -> MultiPoly:
        rep = "".join(sorted(sig))
        if rep not in fitted:
            fitted[rep] = interpolate_tensor(grid(rep), degree)
        # slot order[j] of sig sits at slot j of rep; sig's variable i reads
        # rep's variable perm[i], the inverse of order
        order = sorted(range(len(sig)), key=sig.__getitem__)
        perm = sorted(range(len(sig)), key=order.__getitem__)
        return fitted[rep].permute_vars(perm)

    return fit


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
    if (g, n) in _NHAT_CACHE:
        return _NHAT_CACHE[(g, n)]
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("need a hyperbolic-type surface: 2g - 2 + n > 0")
    D = 6 * g - 6 + 2 * n
    rng = random.Random(f"Nhat {g} {n}")
    qp = QuasiPoly(n)
    checked = 0

    def nhat(b) -> Fraction:
        den = 1
        for x in b:
            den *= bar(x)
        return Fraction(count_N(g, n, b), den)

    fit = _orbit_fitter(lambda sig: {p: nhat(p) for p in _grid_points(sig, D)}, D)
    for sig in _signatures(n):
        ctx = f"Nhat({g},{n}) branch {sig}"
        if sig.count(ODD) % 2:
            checked += certify(ctx, MultiPoly.zero(n), nhat, _validation_free(sig, D, rng, 10))
            qp.set_branch(sig, MultiPoly.zero(n))
            continue
        poly = fit(sig)
        _assert_even_exponents(poly, ctx)
        if poly.total_degree() != D:
            raise FitInvalid(f"{ctx}: degree {poly.total_degree()} != {D}")
        if any(c <= 0 for c in poly.homogeneous_part(D).terms.values()):
            raise FitInvalid(f"{ctx}: top-degree part is not positive")
        _assert_symmetric(poly, sig, ctx)
        checked += certify(ctx, poly, nhat, _validation_free(sig, D, rng, 10))
        qp.set_branch(sig, poly)
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
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("need a hyperbolic-type surface: 2g - 2 + n > 0")
    if not 0 <= k <= n:
        raise ValueError("k must lie between 0 and n")
    rng = random.Random(f"Nhat_t {g} {n} {t} {k}")
    qp = QuasiPoly(n)
    checked = 0
    if k == n:
        zeros = (0,) * n
        expect = 1 if t == 2 * g + n - 1 else 0
        got = count_N_t(g, n, zeros, t)
        if got != expect:
            raise FitInvalid(f"Nhat_t({g},{n},t={t},k={n}): value {got} != {expect}")
        qp.set_branch(ZERO * n, MultiPoly(0, {(): Fraction(expect)} if expect else {}))
        return FitReport("Nhat_t", g, n, t, k, 0, qp, 1)

    D = 2 * (3 * g - 3 + n - t + k)
    feasible = k <= t <= min(2 * g + n - 1, k + 3 * g - 3 + n)

    def nhat_t(freesig: str, free_pt) -> Fraction:
        den = 1
        for x in free_pt:
            den *= bar(x)
        return Fraction(count_N_t(g, n, tuple(free_pt) + (0,) * k, t), den)

    fit = _orbit_fitter(lambda fs: {p: nhat_t(fs, p) for p in _grid_points(fs, D)}, D)
    for freesig in _signatures(n - k):
        sig = freesig + ZERO * k
        ctx = f"Nhat_t({g},{n},t={t},k={k}) branch {sig}"
        value = partial(nhat_t, freesig)
        if freesig.count(ODD) % 2 or not feasible:
            zero = MultiPoly.zero(n - k)
            checked += certify(ctx, zero, value, _validation_free(freesig, max(D, 0), rng, 8))
            qp.set_branch(sig, zero)
            continue
        poly = fit(freesig)
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
        _assert_symmetric(poly, freesig, ctx)
        checked += certify(ctx, poly, value, _validation_free(freesig, D, rng, 10))
        qp.set_branch(sig, poly)
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
    if g < 0 or n < 1 or 2 * g - 2 + n <= 0:
        raise ValueError("need a hyperbolic-type surface: 2g - 2 + n > 0")
    Dfull = 3 * g - 3 + 2 * n
    D = Dfull if t is None else Dfull - t
    window = t is None or 0 <= t <= 2 * g + n - 1
    rng = random.Random(f"Gpoly {g} {n} {t}")
    qp = QuasiPoly(n)
    checked = 0

    def stripped(sig: str, m) -> Fraction:
        b = tuple(2 * mi + (1 if ch == ODD else 0) for mi, ch in zip(m, sig))
        den = 1
        for mi in m:
            den *= binomial(2 * mi, mi)
        c = count_G(g, n, b) if t is None else count_G_t(g, n, b, t)
        return Fraction(c, den)

    def m_points(degree: int):
        return product(*([list(range(1, degree + 2))] * n))

    def m_validation(degree: int, minimum: int):
        pts = set()
        base = [1] * n
        for i in range(n):
            for extra in (degree + 2, degree + 3):
                p = list(base)
                p[i] = extra
                pts.add(tuple(p))
        while len(pts) < minimum:
            pts.add(tuple(rng.randrange(0, degree + minimum + 9) for _ in range(n)))
        return sorted(pts)

    fit = _orbit_fitter(lambda sig: {m: stripped(sig, m) for m in m_points(D)}, D)
    for sig in _signatures(n):
        ctx = f"Gpoly({g},{n},t={t}) branch {sig}"
        value = partial(stripped, sig)
        if sig.count(ODD) % 2 or not window:
            checked += certify(ctx, MultiPoly.zero(n), value, m_validation(max(D, 1), 10))
            qp.set_branch(sig, MultiPoly.zero(n))
            continue
        poly = fit(sig)
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
        _assert_symmetric(poly, sig, ctx)
        checked += certify(ctx, poly, value, m_validation(D, 10))
        qp.set_branch(sig, poly)
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
    rng = random.Random(f"lattice {g} {n}")
    lattice = partial(count_lattice, g, n)
    fit = _orbit_fitter(lambda sig: {p: lattice(p) for p in _grid_points(sig, D)}, D)
    for sig in _signatures(n):
        ctx = f"lattice({g},{n}) branch {sig}"
        if sig.count(ODD) % 2:
            certify(ctx, MultiPoly.zero(n), lattice, _validation_free(sig, D, rng, 6))
            if not report.branch(sig).is_zero():
                return False
            continue
        latt = fit(sig)
        certify(ctx, latt, lattice, _validation_free(sig, D, rng, 6))
        if latt.homogeneous_part(D) != report.branch(sig).homogeneous_part(D):
            return False
    return True
