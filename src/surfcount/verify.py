"""Verification suites over the whole package.

Every check re-derives a quantity along two independent routes (closed form
vs recursion, convolution vs direct count, fitted polynomial vs frozen
table, series expansion vs count-built series, brute-force oracle vs
formula) and demands exact agreement.  Checks are grouped into named
suites; ``run_suite`` executes one suite (or ``"all"``) and returns one
:class:`CheckResult` per check, in definition order.  A check depends only
on its own inputs, never on which checks ran before it, so every report is
the same byte for byte at any CPU count.  Where ``fork`` is available and
the process may use more than one CPU, the suites run in forked worker
processes, up to one per CPU; otherwise they run inline, one after another.
"""

from __future__ import annotations

import os
from fractions import Fraction
from itertools import permutations, product
from typing import Callable, NamedTuple

from .closed import catalan, closed_G, closed_N, pants_classify
from .engine import (
    convolve_G_from_N,
    count_G,
    count_G_r,
    count_G_t,
    count_G_t_via_r,
    count_lattice,
    count_N,
    count_N_t,
    dilaton_reduce,
)
from .exact import (
    EVEN,
    MultiPoly,
    ODD,
    ZERO,
    binomial,
    interpolate_tensor,
    vectors_with_sum_at_most,
)
from .fitlab import compare_top_degree, extract_psi, fit_G_poly, fit_Nhat, fit_Nhat_refined
from .moduli import euler_characteristic
from .oracles import all_arrow_labellings, arrows_to_arcs, enumerate_disc, pants_search
from .series import (
    CLOSED_FORM_NAMES,
    closed_form_reference,
    diff_recursion_residual,
    expand_closed_form,
    pullback_check,
    scaling_check,
)
from .sums import SumFamily, fit_sum, sum_direct, tilde_sum, tilde_sum_factored


class CheckResult(NamedTuple):
    suite: str
    check: str
    ok: bool
    detail: str


class CheckFailure(AssertionError):
    """A verification check found a concrete disagreement."""


def _fail(msg: str) -> None:
    raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# Frozen expected data.  Everything below is reference closed-form
# material frozen at build time; the checks compare computed objects
# against it exactly, coefficient for coefficient.
# ---------------------------------------------------------------------------

# Weighted boundary-sum families: branch -> {odd exponent: coefficient}.
_SUM_TABLES: dict[tuple[str, int, int | None], dict[str, dict[int, str]]] = {
    ("A", 0, None): {
        "e": {3: "1/12", 1: "2/3"},
        "o": {3: "1/12", 1: "-1/12"},
    },
    ("A", 1, None): {
        "e": {5: "1/40", 3: "-1/6", 1: "4/15"},
        "o": {5: "1/40", 3: "-1/6", 1: "17/120"},
    },
    ("A", 2, None): {
        "e": {7: "1/84", 5: "-1/6", 3: "2/3", 1: "-16/21"},
        "o": {7: "1/84", 5: "-1/6", 3: "2/3", 1: "-43/84"},
    },
    ("A", 3, None): {
        "e": {9: "1/144", 7: "-1/6", 5: "7/5", 3: "-40/9", 1: "64/15"},
        "o": {9: "1/144", 7: "-1/6", 5: "7/5", 3: "-40/9", 1: "769/240"},
    },
    ("B", 0, 0): {
        "e": {5: "1/240", 3: "1/8", 1: "13/30"},
        "o": {5: "1/240", 3: "1/8", 1: "-31/240"},
    },
    ("B", 0, 1): {
        "e": {7: "1/1680", 5: "7/480", 3: "-7/60", 1: "41/210"},
        "o": {7: "1/1680", 5: "7/480", 3: "-7/60", 1: "341/3360"},
    },
    ("B", 0, 2): {
        "e": {9: "1/6048", 7: "1/144", 5: "-169/1440", 3: "185/378", 1: "-17/30"},
        "o": {9: "1/6048", 7: "1/144", 5: "-169/1440", 3: "185/378", 1: "-91/240"},
    },
    ("B", 1, 1): {
        "e": {9: "1/20160", 7: "-1/840", 5: "1/96", 3: "-23/630", 1: "3/70"},
        "o": {9: "1/20160", 7: "-1/840", 5: "1/96", 3: "-23/630", 1: "61/2240"},
    },
}

# Central-moment sums: the polynomial factor multiplying binom(2n, n).
_MOMENT_REFERENCE: dict[tuple[str, int], Callable[[int], int]] = {
    ("P", 0): lambda n: n + 1,
    ("P", 1): lambda n: 4 * n * n,
    ("P", 2): lambda n: 16 * n * n * (2 * n - 1),
    ("P", 3): lambda n: 64 * n * n * (6 * n * n - 8 * n + 3),
    ("Q", 0): lambda n: 2 * n + 1,
    ("Q", 1): lambda n: (2 * n + 1) * (4 * n + 1),
    ("Q", 2): lambda n: (2 * n + 1) * (32 * n * n + 8 * n + 1),
    ("Q", 3): lambda n: (2 * n + 1) * (384 * n**3 - 32 * n * n + 12 * n + 1),
}


def _poly1(coeffs: dict[int, str]) -> MultiPoly:
    return MultiPoly(1, {(e,): Fraction(c) for e, c in coeffs.items()})


def _sym(nvars: int, types: dict[tuple[int, ...], int | str]) -> MultiPoly:
    """Each coefficient summed over the distinct permutations of its exponent
    type, padded with zeros to `nvars` variables; () is the constant term."""
    return MultiPoly(nvars, [
        (exps, Fraction(c))
        for typ, c in types.items()
        for exps in sorted(set(permutations(typ + (0,) * (nvars - len(typ)))))
    ])


# Refined normalized tables for the cylinder-free counts, keyed by
# (free parity signature, number of pinned zeros, t).  A missing (sig, k, t)
# cell means the branch must be identically zero.  The k = n all-zero
# profile is handled separately (value 1 exactly at t = 2g + n - 1).
def _refined_expected_1_1() -> dict[tuple[str, int, int], MultiPoly]:
    return {
        ("e", 0, 0): MultiPoly(
            1, {(2,): Fraction(1, 48), (0,): Fraction(-1, 12)}
        ),
        ("e", 0, 1): _sym(1, {(): "1/2"}),
    }


def _refined_expected_0_3() -> dict[tuple[str, int, int], MultiPoly]:
    # k zeros force t = k for k <= 1 and t = 2 for k = 2; the value is 1.
    return {
        ("eee", 0, 0): _sym(3, {(): 1}),
        ("ooe", 0, 0): _sym(3, {(): 1}),
        ("ee", 1, 1): _sym(2, {(): 1}),
        ("oo", 1, 1): _sym(2, {(): 1}),
        ("e", 2, 2): _sym(1, {(): 1}),
    }


def _refined_expected_0_4() -> dict[tuple[str, int, int], MultiPoly]:
    out: dict[tuple[str, int, int], MultiPoly] = {}
    # All even entries.
    out[("eeee", 0, 0)] = _sym(4, {(2,): "1/4", (): -1})
    out[("eeee", 0, 1)] = _sym(4, {(): 3})
    out[("eee", 1, 1)] = _sym(3, {(2,): "1/4", (): -1})
    out[("eee", 1, 2)] = _sym(3, {(): 3})
    out[("ee", 2, 2)] = _sym(2, {(2,): "1/4"})
    out[("ee", 2, 3)] = _sym(2, {(): 2})
    out[("e", 3, 3)] = _sym(1, {(2,): "1/4", (): 2})
    # Two odd entries (zeros can only occupy the even slots).
    out[("ooee", 0, 0)] = _sym(4, {(2,): "1/4", (): "-1/2"})
    out[("ooee", 0, 1)] = _sym(4, {(): 1})
    out[("ooe", 1, 1)] = _sym(3, {(2,): "1/4", (): "-1/2"})
    out[("ooe", 1, 2)] = _sym(3, {(): 1})
    out[("oo", 2, 2)] = _sym(2, {(2,): "1/4", (): "1/2"})
    # Four odd entries.
    out[("oooo", 0, 0)] = _sym(4, {(2,): "1/4", (): -1})
    out[("oooo", 0, 1)] = _sym(4, {(): 3})
    return out


_NHAT_1_1 = MultiPoly(1, {(2,): Fraction(1, 48), (0,): Fraction(5, 12)})

# Intersection numbers, keyed by (g, n) -> {exponent pattern: value}.
_PSI_EXPECTED: dict[tuple[int, int], dict[tuple[int, ...], str]] = {
    (0, 3): {(0, 0, 0): "1"},
    (1, 1): {(1,): "1/24"},
    (0, 4): {
        (1, 0, 0, 0): "1",
        (0, 1, 0, 0): "1",
        (0, 0, 1, 0): "1",
        (0, 0, 0, 1): "1",
    },
    (1, 2): {(2, 0): "1/24", (0, 2): "1/24", (1, 1): "1/24"},
}
_PSI_0_5 = _sym(5, {(2,): 1, (1, 1): 2}).terms


# ---------------------------------------------------------------------------
# closed-forms suite
# ---------------------------------------------------------------------------

def check_disc_catalan() -> str:
    for m in range(13):
        want = catalan(m)
        got = count_G(0, 1, (2 * m,))
        if got != want:
            _fail(f"count_G(0,1,[{2*m}]) = {got}, Catalan says {want}")
        if closed_G(0, 1, (2 * m,)) != want:
            _fail(f"closed_G(0,1,[{2*m}]) != Catalan {want}")
    for b in range(1, 26, 2):
        if count_G(0, 1, (b,)) != 0:
            _fail(f"count_G(0,1,[{b}]) nonzero on odd input")
    return "Catalan values m <= 12 and odd-input vanishing"


def _sweep(surfaces, total: int, want: Callable, got: Callable, mismatch: str) -> int:
    """Compare two routes on every boundary vector of sum <= total of each
    (g, n) in surfaces, reference first; a mismatch fails with the template
    ``mismatch`` filled in.  Returns the number of vectors compared."""
    cases = 0
    for g, n in surfaces:
        for b in vectors_with_sum_at_most(n, total):
            ref, val = want(g, n, b), got(g, n, b)
            if val != ref:
                _fail(mismatch.format(g=g, n=n, b=b, got=val, want=ref))
            cases += 1
    return cases


def check_closed_vs_recursion_G() -> str:
    cases = _sweep(
        ((0, 1), (0, 2), (0, 3), (1, 1)), 14, closed_G, count_G,
        "count_G({g},{n},{b}) = {got} != closed {want}",
    )
    return f"{cases} boundary vectors across (0,1),(0,2),(0,3),(1,1), sum <= 14"


def check_closed_vs_recursion_N() -> str:
    cases = _sweep(
        ((0, 1), (0, 2), (0, 3), (0, 4), (1, 1)), 14, closed_N, count_N,
        "count_N({g},{n},{b}) = {got} != closed {want}",
    )
    return f"{cases} boundary vectors across five (g,n), sum <= 14"


# ---------------------------------------------------------------------------
# recursion-consistency suite
# ---------------------------------------------------------------------------

def check_collar_convolution() -> str:
    cases = _sweep(
        ((0, 2), (0, 3), (0, 4), (1, 1), (1, 2)), 12, count_G, convolve_G_from_N,
        "convolution at ({g},{n},{b}): {got} != {want}",
    )
    return f"{cases} vectors, collar convolution == direct count"


def check_refinement_sums() -> str:
    cases = 0
    for g, n in ((0, 3), (0, 4), (1, 1), (1, 2)):
        tmax = 2 * g + n - 1
        for b in vectors_with_sum_at_most(n, 12):
            if sum(count_N_t(g, n, b, t) for t in range(tmax + 1)) != count_N(g, n, b):
                _fail(f"sum_t count_N_t != count_N at ({g},{n},{b})")
            total = 0
            for t in range(tmax + 1):
                via_conv = count_G_t(g, n, b, t)
                via_r = count_G_t_via_r(g, n, b, t)
                if via_conv != via_r:
                    _fail(
                        f"count_G_t routes disagree at ({g},{n},{b},t={t}): "
                        f"{via_conv} != {via_r}"
                    )
                total += via_conv
            if total != count_G(g, n, b):
                _fail(f"sum_t count_G_t != count_G at ({g},{n},{b})")
            cases += 1
    return f"{cases} vectors, refinement sums and dual refined routes"


def check_dilaton() -> str:
    cases = 0
    for g, n in ((0, 2), (0, 3), (0, 4), (1, 2)):
        for rest in vectors_with_sum_at_most(n - 1, 10):
            b = (0,) + rest
            rmax = 1 + sum(rest) // 2 + (3 * g + n)  # beyond any achievable r
            for r in range(1, rmax + 1):
                want = dilaton_reduce(g, n, b, r)
                got = count_G_r(g, n, b, r)
                if got != want:
                    _fail(
                        f"zero-entry reduction at ({g},{n},{b},r={r}): "
                        f"{got} != {want}"
                    )
                cases += 1
    return f"{cases} (vector, r) pairs, zero-entry reduction"


# ---------------------------------------------------------------------------
# refined suite
# ---------------------------------------------------------------------------

def _check_refined_cells(
    g: int, n: int, expected: dict[tuple[str, int, int], MultiPoly]
) -> int:
    """Compare every (free signature, k, t) cell against the frozen table.

    The expected map is keyed by the canonical (odd-first) spelling of the
    free signature, since every tabulated polynomial is symmetric; entries
    missing from the map must come back as identically zero branches.  The
    all-zero profile (k = n) must give exactly 1 at t = 2g + n - 1.
    """
    cells = 0
    tmax = 2 * g + n - 1
    for k in range(n + 1):
        for t in range(tmax + 1):
            if k == n:
                want = 1 if t == tmax else 0
                got = count_N_t(g, n, (0,) * n, t)
                if got != want:
                    _fail(f"all-zero profile ({g},{n}) t={t}: {got} != {want}")
                cells += 1
                continue
            report = fit_Nhat_refined(g, n, t, k)
            for chars in product((EVEN, ODD), repeat=n - k):
                free = "".join(chars)
                got = report.branch(free + ZERO * k)
                if got is None:
                    _fail(f"({g},{n}) t={t} k={k} branch {free!r} missing")
                canon = "".join(sorted(free, reverse=True))
                want = expected.get((canon, k, t), MultiPoly.zero(n - k))
                if got != want:
                    _fail(
                        f"({g},{n}) t={t} k={k} branch {free!r}: "
                        f"fitted {got.terms} != table {want.terms}"
                    )
                cells += 1
    return cells


def check_refined_cells_1_1() -> str:
    cells = _check_refined_cells(1, 1, _refined_expected_1_1())
    return f"{cells} table cells for (1,1), zeros included"


def check_refined_cells_0_3() -> str:
    cells = _check_refined_cells(0, 3, _refined_expected_0_3())
    return f"{cells} table cells for (0,3), zeros included"


def check_refined_cells_0_4() -> str:
    cells = _check_refined_cells(0, 4, _refined_expected_0_4())
    return f"{cells} table cells for (0,4): all-even, two-odd, four-odd"


def check_refined_window() -> str:
    cases = 0
    for g, n in ((0, 3), (0, 4), (1, 1), (1, 2)):
        tmax = 2 * g + n - 1
        for b in vectors_with_sum_at_most(n, 12):
            k = sum(1 for x in b if x == 0)
            if sum(b) % 2:
                for t in range(tmax + 1):
                    if count_N_t(g, n, b, t) != 0:
                        _fail(f"odd-sum vector {b} has nonzero refined count")
                cases += 1
                continue
            if k == n:
                for t in range(tmax + 1):
                    want = 1 if t == tmax else 0
                    if count_N_t(g, n, b, t) != want:
                        _fail(f"all-zero ({g},{n}) at t={t}")
                cases += 1
                continue
            hi = min(tmax, k + 3 * g - 3 + n)
            for t in range(tmax + 1):
                v = count_N_t(g, n, b, t)
                if not k <= t <= hi and v != 0:
                    _fail(f"({g},{n},{b}) t={t} outside [{k},{hi}] but count {v}")
                if v < 0:
                    _fail(f"negative refined count at ({g},{n},{b},t={t})")
            at_k = count_N_t(g, n, b, k)
            expect_pos = sum(b) // 2 >= 2 * g + n - 1 - k
            if expect_pos and at_k <= 0:
                _fail(f"({g},{n},{b}): expected positive count at t=k={k}")
            if not expect_pos and at_k != 0:
                _fail(f"({g},{n},{b}): expected zero at t=k={k}, got {at_k}")
            cases += 1
    return f"{cases} vectors, vanishing window and existence threshold"


# ---------------------------------------------------------------------------
# sums suite
# ---------------------------------------------------------------------------

def check_sum_tables() -> str:
    branches = 0
    for (tag, m, nn), table in _SUM_TABLES.items():
        fam = SumFamily(tag, m, nn)
        qp = fit_sum(fam)
        for sig, coeffs in table.items():
            got = qp.branches.get(sig)
            want = _poly1(coeffs)
            if got != want:
                _fail(
                    f"{tag}_{m}{'' if nn is None else f',{nn}'} branch {sig}: "
                    f"fitted {got.terms if got else None} != table {want.terms}"
                )
            branches += 1
        # Five fresh direct evaluations per branch, beyond the fit's own grid.
        for sig, parity in (("e", 0), ("o", 1)):
            poly = qp.branches[sig]
            for k in range(40 + parity, 50, 2):
                if poly.evaluate((k,)) != sum_direct(fam, k):
                    _fail(f"{tag} table value disagrees with direct sum at k={k}")
    return f"{branches} tabulated coefficient branches, 5 extra points each"


def check_moment_sums() -> str:
    cases = 0
    for (which, alpha), reference in _MOMENT_REFERENCE.items():
        for n in range(13):
            want = binomial(2 * n, n) * reference(n)
            got = tilde_sum(which, alpha, n)
            if got != want:
                _fail(f"{which}~_{alpha}({n}) = {got} != reference {want}")
            cases += 1
    for which in ("p", "P", "q", "Q"):
        for alpha in range(5):
            for n in range(11):
                if tilde_sum_factored(which, alpha, n) != tilde_sum(which, alpha, n):
                    _fail(f"factored {which}~_{alpha}({n}) disagrees with direct sum")
                cases += 1
    return f"{cases} moment-sum evaluations, reference table and factorizations"


# ---------------------------------------------------------------------------
# fits suite
# ---------------------------------------------------------------------------

def check_nhat_reference() -> str:
    rep = fit_Nhat(0, 4)
    expect = {
        "eeee": _sym(4, {(2,): "1/4", (): 2}),
        "oooo": _sym(4, {(2,): "1/4", (): 2}),
    }
    for sig in ("ooee", "oeoe", "oeeo", "eooe", "eoeo", "eeoo"):
        expect[sig] = _sym(4, {(2,): "1/4", (): "1/2"})
    for sig, want in expect.items():
        got = rep.branch(sig)
        if got != want:
            _fail(f"normalized (0,4) branch {sig}: {got.terms} != {want.terms}")
    for sig in ("eeeo", "oooe", "eoee", "oeoo"):
        if rep.branch(sig) != MultiPoly.zero(4):
            _fail(f"odd-total branch {sig} of (0,4) not zero")
    rep11 = fit_Nhat(1, 1)
    if rep11.branch("e") != _NHAT_1_1:
        _fail(f"normalized (1,1) even branch: {rep11.branch('e').terms}")
    if rep11.branch("o") != MultiPoly.zero(1):
        _fail("normalized (1,1) odd branch not zero")
    return "tabulated (0,4) branches (three parity classes) and (1,1) exact"


def check_nhat_degree_heldout() -> str:
    # (1,2): frozen fitted polynomials, re-derived here from the fit.
    rep = fit_Nhat(1, 2)
    top = {(2,): "3/32", (4,): "1/384", (2, 2): "1/192"}
    if rep.branch("ee") != _sym(2, {(): "13/12", **top}):
        _fail(f"(1,2) even branch {rep.branch('ee').terms}")
    if rep.branch("oo") != _sym(2, {(): "77/96", **top}):
        _fail(f"(1,2) odd branch {rep.branch('oo').terms}")
    if rep.degree != 4 or rep.branch("ee").total_degree() != 4:
        _fail("(1,2) fit degree is not 4")
    if rep.validation_points < 10 * 4:
        _fail(f"(1,2) only {rep.validation_points} held-out confirmations")
    rep5 = fit_Nhat(0, 5)
    if rep5.branch("e" * 5) != _sym(5, {(): 7, (2,): "7/8", (4,): "1/32", (2, 2): "1/8"}):
        _fail(f"(0,5) all-even branch {rep5.branch('eeeee').terms}")
    if rep5.degree != 4 or rep5.branch("e" * 5).total_degree() != 4:
        _fail("(0,5) fit degree is not 4")
    if rep5.validation_points < 10 * 32:
        _fail(f"(0,5) only {rep5.validation_points} held-out confirmations")
    return "(1,2) and (0,5) fits: degree 3g-3+n in b_i^2, >= 10 held-out per branch"


def check_g_poly_stripped() -> str:
    rep = fit_G_poly(0, 3)
    for sig in ("eee", "ooe", "oeo", "eoo"):
        want_terms: dict[tuple[int, ...], Fraction] = {}
        for exps in product((0, 1), repeat=3):
            c = 1
            for ch, e in zip(sig, exps):
                if ch == ODD and e == 1:
                    c *= 2
            want_terms[exps] = Fraction(c)
        if rep.branch(sig) != MultiPoly(3, want_terms):
            _fail(f"stripped (0,3) branch {sig}: {rep.branch(sig).terms}")
    for sig in ("oee", "eoe", "eeo", "ooo"):
        if rep.branch(sig) != MultiPoly.zero(3):
            _fail(f"odd-total (0,3) branch {sig} not zero")
    rep11 = fit_G_poly(1, 1)
    want11 = MultiPoly(
        1, {(2,): Fraction(1, 12), (1,): Fraction(5, 12), (0,): Fraction(1)}
    )
    if rep11.branch("e") != want11:
        _fail(f"stripped (1,1) branch: {rep11.branch('e').terms}")
    if rep11.branch("o") != MultiPoly.zero(1):
        _fail("stripped (1,1) odd branch not zero")
    return "stripped torus and three-boundary-sphere formulas, all branches"


# ---------------------------------------------------------------------------
# psi suite
# ---------------------------------------------------------------------------

def check_psi_values() -> str:
    cases = 0
    for (g, n), table in _PSI_EXPECTED.items():
        got = extract_psi(g, n)
        want = {d: Fraction(v) for d, v in table.items()}
        if got != want:
            _fail(f"intersection numbers ({g},{n}): {got} != {want}")
        cases += len(want)
    got5 = extract_psi(0, 5)
    if got5 != _PSI_0_5:
        _fail(f"intersection numbers (0,5): {got5}")
    cases += len(got5)
    return f"{cases} intersection numbers across (0,3),(1,1),(0,4),(1,2),(0,5)"


def check_lattice_top_degree() -> str:
    for g, n in ((0, 3), (0, 4), (1, 1), (1, 2)):
        if not compare_top_degree(g, n):
            _fail(f"lattice twin differs in top degree at ({g},{n})")
    # Engine-free route (Norbury; Harer-Zagier): the all-even branch takes
    # the value chi(M_{g,n}) at b = 0.  On the diagonal b = (2k, ..., 2k) it
    # is a polynomial in k^2 of degree 3g - 3 + n.
    for g, n in ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1)):
        d = 3 * g - 3 + n
        diagonal = {(k * k,): count_lattice(g, n, (2 * k,) * n) for k in range(1, d + 2)}
        at_zero = interpolate_tensor(diagonal, d).coefficient((0,))
        if at_zero != (chi := euler_characteristic(g, n)):
            _fail(f"lattice twin at b = 0 on ({g},{n}): {at_zero} != chi = {chi}")
    return "lattice twin shares top degree on four (g,n)"


def check_refined_top_at_k() -> str:
    combos = [(0, 3, 0), (0, 3, 1), (0, 3, 2), (0, 4, 0), (0, 4, 1), (0, 4, 2),
              (0, 4, 3), (1, 1, 0), (1, 2, 0), (1, 2, 1)]
    for g, n, k in combos:
        # t = k forces full degree; the fit itself certifies the top-degree
        # part equals the unrefined top with zero slots substituted.
        fit_Nhat_refined(g, n, k, k)
    # The k = 0, t = 0 refined top also reproduces the intersection numbers.
    rep = fit_Nhat_refined(1, 1, 0, 0)
    top = rep.branch("e").homogeneous_part(2)
    if top != fit_Nhat(1, 1).branch("e").homogeneous_part(2):
        _fail("refined (1,1) top at t=0 differs from unrefined")
    return f"{len(combos)} refined fits at t=k reproduce unrefined top coefficients"


# ---------------------------------------------------------------------------
# series suite
# ---------------------------------------------------------------------------

def check_series_pullback() -> str:
    jobs = [(0, 2, 10), (0, 3, 8), (1, 1, 8)]
    cells = 0
    for g, n, T in jobs:
        for t in [None] + list(range(2 * g + n)):
            res = pullback_check(g, n, T, t=t)
            if not res.is_zero_through(T):
                _fail(f"pullback residual ({g},{n},T={T},t={t}): {res.first_nonzero(T)}")
            cells += 1
    return f"{cells} pullback residuals (unrefined and per-t) vanish"


def check_series_catalogue() -> str:
    T = 10
    for name in CLOSED_FORM_NAMES:
        got = expand_closed_form(name, T)
        want = closed_form_reference(name, T)
        if not got.eq_through(want, T):
            _fail(f"catalogue entry {name} differs from count-built series")
    return f"{len(CLOSED_FORM_NAMES)} catalogue expansions match count-built series, T={T}"


def check_series_diff_recursion() -> str:
    jobs = [(0, 1, 9), (0, 2, 7), (0, 3, 7), (1, 1, 7)]
    for g, n, T in jobs:
        res = diff_recursion_residual(g, n, T)
        if not res.is_zero_through(T):
            _fail(f"recursion residual ({g},{n},T={T}): {res.first_nonzero(T)}")
    return "differential recursion residuals vanish at stated truncations"


def check_series_scaling() -> str:
    for g, n in ((0, 1), (0, 2), (1, 1)):
        if not scaling_check(g, n, 8):
            _fail(f"scaling re-indexing failed at ({g},{n})")
    return "region-grade re-indexing matches component grading, T=8"


# ---------------------------------------------------------------------------
# oracles suite
# ---------------------------------------------------------------------------

def check_disc_oracle() -> str:
    for m in range(9):
        listed = len(enumerate_disc(m))
        want = count_G(0, 1, (2 * m,))
        if listed != want:
            _fail(f"disc enumeration at m={m}: {listed} diagrams != {want}")
    return "exhaustive disc enumeration agrees, m <= 8"


def check_pants_oracle() -> str:
    cases = 0
    for b in vectors_with_sum_at_most(3, 30):
        if sum(b) % 2:
            continue
        found = pants_search(*b)
        if len(found) != 1:
            _fail(f"pants search at {b} returned {len(found)} profiles")
        if found[0] != pants_classify(*b):
            _fail(f"pants profile mismatch at {b}: {found[0]} != {pants_classify(*b)}")
        cases += 1
    return f"{cases} even-sum pants vectors, search == classification"


def check_arrows_oracle() -> str:
    total = 0
    for m in range(7):
        count, images = 0, set()
        for lab in all_arrow_labellings(m):
            images.add(arrows_to_arcs(lab))
            count += 1
        if count != binomial(2 * m, m):
            _fail(f"arrow labellings at m={m}: {count}")
        if len(images) != count:
            _fail(f"arrow decoding not injective at m={m}")
        total += count
    return f"{total} arrow labellings decoded, total and injective"


# ---------------------------------------------------------------------------
# registry and runners
# ---------------------------------------------------------------------------

_REGISTRY: list[tuple[str, str, Callable[[], str]]] = [
    ("closed-forms", "disc-catalan", check_disc_catalan),
    ("closed-forms", "all-diagram-closed-vs-recursion", check_closed_vs_recursion_G),
    ("closed-forms", "parallel-free-closed-vs-recursion", check_closed_vs_recursion_N),
    ("recursion-consistency", "collar-convolution", check_collar_convolution),
    ("recursion-consistency", "refinement-sums-and-dual-route", check_refinement_sums),
    ("recursion-consistency", "zero-entry-dilaton", check_dilaton),
    ("refined", "refined-table-torus", check_refined_cells_1_1),
    ("refined", "refined-table-pants", check_refined_cells_0_3),
    ("refined", "refined-table-four-boundary", check_refined_cells_0_4),
    ("refined", "vanishing-window-and-existence", check_refined_window),
    ("sums", "weighted-sum-tables", check_sum_tables),
    ("sums", "moment-sum-factorizations", check_moment_sums),
    ("fits", "normalized-fit-reference-cases", check_nhat_reference),
    ("fits", "normalized-fit-degree-heldout", check_nhat_degree_heldout),
    ("fits", "stripped-all-diagram-fits", check_g_poly_stripped),
    ("psi", "intersection-numbers", check_psi_values),
    ("psi", "lattice-twin-top-degree", check_lattice_top_degree),
    ("psi", "refined-top-at-minimal-t", check_refined_top_at_k),
    ("series", "coordinate-pullback", check_series_pullback),
    ("series", "closed-form-catalogue", check_series_catalogue),
    ("series", "differential-recursion", check_series_diff_recursion),
    ("series", "scaling-reindex", check_series_scaling),
    ("oracles", "disc-enumeration", check_disc_oracle),
    ("oracles", "pants-profiles", check_pants_oracle),
    ("oracles", "arrow-decoding", check_arrows_oracle),
]

SUITES: tuple[str, ...] = tuple(dict.fromkeys(s for s, _, _ in _REGISTRY))


def _run_one(entry: tuple[str, str, Callable[[], str]]) -> CheckResult:
    suite, check, fn = entry
    try:
        return CheckResult(suite, check, True, fn())
    except Exception as exc:  # noqa: BLE001 -- any failure is a failed check
        return CheckResult(suite, check, False, f"{type(exc).__name__}: {exc}")


# A unit of work runs in one worker.  Each suite is a unit, except that
# ``psi`` joins ``fits``: its checks read the fits that ``fits`` leaves in
# fitlab's cache, and would fit them again in a worker of their own.
_UNIT_OF = {"psi": "fits"}


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_unit(indices: list[int]) -> list[CheckResult]:
    return [_run_one(_REGISTRY[i]) for i in indices]


def run_suite(suite: str) -> list[CheckResult]:
    """Run one suite (or ``"all"``); results come back in definition order.

    The units of work run in ``min(units, CPUs)`` forked worker processes;
    with one unit, one usable CPU, no ``fork`` or other threads running
    they run inline.  A worker that dies raises ``BrokenProcessPool``, a
    ``RuntimeError``.  New memo entries stay in the workers.
    """
    if suite == "all":
        chosen = list(range(len(_REGISTRY)))
    elif suite in SUITES:
        chosen = [i for i, e in enumerate(_REGISTRY) if e[0] == suite]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    units: dict[str, list[int]] = {}
    for i in chosen:
        name = _REGISTRY[i][0]
        units.setdefault(_UNIT_OF.get(name, name), []).append(i)
    workers = min(len(units), _cpu_count())
    if workers > 1:
        # imported here so that no other command pays for these modules
        import multiprocessing
        import threading

        # a forked child gets only the calling thread; a lock that another
        # thread held at the fork would stay held in the child forever
        if "fork" in multiprocessing.get_all_start_methods() and threading.active_count() == 1:
            from concurrent.futures import ProcessPoolExecutor

            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=ctx) as pool:
                ran = zip(units.values(), pool.map(_run_unit, units.values()))
                by_index = {i: r for unit, rs in ran for i, r in zip(unit, rs)}
            return [by_index[i] for i in chosen]
    return _run_unit(chosen)


def format_report(results: list[CheckResult]) -> str:
    lines = [
        f"{'PASS' if r.ok else 'FAIL'} {r.suite}/{r.check}: {r.detail}"
        for r in results
    ]
    bad = sum(1 for r in results if not r.ok)
    if bad:
        lines.append(f"RESULT: FAIL ({bad} of {len(results)} checks failed)")
    else:
        lines.append(f"RESULT: PASS ({len(results)} checks)")
    return "\n".join(lines)


def all_passed(results: list[CheckResult]) -> bool:
    return all(r.ok for r in results)
