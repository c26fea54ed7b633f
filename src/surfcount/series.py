"""Truncated multivariate Laurent series with exact rational coefficients.

Series come in two flavours: z-type variables allow exponent -1 and up
(generating functions indexed by boundary-point counts shifted down by one),
y-type variables allow exponent 0 and up (y stands for 1/x, so a y-series is
an expansion at x = infinity).  An optional auxiliary grading variable
("alpha" or "beta") with its own degree bound rides along with each term.

Everything is exact: coefficients are Fractions, truncation is a hard
total-degree cutoff on the main variables, and arithmetic silently discards
terms beyond the cutoff while refusing to create exponents below a
variable's minimum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .engine import count_G, count_G_r, count_G_t, count_N, count_N_t
from .exact import binomial, frac_str, ordered_splits, vectors_with_sum_at_most


class SeriesIdentityError(ValueError):
    """An identity between series failed at some coefficient."""


def _graded_lex(key, nvars):
    return (sum(key[:nvars]), key)


class TruncSeries:
    """Immutable truncated series.

    terms maps exponent keys to nonzero Fractions.  A key is the tuple of
    main-variable exponents, with the auxiliary exponent appended as a final
    entry when an auxiliary variable is present.
    """

    __slots__ = ("nvars", "mins", "order", "aux", "aux_bound", "terms")

    def __init__(self, nvars, order, mins=None, aux=None, aux_bound=0, terms=None):
        if mins is None:
            mins = (0,) * nvars
        mins = tuple(mins)
        if len(mins) != nvars or any(m not in (-1, 0) for m in mins):
            raise ValueError("per-variable minima must be -1 (z-type) or 0 (y-type)")
        if aux not in (None, "alpha", "beta"):
            raise ValueError("auxiliary variable must be alpha or beta")
        if aux is not None and aux_bound < 0:
            raise ValueError("auxiliary degree bound must be nonnegative")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "mins", mins)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "aux", aux)
        object.__setattr__(self, "aux_bound", aux_bound if aux else 0)
        keylen = nvars + (1 if aux else 0)
        clean = {}
        for key, val in (terms or {}).items():
            key = tuple(key)
            if len(key) != keylen:
                raise ValueError("exponent key has wrong length")
            val = Fraction(val)
            if not val:
                continue
            exps = key[:nvars]
            for e, m in zip(exps, mins):
                if e < m:
                    raise ValueError(f"exponent {e} below minimum {m}")
            if aux and not (0 <= key[-1] <= aux_bound):
                continue
            if sum(exps) > order:
                continue
            clean[key] = val
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    # -- inspection ---------------------------------------------------------

    def var_names(self):
        return tuple(
            ("z" if m < 0 else "y") + str(i + 1) for i, m in enumerate(self.mins)
        )

    def coefficient(self, exps, aux_exp=0):
        key = tuple(exps) + ((aux_exp,) if self.aux else ())
        return self.terms.get(key, Fraction(0))

    def is_zero_through(self, order=None):
        order = self.order if order is None else order
        return all(
            not val for key, val in self.terms.items() if sum(key[: self.nvars]) <= order
        )

    def first_nonzero(self, order=None):
        """Lowest nonzero term in graded-lex order, or None."""
        order = self.order if order is None else order
        best = None
        for key, val in self.terms.items():
            if sum(key[: self.nvars]) > order:
                continue
            if best is None or _graded_lex(key, self.nvars) < _graded_lex(best, self.nvars):
                best = key
        if best is None:
            return None
        return best, self.terms[best]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _graded_lex(kv[0], self.nvars))

    def eq_through(self, other, order):
        if self.nvars != other.nvars or self.mins != other.mins:
            return False
        keys = set(self.terms) | set(other.terms)
        for key in keys:
            if sum(key[: self.nvars]) > order:
                continue
            if self.terms.get(key, 0) != other.terms.get(key, 0):
                return False
        return True

    def __eq__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.mins == other.mins
            and self.order == other.order
            and self.aux == other.aux
            and self.aux_bound == other.aux_bound
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.mins, self.order, self.aux, self.aux_bound,
                     frozenset(self.terms.items())))

    def __repr__(self):
        return (f"TruncSeries(nvars={self.nvars}, order={self.order}, "
                f"aux={self.aux!r}, nterms={len(self.terms)})")

    def to_json_dict(self):
        out_terms = []
        for key, val in self.sorted_terms():
            exps = list(key[: self.nvars])
            aux_exp = key[-1] if self.aux else 0
            out_terms.append({"exps": exps, "aux_exp": aux_exp, "coeff": frac_str(val)})
        return {
            "vars": list(self.var_names()),
            "aux": self.aux if self.aux else "none",
            "terms": out_terms,
        }

    # -- arithmetic ---------------------------------------------------------

    def _like(self, terms, order=None, aux_bound=None):
        return TruncSeries(
            self.nvars,
            self.order if order is None else order,
            self.mins,
            self.aux,
            self.aux_bound if aux_bound is None else aux_bound,
            terms,
        )

    def _check_shape(self, other):
        if (self.nvars, self.mins, self.aux) != (other.nvars, other.mins, other.aux):
            raise ValueError("series shapes differ")

    def __add__(self, other):
        self._check_shape(other)
        terms = dict(self.terms)
        for key, val in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + val
        return self._like(
            terms,
            order=min(self.order, other.order),
            aux_bound=min(self.aux_bound, other.aux_bound) if self.aux else 0,
        )

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = Fraction(c)
        return self._like({k: c * v for k, v in self.terms.items()})

    def __mul__(self, other):
        self._check_shape(other)
        if any(m < 0 for m in self.mins):
            raise ValueError("product only supported for y-type series")
        order = min(self.order, other.order)
        aux_bound = min(self.aux_bound, other.aux_bound) if self.aux else 0
        terms = {}
        for k1, v1 in self.terms.items():
            if sum(k1[: self.nvars]) > order:
                continue
            for k2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                if sum(key[: self.nvars]) > order:
                    continue
                if self.aux and key[-1] > aux_bound:
                    continue
                terms[key] = terms.get(key, Fraction(0)) + v1 * v2
        return TruncSeries(self.nvars, order, self.mins, self.aux, aux_bound, terms)

    def truncate(self, order, aux_bound=None):
        return self._like(
            self.terms,
            order=order,
            aux_bound=self.aux_bound if aux_bound is None else aux_bound,
        )

    # -- structural operators used by the differential identities -----------

    def shift_var(self, i, delta):
        """Multiply by the i-th main variable raised to `delta`."""
        terms = {}
        for key, val in self.terms.items():
            key = key[:i] + (key[i] + delta,) + key[i + 1:]
            terms[key] = terms.get(key, Fraction(0)) + val
        return self._like(terms)

    def deriv_x(self, i):
        """d/dx_i on a y-type series: y_i^e picks up factor -e and one more power."""
        if self.mins[i] >= 0:
            terms = {}
            for key, val in self.terms.items():
                e = key[i]
                if e == 0:
                    continue
                new = key[:i] + (e + 1,) + key[i + 1:]
                terms[new] = terms.get(new, Fraction(0)) - e * val
            return self._like(terms)
        raise ValueError("x-derivative is defined on y-type variables")

    def aux_weighted(self):
        """Multiply each term by its auxiliary exponent (alpha * d/d alpha)."""
        if not self.aux:
            raise ValueError("series has no auxiliary variable")
        return self._like({k: v * k[-1] for k, v in self.terms.items() if k[-1]})

    def merge_first_two(self):
        """Set the first two variables equal, producing an (n-1)-variable series."""
        if self.nvars < 2:
            raise ValueError("need at least two variables to merge")
        if self.mins[0] != self.mins[1]:
            raise ValueError("merged variables must share a minimum")
        terms = {}
        for key, val in self.terms.items():
            new = (key[0] + key[1],) + key[2:]
            terms[new] = terms.get(new, Fraction(0)) + val
        return TruncSeries(
            self.nvars - 1, self.order, self.mins[1:], self.aux, self.aux_bound, terms
        )

    def embed(self, nvars, slots, mins):
        """Place this series into a larger variable space.

        slots[i] gives the destination index of our i-th variable; unused
        destinations get exponent 0.
        """
        if len(slots) != self.nvars or len(set(slots)) != self.nvars:
            raise ValueError("slots must be distinct, one per variable")
        mins = tuple(mins)
        terms = {}
        for key, val in self.terms.items():
            exps = [0] * nvars
            for i, s in enumerate(slots):
                exps[s] = key[i]
            new = tuple(exps) + ((key[-1],) if self.aux else ())
            terms[new] = val
        return TruncSeries(nvars, self.order, mins, self.aux, self.aux_bound, terms)

    def divided_difference(self, k):
        """Exact monomial divided difference against variable 0.

        Sends a term M * v_k^c (which must have variable-0 exponent zero) to
        the expansion of (x_k - x_0)^(-1) (M v_k^c - M v_0^c), namely
        - sum_{s=0}^{c-1} M v_0^(s+1) v_k^(c-s).
        """
        if k == 0:
            raise ValueError("divided difference pairs variable 0 with another slot")
        terms = {}
        for key, val in self.terms.items():
            if key[0] != 0:
                raise ValueError("base series must not involve variable 0")
            c = key[k]
            base_deg = sum(key[: self.nvars])
            if base_deg + 1 > self.order:
                continue
            for s in range(c):
                new = (s + 1,) + key[1:k] + (c - s,) + key[k + 1:]
                terms[new] = terms.get(new, Fraction(0)) - val
        return self._like(terms)


# ---------------------------------------------------------------------------
# Builders from counts
# ---------------------------------------------------------------------------


def _check_order(T):
    if T < 0:
        raise ValueError("truncation order must be nonnegative")


def build_fN(g, n, T, t=None):
    """Boundary-point generating series in z-variables, truncated at order T.

    The count at profile nu contributes to exponents nu - 1, so profiles with
    sum(nu) <= T + n are enumerated.
    """
    _check_order(T)
    terms = {}
    for nu in vectors_with_sum_at_most(n, T + n):
        c = count_N(g, n, nu) if t is None else count_N_t(g, n, nu, t)
        if c:
            terms[tuple(v - 1 for v in nu)] = Fraction(c)
    return TruncSeries(n, T, mins=(-1,) * n, terms=terms)


def build_fG(g, n, T, t=None):
    """Boundary-point generating series in y-variables, truncated at order T.

    The count at profile mu contributes to exponents mu + 1, so profiles with
    sum(mu) <= T - n are enumerated.
    """
    _check_order(T)
    terms = {}
    for mu in vectors_with_sum_at_most(n, T - n):
        c = count_G(g, n, mu) if t is None else count_G_t(g, n, mu, t)
        if c:
            terms[tuple(v + 1 for v in mu)] = Fraction(c)
    return TruncSeries(n, T, terms=terms)


def build_frak_f(g, n, T, alpha_bound):
    """Region-graded y-series: profile mu at region count r lands on alpha^r."""
    _check_order(T)
    if alpha_bound < 1:
        raise ValueError("alpha_bound must be at least 1")
    terms = {}
    for mu in vectors_with_sum_at_most(n, T - n):
        rmax = min(alpha_bound, 1 + sum(mu) // 2)
        for r in range(1, rmax + 1):
            c = count_G_r(g, n, mu, r)
            if c:
                terms[tuple(v + 1 for v in mu) + (r,)] = Fraction(c)
    return TruncSeries(n, T, aux="alpha", aux_bound=alpha_bound, terms=terms)


def build_bold_fN(g, n, T, beta_bound=None):
    """Grade the z-series by the region excess t, carried on beta."""
    _check_order(T)
    tmax = 2 * g + n - 1
    if beta_bound is None:
        beta_bound = tmax
    terms = {}
    for nu in vectors_with_sum_at_most(n, T + n):
        for t in range(0, min(beta_bound, tmax) + 1):
            c = count_N_t(g, n, nu, t)
            if c:
                terms[tuple(v - 1 for v in nu) + (t,)] = Fraction(c)
    return TruncSeries(n, T, mins=(-1,) * n, aux="beta", aux_bound=beta_bound, terms=terms)


# ---------------------------------------------------------------------------
# Pullback along x = z + 1/z
# ---------------------------------------------------------------------------


def _collar_coeffs(mu, order):
    """z-coefficients of z^(mu-1) (1 - z^2) (1 + z^2)^(-mu-1) through `order`.

    This is y^(mu+1) (z^(-2) - 1) written in z, using the binomial expansion
    (1 + z^2)^(-mu-1) = sum_s (-1)^s C(mu+s, s) z^(2s).  The per-variable
    factor carries the orientation of the substitution x = z + 1/z near
    z = 0, where x is inverted: a direct numerical comparison of the two
    meromorphic sides fixes the sign this way (each variable contributes
    one inversion).
    """
    out = {}
    s = 0
    while mu - 1 + 2 * s <= order:
        c = Fraction((-1) ** s * binomial(mu + s, s))
        hi = mu + 1 + 2 * s
        lo = mu - 1 + 2 * s
        if hi <= order:
            out[hi] = out.get(hi, Fraction(0)) - c
        out[lo] = out.get(lo, Fraction(0)) + c
        s += 1
    return {e: v for e, v in out.items() if v}


def _tensor(factors, order, mins):
    """Tensor 1-variable coefficient dicts into an n-variable term dict."""
    n = len(factors)
    partial = {(): Fraction(1)}
    for i, fac in enumerate(factors):
        slack = sum(mins[i + 1:])  # later variables can still lower the degree
        nxt = {}
        for prefix, pval in partial.items():
            pdeg = sum(prefix)
            for e, c in fac.items():
                if pdeg + e + slack > order:
                    continue
                key = prefix + (e,)
                val = pval * c
                if key in nxt:
                    nxt[key] += val
                else:
                    nxt[key] = val
        partial = nxt
    return {k: v for k, v in partial.items() if v and sum(k) <= order}


def pullback_check(g, n, T, t=None):
    """Residual of the substitution identity between the y- and z-series.

    Builds the image of the y-series under x = z + 1/z, multiplied by
    prod(z_i^(-2) - 1), and subtracts the z-series built from counts.  The
    result must be identically zero through total degree T.
    """
    if (g, n) == (0, 1):
        raise ValueError("the one-boundary sphere is excluded from this identity")
    rhs = build_fN(g, n, T, t=t)
    coeff_cache = {}

    def collar(mu):
        if mu not in coeff_cache:
            coeff_cache[mu] = _collar_coeffs(mu, T + n)
        return coeff_cache[mu]

    terms = {}
    mins = (-1,) * n
    for mu in vectors_with_sum_at_most(n, T + n):
        c = count_G(g, n, mu) if t is None else count_G_t(g, n, mu, t)
        if not c:
            continue
        for key, val in _tensor([collar(m) for m in mu], T, mins).items():
            terms[key] = terms.get(key, Fraction(0)) + c * val
    lhs = TruncSeries(n, T, mins=mins, terms=terms)
    return lhs - rhs


# ---------------------------------------------------------------------------
# Closed-form catalogue
# ---------------------------------------------------------------------------


def _sqrt_one_minus_four(order):
    """Coefficients of u^s in (1 - 4u)^(1/2), for 2s <= order."""
    out = {0: Fraction(1)}
    c = Fraction(1)
    for s in range(1, order // 2 + 1):
        # C(1/2, s) * (-4)^s, built incrementally.
        c = c * (Fraction(1, 2) - (s - 1)) / s * (-4)
        out[s] = c
    return out


def _inv_sqrt_one_minus_four(order):
    """Coefficients of u^s in (1 - 4u)^(-1/2): central binomials."""
    return {s: Fraction(binomial(2 * s, s)) for s in range(order // 2 + 1)}


def _weights_even(order, include_empty):
    """1-variable dict: weight nu at exponent nu-1 over even nu >= 2.

    With include_empty, the empty profile contributes weight 1 at exponent -1.
    """
    out = {}
    if include_empty:
        out[-1] = Fraction(1)
    nu = 2
    while nu - 1 <= order:
        out[nu - 1] = Fraction(nu)
        nu += 2
    return out


def _weights_odd(order):
    """1-variable dict: weight nu at exponent nu-1 over odd nu >= 1."""
    out = {}
    nu = 1
    while nu - 1 <= order:
        out[nu - 1] = Fraction(nu)
        nu += 2
    return out


def _unit(exp):
    return {exp: Fraction(1)}


def _mul2(a, b, order):
    """Multiply two 2-variable term dicts with nonnegative exponents."""
    out = {}
    for (e1, e2), v in a.items():
        for (f1, f2), w in b.items():
            if e1 + f1 + e2 + f2 > order:
                continue
            key = (e1 + f1, e2 + f2)
            out[key] = out.get(key, Fraction(0)) + v * w
    return {k: v for k, v in out.items() if v}


def _divide_diagonal(terms, top):
    """Exact division of a 2-variable polynomial dict by (v2 - v1).

    Works one homogeneous slice at a time: writing a slice of degree d as
    sum_j a_j v1^(d-j) v2^j, the quotient coefficients are suffix sums of the
    a_j, and exactness forces a_0 + q_0 = 0 on every slice.
    """
    slices = {}
    for (e1, e2), v in terms.items():
        d = e1 + e2
        if d > top:
            continue
        slices.setdefault(d, {})[e2] = v
    out = {}
    for d, row in slices.items():
        carry = Fraction(0)
        for j in range(d, 0, -1):
            carry += row.get(j, Fraction(0))
            if carry:
                out[(d - j, j - 1)] = carry
        if row.get(0, Fraction(0)) + carry != 0:
            raise SeriesIdentityError(
                f"division by the diagonal leaves a remainder on the degree-{d} slice"
            )
    return out


def _catalogue_fG02(T):
    """Two-boundary sphere y-series from its closed form.

    Expands y1 y2 [(2 y1^2 - 3 y1 y2 + 2 y2^2 - 4 y1^2 y2^2) S(y1) S(y2) - y1 y2]
    divided by 2 (y2 - y1)^2, where S(y) = (1 - 4 y^2)^(-1/2).  The numerator
    vanishes to second order on the diagonal, so two exact divisions by
    (y2 - y1) leave an honest power series.
    """
    top = T + 2
    s1 = {(2 * s, 0): c for s, c in _inv_sqrt_one_minus_four(top).items()}
    s2 = {(0, 2 * s): c for s, c in _inv_sqrt_one_minus_four(top).items()}
    bracket = {
        (2, 0): Fraction(2),
        (1, 1): Fraction(-3),
        (0, 2): Fraction(2),
        (2, 2): Fraction(-4),
    }
    num = _mul2(bracket, _mul2(s1, s2, top), top)
    num = {(e1 + 1, e2 + 1): v for (e1, e2), v in num.items() if e1 + e2 + 2 <= top}
    num[(2, 2)] = num.get((2, 2), Fraction(0)) - 1
    quot = _divide_diagonal(_divide_diagonal(num, top), top - 1)
    terms = {k: v / 2 for k, v in quot.items()}
    return TruncSeries(2, T, terms=terms)


def expand_closed_form(name, T):
    """Expand a catalogued closed form to order T."""
    _check_order(T)
    zmins = (-1,)

    if name == "fN01":
        return TruncSeries(1, T, mins=zmins, terms={(-1,): Fraction(1)})

    if name == "fG01":
        sq = _sqrt_one_minus_four(T + 1)
        terms = {}
        for s, c in sq.items():
            if s >= 1 and 2 * s - 1 <= T:
                terms[(2 * s - 1,)] = -c / 2
        return TruncSeries(1, T, terms=terms)

    if name == "frakf01G":
        sq = _sqrt_one_minus_four(T + 1)
        bound = max(1, (T + 1) // 2)
        terms = {}
        for s, c in sq.items():
            if s >= 1 and 2 * s - 1 <= T:
                terms[(2 * s - 1, s)] = -c / 2
        return TruncSeries(1, T, aux="alpha", aux_bound=bound, terms=terms)

    if name == "fG02":
        return _catalogue_fG02(T)

    mins2 = (-1, -1)
    if name in ("fN02", "fN02_t0", "fN02_t1"):
        terms = {}
        if name in ("fN02", "fN02_t1"):
            terms[(-1, -1)] = Fraction(1)
        if name in ("fN02", "fN02_t0"):
            j = 0
            while 2 * j <= T:
                terms[(j, j)] = Fraction(j + 1)
                j += 1
        return TruncSeries(2, T, mins=mins2, terms=terms)

    mins3 = (-1, -1, -1)
    if name in ("fN03", "fN03_t0", "fN03_t1", "fN03_t2"):
        hi = T + 3
        rho_full = _weights_even(hi, include_empty=True)
        rho = _weights_even(hi, include_empty=False)
        sig = _weights_odd(hi)
        terms = {}

        def acc(f1, f2, f3):
            for key, val in _tensor([f1, f2, f3], T, mins3).items():
                terms[key] = terms.get(key, Fraction(0)) + val

        if name == "fN03":
            acc(rho_full, rho_full, rho_full)
            acc(rho_full, sig, sig)
            acc(sig, rho_full, sig)
            acc(sig, sig, rho_full)
        elif name == "fN03_t0":
            acc(rho, rho, rho)
            acc(rho, sig, sig)
            acc(sig, rho, sig)
            acc(sig, sig, rho)
        elif name == "fN03_t1":
            one = _unit(-1)
            acc(one, rho, rho)
            acc(one, sig, sig)
            acc(rho, one, rho)
            acc(sig, one, sig)
            acc(rho, rho, one)
            acc(sig, sig, one)
        else:  # fN03_t2
            one = _unit(-1)
            acc(one, one, one)
            acc(rho, one, one)
            acc(one, rho, one)
            acc(one, one, rho)
        return TruncSeries(3, T, mins=mins3, terms=terms)

    raise ValueError(f"unknown closed form {name!r}")


CLOSED_FORM_NAMES = (
    "fN01", "fG01", "fN02", "fN03",
    "fN02_t0", "fN02_t1", "fN03_t0", "fN03_t1", "fN03_t2",
    "frakf01G", "fG02",
)


def closed_form_reference(name, T):
    """Count-built series that a catalogue entry must match through order T."""
    if name == "fN01":
        return build_fN(0, 1, T)
    if name == "fG01":
        return build_fG(0, 1, T)
    if name == "fN02":
        return build_fN(0, 2, T)
    if name == "fN03":
        return build_fN(0, 3, T)
    if name.startswith("fN02_t"):
        return build_fN(0, 2, T, t=int(name[-1]))
    if name.startswith("fN03_t"):
        return build_fN(0, 3, T, t=int(name[-1]))
    if name == "frakf01G":
        return build_frak_f(0, 1, T, max(1, (T + 1) // 2))
    if name == "fG02":
        return build_fG(0, 2, T)
    raise ValueError(f"unknown closed form {name!r}")


# ---------------------------------------------------------------------------
# Differential recursions
# ---------------------------------------------------------------------------


def _frak_embedded(g, n_sub, order, alpha_bound, nvars, slots):
    """Region-graded series for (g, n_sub) placed at the given variable slots."""
    base = build_frak_f(g, n_sub, order, alpha_bound)
    return base.embed(nvars, slots, (0,) * nvars)


def _plain_embedded(g, n_sub, order, nvars, slots, t=None):
    base = build_fG(g, n_sub, order, t=t)
    return base.embed(nvars, slots, (0,) * nvars)


def diff_recursion_residual(g, n, T, alpha_bound=None):
    """Residual of the region-graded differential recursion at (g, n).

    Evaluates x1 * (series at (g,n)) minus the four right-hand terms: the
    genus-drop diagonal, the divided-difference terms, the splitting
    convolution, and the alpha-weighted term (with the closed-surface
    convention that the zero-boundary series is alpha itself).  The returned
    series must vanish through total degree T.  The unrefined differentiated
    identity at the same (g, n) is checked alongside; its failure raises
    SeriesIdentityError.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    work = T + 2
    safe_alpha = work // 2 + 2
    if alpha_bound is None:
        alpha_bound = T // 2 + 2

    zero = TruncSeries(n, work, aux="alpha", aux_bound=safe_alpha)

    main = build_frak_f(g, n, work, safe_alpha)
    lhs = main.shift_var(0, -1)

    # genus-drop diagonal
    if g >= 1:
        tall = build_frak_f(g - 1, n + 1, work, safe_alpha)
        t1 = tall.merge_first_two()
    else:
        t1 = zero

    # divided differences against each later variable
    t2 = zero
    if n >= 2:
        base = _frak_embedded(g, n - 1, work, safe_alpha, n, tuple(range(1, n)))
        for k in range(1, n):
            t2 = t2 + base.divided_difference(k).deriv_x(k)

    # splitting convolution over ordered genus/slot splits
    t3 = zero
    rest = tuple(range(1, n))
    for g1 in range(g + 1):
        g2 = g - g1
        for left, right in ordered_splits(rest):
            f1 = _frak_embedded(g1, len(left) + 1, work, safe_alpha, n, (0,) + left)
            f2 = _frak_embedded(g2, len(right) + 1, work, safe_alpha, n, (0,) + right)
            t3 = t3 + f1 * f2

    # alpha-weighted term; for n = 1 the zero-boundary convention gives alpha
    if n >= 2:
        t4 = _frak_embedded(g, n - 1, work, safe_alpha, n, tuple(range(1, n))).aux_weighted()
    else:
        t4 = TruncSeries(n, work, aux="alpha", aux_bound=safe_alpha,
                         terms={(0,) * n + (1,): Fraction(1)})

    residual = lhs - t1 - t2 - t3 - t4

    unrefined = first_diff_residual(g, n, T)
    bad = unrefined.first_nonzero()
    if bad is not None:
        key, val = bad
        raise SeriesIdentityError(
            f"unrefined differentiated identity fails at ({g},{n}): "
            f"exponents {key} coefficient {frac_str(val)}"
        )

    return residual.truncate(T, alpha_bound)


def first_diff_residual(g, n, T):
    """Residual of the differentiated unrefined identity at (g, n).

    Both sides carry a d/dx_1, which kills the terms that the plain
    recursion cannot see.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    work = T + 2

    zero = TruncSeries(n, work)

    main = build_fG(g, n, work)
    lhs = main.shift_var(0, -1).deriv_x(0)

    if g >= 1:
        t1 = build_fG(g - 1, n + 1, work).merge_first_two().deriv_x(0)
    else:
        t1 = zero

    t2 = zero
    if n >= 2:
        base = _plain_embedded(g, n - 1, work, n, tuple(range(1, n)))
        for k in range(1, n):
            t2 = t2 + base.divided_difference(k).deriv_x(k)
        t2 = t2.deriv_x(0)

    t3 = zero
    rest = tuple(range(1, n))
    for g1 in range(g + 1):
        g2 = g - g1
        for left, right in ordered_splits(rest):
            f1 = _plain_embedded(g1, len(left) + 1, work, n, (0,) + left)
            f2 = _plain_embedded(g2, len(right) + 1, work, n, (0,) + right)
            t3 = t3 + f1 * f2
    t3 = t3.deriv_x(0)

    return (lhs - t1 - t2 - t3).truncate(T)


# ---------------------------------------------------------------------------
# Scaling / re-indexing between the two gradings
# ---------------------------------------------------------------------------


def scaling_check(g, n, T):
    """Verify the exponent re-indexing r = t + (2 - 2g - n) + sum(nu)/2.

    On the z-side every region-excess coefficient must land on a legal
    region count; on the y-side the region-count recursion and the
    collar-convolution route must agree under the same re-indexing.
    Returns True, or raises SeriesIdentityError with the first mismatch.
    """
    shift = 2 - 2 * g - n
    tmax = 2 * g + n - 1

    for nu in vectors_with_sum_at_most(n, T + n):
        s = sum(nu)
        if s % 2:
            continue
        for t in range(0, tmax + 1):
            c = count_N_t(g, n, nu, t)
            if not c:
                continue
            r = t + shift + s // 2
            if not (1 <= r <= 1 + s // 2):
                raise SeriesIdentityError(
                    f"profile {nu} at grade {t} re-indexes to illegal region count {r}"
                )

    for mu in vectors_with_sum_at_most(n, max(T - n, 0)):
        s = sum(mu)
        if s % 2:
            continue
        seen = 0
        for t in range(0, tmax + 1):
            r = t + shift + s // 2
            via_t = count_G_t(g, n, mu, t)
            via_r = count_G_r(g, n, mu, r) if r >= 1 else 0
            if via_t != via_r:
                raise SeriesIdentityError(
                    f"profile {mu}: grade {t} gives {via_t} but region count {r} gives {via_r}"
                )
            seen += via_t
        if seen != count_G(g, n, mu):
            raise SeriesIdentityError(
                f"profile {mu}: grades sum to {seen}, total count differs"
            )

    return True
