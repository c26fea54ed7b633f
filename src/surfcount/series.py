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
from itertools import chain

from .engine import count_G, count_G_r, count_G_t, count_N, count_N_t
from .exact import SeriesIdentityError  # defined in exact, so the CLI catches it without importing series
from .exact import _collect, _reject, binomial, frac_str, ordered_splits, vectors_with_sum_at_most


def _graded_lex(key, nvars):
    return (sum(key[:nvars]), key)


class TruncSeries:
    """Immutable truncated series.

    terms maps exponent keys to nonzero Fractions.  A key is the tuple of
    main-variable exponents, with the auxiliary exponent appended as a final
    entry when an auxiliary variable is present.  The constructor takes the
    terms as a mapping or as (key, coefficient) pairs and sums repeated
    keys; a key whose sum is zero is dropped, a nonzero one below a
    variable's minimum raises ValueError, and one beyond the order or the
    auxiliary bound is dropped.  nvars, order, aux_bound and key entries
    must be ints and coefficients ints or Fractions (a bool is neither).
    """

    __slots__ = ("nvars", "mins", "order", "aux", "aux_bound", "terms")

    def __init__(self, nvars, order, mins=None, aux=None, aux_bound=0, terms=()):
        _reject(int, (nvars, order, aux_bound), "nvars, order and aux_bound")
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
        clean = {}
        for key, val in _collect(terms, nvars + (1 if aux else 0), "exponent keys").items():
            if not val:
                continue
            for e, m in zip(key, mins):  # the main-variable entries
                if e < m:
                    raise ValueError(f"exponent {e} below minimum {m}")
            if sum(key[:nvars]) <= order and (not aux or 0 <= key[-1] <= aux_bound):
                clean[key] = val if type(val) is Fraction else Fraction(val)
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
        return self.first_nonzero(order) is None

    def first_nonzero(self, order=None):
        """Lowest nonzero term in graded-lex order, or None."""
        order = self.order if order is None else order
        live = [key for key in self.terms if sum(key[: self.nvars]) <= order]
        if not live:
            return None
        best = min(live, key=lambda key: _graded_lex(key, self.nvars))
        return best, self.terms[best]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: _graded_lex(kv[0], self.nvars))

    def eq_through(self, other, order):
        if self.nvars != other.nvars or self.mins != other.mins:
            return False
        return all(
            self.terms.get(key, 0) == other.terms.get(key, 0)
            for key in set(self.terms) | set(other.terms)
            if sum(key[: self.nvars]) <= order
        )

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
        return self._like(
            chain(self.terms.items(), other.terms.items()),
            order=min(self.order, other.order),
            aux_bound=min(self.aux_bound, other.aux_bound) if self.aux else 0,
        )

    def __neg__(self):
        return self._like({k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check_shape(other)
        if any(m < 0 for m in self.mins):
            raise ValueError("product only supported for y-type series")
        order = min(self.order, other.order)
        aux_bound = min(self.aux_bound, other.aux_bound) if self.aux else 0
        n = self.nvars

        def graded(series):
            return [(key, val, sum(key[:n])) for key, val in series.terms.items()]

        right = graded(other)
        # a pair above the order is skipped before its key and product are built
        terms = (
            (tuple(a + b for a, b in zip(k1, k2)), v1 * v2)
            for k1, v1, d1 in graded(self)
            for k2, v2, d2 in right
            if d1 + d2 <= order
        )
        return TruncSeries(n, order, self.mins, self.aux, aux_bound, terms)

    def truncate(self, order, aux_bound=None):
        return self._like(
            self.terms,
            order=order,
            aux_bound=self.aux_bound if aux_bound is None else aux_bound,
        )

    # -- structural operators used by the differential identities -----------

    def shift_var(self, i, delta):
        """Multiply by the i-th main variable raised to `delta`."""
        return self._like(
            (key[:i] + (key[i] + delta,) + key[i + 1:], val) for key, val in self.terms.items()
        )

    def deriv_x(self, i):
        """d/dx_i on a y-type series: y_i^e picks up factor -e and one more power."""
        if self.mins[i] < 0:
            raise ValueError("x-derivative is defined on y-type variables")
        return self._like(
            (key[:i] + (key[i] + 1,) + key[i + 1:], -key[i] * val)
            for key, val in self.terms.items()
            if key[i]
        )

    def aux_weighted(self):
        """Multiply each term by its auxiliary exponent (alpha * d/d alpha)."""
        if not self.aux:
            raise ValueError("series has no auxiliary variable")
        return self._like((k, v * k[-1]) for k, v in self.terms.items())

    def merge_first_two(self):
        """Set the first two variables equal, producing an (n-1)-variable series."""
        if self.nvars < 2:
            raise ValueError("need at least two variables to merge")
        if self.mins[0] != self.mins[1]:
            raise ValueError("merged variables must share a minimum")
        terms = (((key[0] + key[1],) + key[2:], val) for key, val in self.terms.items())
        return TruncSeries(
            self.nvars - 1, self.order, self.mins[1:], self.aux, self.aux_bound, terms
        )

    def embed(self, nvars, slots, mins):
        """Place this series into a larger variable space.

        slots[i] gives the destination index of our i-th variable; unused
        destinations get exponent 0.
        """
        if len(slots) != self.nvars or len(set(slots) & set(range(nvars))) != self.nvars:
            raise ValueError("slots must be distinct indices below nvars, one per variable")
        source = [slots.index(j) if j in slots else None for j in range(nvars)]
        terms = (
            (tuple(0 if i is None else key[i] for i in source) + key[self.nvars:], val)
            for key, val in self.terms.items()
        )
        return TruncSeries(nvars, self.order, mins, self.aux, self.aux_bound, terms)

    def divided_difference(self, k):
        """Exact monomial divided difference against variable 0.

        Sends a term M * v_k^c (which must have variable-0 exponent zero) to
        the expansion of (x_k - x_0)^(-1) (M v_k^c - M v_0^c), namely
        - sum_{s=0}^{c-1} M v_0^(s+1) v_k^(c-s).
        """
        if k == 0:
            raise ValueError("divided difference pairs variable 0 with another slot")
        if any(key[0] for key in self.terms):
            raise ValueError("base series must not involve variable 0")
        return self._like(
            ((s + 1,) + key[1:k] + (key[k] - s,) + key[k + 1:], -val)
            for key, val in self.terms.items()
            if sum(key[: self.nvars]) < self.order
            for s in range(key[k])
        )


# ---------------------------------------------------------------------------
# Builders from counts
# ---------------------------------------------------------------------------


def _check_order(T, *bounds):
    """Reject a truncation order, or an alpha/beta bound, that is not an int,
    and a negative order."""
    _reject(int, (T, *bounds), "truncation orders and bounds")
    if T < 0:
        raise ValueError("truncation order must be nonnegative")


def _count_series(n, T, shift, count, aux=None, aux_bound=0, grades=None):
    """Series from counts: the count at profile p lands on exponents p + shift.

    shift is -1 for z-type variables (profiles with sum(p) <= T + n) or +1
    for y-type variables (sum(p) <= T - n).  Without grades, count(p) is the
    coefficient; with them, count(p, k) is the coefficient of aux^k for each
    k in grades(p).
    """
    profiles = vectors_with_sum_at_most(n, T - shift * n)
    keyed = ((p, tuple(v + shift for v in p)) for p in profiles)
    # zero counts, most of a graded series, never reach the collector
    if grades is None:
        terms = ((key, c) for p, key in keyed if (c := count(p)))
    else:
        terms = ((key + (k,), c) for p, key in keyed for k in grades(p) if (c := count(p, k)))
    return TruncSeries(n, T, (min(shift, 0),) * n, aux, aux_bound, terms)


def build_fN(g, n, T, t=None):
    """Boundary-point generating series in z-variables, truncated at order T.

    The count at profile nu contributes to exponents nu - 1, so profiles with
    sum(nu) <= T + n are enumerated.
    """
    _check_order(T)
    if t is None:
        return _count_series(n, T, -1, lambda nu: count_N(g, n, nu))
    return _count_series(n, T, -1, lambda nu: count_N_t(g, n, nu, t))


def build_fG(g, n, T, t=None):
    """Boundary-point generating series in y-variables, truncated at order T.

    The count at profile mu contributes to exponents mu + 1, so profiles with
    sum(mu) <= T - n are enumerated.
    """
    _check_order(T)
    if t is None:
        return _count_series(n, T, 1, lambda mu: count_G(g, n, mu))
    return _count_series(n, T, 1, lambda mu: count_G_t(g, n, mu, t))


def build_frak_f(g, n, T, alpha_bound):
    """Region-graded y-series: profile mu at region count r lands on alpha^r."""
    _check_order(T, alpha_bound)
    if alpha_bound < 1:
        raise ValueError("alpha_bound must be at least 1")
    return _count_series(
        n, T, 1, lambda mu, r: count_G_r(g, n, mu, r), aux="alpha", aux_bound=alpha_bound,
        grades=lambda mu: range(1, min(alpha_bound, 1 + sum(mu) // 2) + 1),
    )


def build_bold_fN(g, n, T, beta_bound=None):
    """Grade the z-series by the region excess t, carried on beta."""
    tmax = 2 * g + n - 1
    if beta_bound is None:
        beta_bound = tmax
    _check_order(T, beta_bound)
    return _count_series(
        n, T, -1, lambda nu, t: count_N_t(g, n, nu, t), aux="beta", aux_bound=beta_bound,
        grades=lambda nu: range(min(beta_bound, tmax) + 1),
    )


# ---------------------------------------------------------------------------
# Pullback along x = z + 1/z
# ---------------------------------------------------------------------------


def _collar_coeffs(mu, order):
    """z-coefficients of z^(mu-1) (1 - z^2) (1 + z^2)^(-mu-1) through `order`.

    This is y^(mu+1) (z^(-2) - 1) written in z.  With the binomial expansion
    (1 + z^2)^(-mu-1) = sum_s c_s z^(2s), c_s = (-1)^s C(mu+s, s), the
    coefficient of z^(mu-1+2s) is c_s - c_(s-1).  The per-variable
    factor carries the orientation of the substitution x = z + 1/z near
    z = 0, where x is inverted: a direct numerical comparison of the two
    meromorphic sides fixes the sign this way (each variable contributes
    one inversion).
    """
    return {
        mu - 1 + 2 * s: Fraction((-1) ** s * (binomial(mu + s, s) + binomial(mu + s - 1, s - 1)))
        for s in range((order - mu + 1) // 2 + 1)  # mu - 1 + 2s <= order
    }


def _tensor(factors, order, mins):
    """Tensor 1-variable coefficient dicts into the n-variable term dict
    through total degree `order`."""
    partial = {(): Fraction(1)}
    for i, fac in enumerate(factors):
        slack = sum(mins[i + 1:])  # later variables can still lower the degree
        # distinct prefixes and distinct exponents: no two keys collide
        partial = {
            prefix + (e,): pval * c
            for prefix, pval in partial.items()
            for e, c in fac.items()
            if sum(prefix) + e + slack <= order
        }
    return partial


def pullback_check(g, n, T, t=None):
    """Residual of the substitution identity between the y- and z-series.

    Builds the image of the y-series under x = z + 1/z, multiplied by
    prod(z_i^(-2) - 1), and subtracts the z-series built from counts.  The
    result must be identically zero through total degree T.
    """
    if (g, n) == (0, 1):
        raise ValueError("the one-boundary sphere is excluded from this identity")
    rhs = build_fN(g, n, T, t=t)
    # the y-series at order T + 2n holds every profile with sum(mu) <= T + n
    ys = build_fG(g, n, T + 2 * n, t=t)
    collar = {mu: _collar_coeffs(mu, T + n) for mu in range(T + n + 1)}
    mins = (-1,) * n
    terms = (
        (exps, c * val)
        for key, c in ys.terms.items()
        for exps, val in _tensor([collar[e - 1] for e in key], T, mins).items()
    )
    return TruncSeries(n, T, mins=mins, terms=terms) - rhs


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


def _weights(letter, order):
    """1-variable dict of one boundary's weights in a pants term.

    A profile nu has weight nu at exponent nu - 1, except the empty profile
    (nu = 0), which has weight 1 at exponent -1.  The letter picks the
    profiles: "e" even nu >= 2, "o" odd nu >= 1, "E" even nu >= 0, "0" the
    empty profile alone.  Exponents stop at `order`.
    """
    first = {"E": 0, "0": 0, "o": 1, "e": 2}[letter]
    last = 0 if letter == "0" else order + 1
    return {nu - 1: Fraction(max(nu, 1)) for nu in range(first, last + 1, 2)}


# The three-boundary sphere entries: a sum of tensor products of weights,
# one word per product and one letter of _weights per boundary.
_FN03_WORDS = {
    "fN03": ("EEE", "Eoo", "oEo", "ooE"),
    "fN03_t0": ("eee", "eoo", "oeo", "ooe"),
    "fN03_t1": ("0ee", "0oo", "e0e", "o0o", "ee0", "oo0"),
    "fN03_t2": ("000", "e00", "0e0", "00e"),
}


def _divide_diagonal(terms, top):
    """Exact division of a 2-variable polynomial dict by (v2 - v1).

    Works one homogeneous slice at a time: writing a slice of degree d as
    sum_j a_j v1^(d-j) v2^j, the quotient coefficients are suffix sums of the
    a_j, and exactness forces a_0 + q_0 = 0 on every slice.
    """
    slices = {}
    for (e1, e2), v in terms.items():
        if e1 + e2 <= top:
            slices.setdefault(e1 + e2, {})[e2] = v
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
    sq = _inv_sqrt_one_minus_four(top)
    s1 = TruncSeries(2, top, terms={(2 * s, 0): c for s, c in sq.items()})
    s2 = TruncSeries(2, top, terms={(0, 2 * s): c for s, c in sq.items()})
    bracket = TruncSeries(2, top, terms={(2, 0): 2, (1, 1): -3, (0, 2): 2, (2, 2): -4})
    num = (bracket * (s1 * s2)).shift_var(0, 1).shift_var(1, 1)
    num = num - TruncSeries(2, top, terms={(2, 2): 1})
    quot = _divide_diagonal(_divide_diagonal(num.terms, top), top - 1)
    return TruncSeries(2, T, terms={k: v / 2 for k, v in quot.items()})


def _disc_alpha_bound(T):
    """Auxiliary bound of the region-graded disc entry at order T."""
    return max(1, (T + 1) // 2)


def expand_closed_form(name, T):
    """Expand a catalogued closed form to order T."""
    _check_order(T)

    if name == "fN01":
        return TruncSeries(1, T, mins=(-1,), terms={(-1,): Fraction(1)})

    if name in ("fG01", "frakf01G"):
        # exponent 2s - 1 = mu + 1: a disc diagram on mu points has s regions
        graded = name == "frakf01G"
        terms = {
            (2 * s - 1,) + ((s,) if graded else ()): -c / 2
            for s, c in _sqrt_one_minus_four(T + 1).items()
            if s >= 1 and 2 * s - 1 <= T
        }
        return TruncSeries(1, T, aux="alpha" if graded else None,
                           aux_bound=_disc_alpha_bound(T), terms=terms)

    if name == "fG02":
        return _catalogue_fG02(T)

    if name in ("fN02", "fN02_t0", "fN02_t1"):
        terms = {}
        if name in ("fN02", "fN02_t1"):
            terms[(-1, -1)] = Fraction(1)
        if name in ("fN02", "fN02_t0"):
            for j in range(T // 2 + 1):
                terms[(j, j)] = Fraction(j + 1)
        return TruncSeries(2, T, mins=(-1, -1), terms=terms)

    if name in _FN03_WORDS:
        mins3 = (-1, -1, -1)
        terms = (
            term
            for word in _FN03_WORDS[name]
            for term in _tensor([_weights(letter, T + 3) for letter in word], T, mins3).items()
        )
        return TruncSeries(3, T, mins=mins3, terms=terms)

    raise ValueError(f"unknown closed form {name!r}")


# The count-built series each catalogue entry must match, in catalogue order.
_REFERENCES = {
    "fN01": lambda T: build_fN(0, 1, T),
    "fG01": lambda T: build_fG(0, 1, T),
    "fN02": lambda T: build_fN(0, 2, T),
    "fN03": lambda T: build_fN(0, 3, T),
    "fN02_t0": lambda T: build_fN(0, 2, T, t=0),
    "fN02_t1": lambda T: build_fN(0, 2, T, t=1),
    "fN03_t0": lambda T: build_fN(0, 3, T, t=0),
    "fN03_t1": lambda T: build_fN(0, 3, T, t=1),
    "fN03_t2": lambda T: build_fN(0, 3, T, t=2),
    "frakf01G": lambda T: build_frak_f(0, 1, T, _disc_alpha_bound(T)),
    "fG02": lambda T: build_fG(0, 2, T),
}

CLOSED_FORM_NAMES = tuple(_REFERENCES)


def closed_form_reference(name, T):
    """Count-built series that a catalogue entry must match through order T."""
    if name not in _REFERENCES:
        raise ValueError(f"unknown closed form {name!r}")
    return _REFERENCES[name](T)


# ---------------------------------------------------------------------------
# Differential recursions
# ---------------------------------------------------------------------------


def _recursion_residual(piece, g, n):
    """x1 * piece(g, n) minus the three right-hand terms shared by the
    refined and unrefined differential recursions at (g, n).

    piece(g', n') builds the y-series of (g', n') at the working order.  The
    terms are the genus-drop diagonal, the divided differences against each
    later variable, and the splitting convolution over ordered genus/slot
    splits; lower pieces sit at variable slots of the n-variable space.
    """
    def embedded(g_sub, slots):
        return piece(g_sub, len(slots)).embed(n, slots, (0,) * n)

    residual = piece(g, n).shift_var(0, -1)
    if g >= 1:
        residual = residual - piece(g - 1, n + 1).merge_first_two()
    rest = tuple(range(1, n))
    if n >= 2:
        base = embedded(g, rest)
        for k in rest:
            residual = residual - base.divided_difference(k).deriv_x(k)
    for g1 in range(g + 1):
        for left, right in ordered_splits(rest):
            residual = residual - embedded(g1, (0,) + left) * embedded(g - g1, (0,) + right)
    return residual


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
    if alpha_bound is None:
        alpha_bound = T // 2 + 2
    _check_order(T, alpha_bound)
    work = T + 2
    safe_alpha = work // 2 + 2

    def piece(g_sub, n_sub):
        return build_frak_f(g_sub, n_sub, work, safe_alpha)

    residual = _recursion_residual(piece, g, n)
    # alpha-weighted term; for n = 1 the zero-boundary convention gives alpha
    if n >= 2:
        weighted = piece(g, n - 1).embed(n, tuple(range(1, n)), (0,) * n).aux_weighted()
    else:
        weighted = TruncSeries(n, work, aux="alpha", aux_bound=safe_alpha,
                               terms={(0,) * n + (1,): Fraction(1)})
    residual = residual - weighted

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
    recursion cannot see.  The derivative is linear, so it acts once on
    the whole residual.
    """
    if g < 0 or n < 1:
        raise ValueError("need g >= 0 and n >= 1")
    _check_order(T)
    work = T + 2
    residual = _recursion_residual(lambda g_sub, n_sub: build_fG(g_sub, n_sub, work), g, n)
    return residual.deriv_x(0).truncate(T)


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
    _check_order(T)
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
