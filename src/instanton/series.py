"""Truncated formal power series in t over polynomial coefficients.

A :class:`SeriesT` coefficient is a pair (even, odd) of polynomials
representing ``even + s*odd`` where ``s`` is a formal square root of ``-beta``
(so products reduce ``s^2 -> -beta`` eagerly).  This carries the generating
series used to build the rho family without ever picking a branch of the
radical: any computation whose answer is a polynomial must end with zero odd
part, and that is asserted.

Also here: integer rational-function expansion for the Poincare formulas and
the determinant family det(a_{k,s}) from the expansion of (1+sqrt(1+x))^s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .linalg import Matrix, det
from .poly import OMEGA, Poly, ring

# Coefficient pairs live in a fixed tiny ring: polynomials in omega, beta.
COEFF_RING = ring(1, coordinate=OMEGA)


def _zero() -> Poly:
    return Poly.zero(COEFF_RING)


def omega_poly() -> Poly:
    return Poly.variable(COEFF_RING, "omega")


def beta_poly() -> Poly:
    return Poly.variable(COEFF_RING, "beta")


def binomial_coeff(e: Fraction, i: int) -> Fraction:
    """Generalized binomial coefficient C(e, i) for rational e."""
    out = Fraction(1)
    for j in range(i):
        out *= (e - j) / (i - j)
    return out


class SeriesT:
    """Power series sum_k (even_k + s*odd_k) t^k truncated at order N, s^2 = -beta."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Optional[Sequence[Tuple[Poly, Poly]]] = None):
        self.order = order
        if coeffs is None:
            self.coeffs = [(_zero(), _zero()) for _ in range(order + 1)]
        else:
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list does not match order")
            self.coeffs = [(e, o) for e, o in coeffs]

    @classmethod
    def constant(cls, order: int, value) -> "SeriesT":
        s = cls(order)
        v = value if isinstance(value, Poly) else Poly.constant(COEFF_RING, value)
        s.coeffs[0] = (v, _zero())
        return s

    @classmethod
    def term(cls, order: int, k: int, even=None, odd=None) -> "SeriesT":
        s = cls(order)
        if k <= order:
            e = even if isinstance(even, Poly) else Poly.constant(COEFF_RING, even or 0)
            o = odd if isinstance(odd, Poly) else Poly.constant(COEFF_RING, odd or 0)
            s.coeffs[k] = (e, o)
        return s

    def even_part_zero(self) -> bool:
        return all(e.is_zero() for e, _ in self.coeffs)

    def odd_part_zero(self) -> bool:
        return all(o.is_zero() for _, o in self.coeffs)

    def constant_term(self) -> Tuple[Poly, Poly]:
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        return (isinstance(other, SeriesT) and self.order == other.order
                and all(a == c and b == d for (a, b), (c, d) in zip(self.coeffs, other.coeffs)))

    def __add__(self, other: "SeriesT") -> "SeriesT":
        if not isinstance(other, SeriesT):
            other = SeriesT.constant(self.order, other)
        if self.order != other.order:
            raise ValueError("order mismatch")
        return SeriesT(self.order, [(a + c, b + d) for (a, b), (c, d)
                                    in zip(self.coeffs, other.coeffs)])

    __radd__ = __add__

    def __neg__(self) -> "SeriesT":
        return SeriesT(self.order, [(-e, -o) for e, o in self.coeffs])

    def __sub__(self, other) -> "SeriesT":
        if not isinstance(other, SeriesT):
            other = SeriesT.constant(self.order, other)
        return self + (-other)

    def scale(self, c) -> "SeriesT":
        if isinstance(c, Poly):
            return SeriesT(self.order, [_s_products([(a, (c, _zero()))]) for a in self.coeffs])
        return SeriesT(self.order, [tuple(p * c if p.terms else p for p in eo)
                                    for eo in self.coeffs])

    def __mul__(self, other) -> "SeriesT":
        if not isinstance(other, SeriesT):
            return self.scale(other)
        if self.order != other.order:
            raise ValueError("order mismatch")
        return SeriesT(self.order, [
            _s_products((a, other.coeffs[n - i]) for i, a in enumerate(self.coeffs[:n + 1]))
            for n in range(self.order + 1)])

    __rmul__ = __mul__

    def divide_by_s(self) -> "SeriesT":
        """Divide by s; requires identically zero even part."""
        if not self.even_part_zero():
            raise ValueError("series is not an s-multiple")
        return SeriesT(self.order, [(o, _zero()) for _, o in self.coeffs])


_MINUS_BETA = -beta_poly()


def _s_products(pairs: Iterable[Tuple[Tuple[Poly, Poly], Tuple[Poly, Poly]]]
                ) -> Tuple[Poly, Poly]:
    """The sum over ``pairs`` of (e1 + s*o1)(e2 + s*o2) with s^2 = -beta, as its
    (even, odd) parts e1 e2 - beta o1 o2 and e1 o2 + o1 e2.  Only products of
    nonzero parts are formed, and each part is summed once."""
    ev: List[Poly] = []
    od: List[Poly] = []
    for (e1, o1), (e2, o2) in pairs:
        if e1.terms:
            if e2.terms:
                ev.append(e1 * e2)
            if o2.terms:
                od.append(e1 * o2)
        if o1.terms:
            if o2.terms:
                ev.append(_MINUS_BETA * (o1 * o2))
            if e2.terms:
                od.append(o1 * e2)
    return tuple(Poly.from_terms(COEFF_RING, (t for p in part for t in p.terms.items()))
                 for part in (ev, od))


def _recurrence(b: SeriesT, h0: Poly, weight, shift: bool = False) -> SeriesT:
    """The series h with h_0 = ``h0`` and, for 1 <= n <= N,
    h_n = (b_n if ``shift``) + sum_{j=1..n} weight(n, j) b_j h_{n-j}:
    O(N^2) coefficient products, where summing N powers of a series takes
    O(N^3)."""
    nonzero = [(j, e, o) for j, (e, o) in enumerate(b.coeffs) if j and (e.terms or o.terms)]
    h = [(h0, _zero())]
    for n in range(1, b.order + 1):
        ev, od = _s_products(((e * w, o * w), h[n - j]) for j, e, o in nonzero
                             if j <= n for w in (weight(n, j),) if w)
        if shift:
            ev, od = ev + b.coeffs[n][0], od + b.coeffs[n][1]
        h.append((ev, od))
    return SeriesT(b.order, h)


def pow_binomial(base: SeriesT, exponent: Fraction) -> SeriesT:
    """(base)^exponent for a base with constant term 1, by J. C. P. Miller's
    recurrence n h_n = sum_{j=1..n} ((a+1) j - n) b_j h_{n-j} (Knuth, TAOCP
    Vol. 2, 4.7), read off h' b = a b' h."""
    e0, o0 = base.constant_term()
    if not (e0 == Poly.constant(COEFF_RING, 1) and o0.is_zero()):
        raise ValueError("binomial power needs constant term 1")
    a1 = Fraction(exponent) + 1
    return _recurrence(base, e0, lambda n, j: (a1 * j - n) / n)


def exp_series(f: SeriesT) -> SeriesT:
    """exp(f) for a series with zero constant term, by the recurrence
    n h_n = sum_{j=1..n} j f_j h_{n-j}, read off h' = f' h."""
    e0, o0 = f.constant_term()
    if not (e0.is_zero() and o0.is_zero()):
        raise ValueError("exp needs zero constant term")
    return _recurrence(f, Poly.constant(COEFF_RING, 1), lambda n, j: Fraction(j, n))


def log_series(f: SeriesT) -> SeriesT:
    """log(f) for a series with constant term 1, by the recurrence
    h_n = f_n - (1/n) sum_{j=1..n-1} j h_j f_{n-j}, read off f h' = f'; that is
    h_n = f_n + sum_{j=1..n} ((j - n)/n) f_j h_{n-j}."""
    e0, o0 = f.constant_term()
    if not (e0 == Poly.constant(COEFF_RING, 1) and o0.is_zero()):
        raise ValueError("log needs constant term 1")
    return _recurrence(f, _zero(), lambda n, j: Fraction(j - n, n), shift=True)


# -- integer rational functions -------------------------------------------------


def poly_mul(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] += x * y
    return out


def poly_pow(a: Sequence[int], k: int) -> List[int]:
    out = [1]
    for _ in range(k):
        out = poly_mul(out, a)
    return out


def poly_add(a: Sequence[int], b: Sequence[int]) -> List[int]:
    out = [0] * max(len(a), len(b))
    for i, x in enumerate(a):
        out[i] += x
    for i, x in enumerate(b):
        out[i] += x
    return out


def poly_scale(a: Sequence[int], c: int) -> List[int]:
    return [c * x for x in a]


def poly_shift(a: Sequence[int], k: int) -> List[int]:
    return [0] * k + list(a)


class RationalFn:
    """numerator / product of (1 - t^k) factors, with integer numerator coefficients."""

    __slots__ = ("numerator", "denominator_factors")

    def __init__(self, numerator: Sequence[int], denominator_factors: Sequence[int] = ()):
        self.numerator = list(numerator)
        self.denominator_factors = list(denominator_factors)
        if any(k < 1 for k in self.denominator_factors):
            raise ValueError("denominator factors need k >= 1")


def expand_rational_fn(rf: RationalFn, N: int) -> List[int]:
    """Exact Taylor coefficients c_0..c_N of the rational function at t = 0."""
    c = list(rf.numerator[:N + 1]) + [0] * max(0, N + 1 - len(rf.numerator))
    for k in rf.denominator_factors:
        # divide by (1 - t^k): prefix recurrence c[i] += c[i-k]
        for i in range(k, N + 1):
            c[i] += c[i - k]
    return c


# -- sqrt(1+x) binomial table and its determinants ------------------------------


def sqrt_one_plus_x(N: int) -> List[Fraction]:
    return [binomial_coeff(Fraction(1, 2), k) for k in range(N + 1)]


def a_table(N: int) -> List[List[Fraction]]:
    """a[k][s] = coefficient of x^k in (1 + sqrt(1+x))^s for 0 <= k, s <= N."""
    base = sqrt_one_plus_x(N)
    base = [base[0] + 1] + base[1:]  # 1 + sqrt(1+x)
    cols: List[List[Fraction]] = [[Fraction(1)] + [Fraction(0)] * N]
    for _ in range(N):
        cols.append(poly_mul(cols[-1], base)[:N + 1])
    return [[cols[s][k] for s in range(N + 1)] for k in range(N + 1)]


def binom_sqrt_dets(N: int) -> List[Fraction]:
    """det(a_{k,s})_{0<=k,s<=M} for M = 0..N; all are asserted nonzero."""
    table = a_table(N)
    dets = []
    for M in range(N + 1):
        sub = Matrix([row[:M + 1] for row in table[:M + 1]])
        d = det(sub)
        if not d:
            raise AssertionError(f"det(a_ks) vanished at M={M}")
        dets.append(d)
    return dets
