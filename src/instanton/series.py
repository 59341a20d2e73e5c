"""Truncated formal power series in t over polynomial coefficients.

A :class:`SeriesT` coefficient is one polynomial in omega and beta.  This
carries the generating series of the rho family: every factor of it is a plain
t-series over Q[omega, beta] (see ``relations.rho_series``).

Also here: integer rational-function expansion for the Poincare formulas and
the determinant family det(a_{k,s}) from the expansion of (1+sqrt(1+x))^s.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from .linalg import Matrix, det
from .poly import OMEGA, Poly, ring

# Coefficients live in a fixed tiny ring: polynomials in omega, beta.
COEFF_RING = ring(1, coordinate=OMEGA)


def beta_poly() -> Poly:
    return Poly.variable(COEFF_RING, "beta")


def binomial_coeff(e: Fraction, i: int) -> Fraction:
    """Generalized binomial coefficient C(e, i) for rational e."""
    out = Fraction(1)
    for j in range(i):
        out *= (e - j) / (i - j)
    return out


class SeriesT:
    """Power series sum_k c_k t^k truncated at order N, each c_k in Q[omega, beta]."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Optional[Sequence[Poly]] = None):
        self.order = order
        if coeffs is None:
            self.coeffs = [Poly.zero(COEFF_RING) for _ in range(order + 1)]
        else:
            if len(coeffs) != order + 1:
                raise ValueError("coefficient list does not match order")
            self.coeffs = list(coeffs)

    @classmethod
    def constant(cls, order: int, value) -> "SeriesT":
        return cls.term(order, 0, value)

    @classmethod
    def term(cls, order: int, k: int, value) -> "SeriesT":
        s = cls(order)
        if k <= order:
            s.coeffs[k] = value if isinstance(value, Poly) else Poly.constant(COEFF_RING, value)
        return s

    def __eq__(self, other) -> bool:
        return (isinstance(other, SeriesT) and self.order == other.order
                and self.coeffs == other.coeffs)

    def __add__(self, other: "SeriesT") -> "SeriesT":
        if self.order != other.order:
            raise ValueError("order mismatch")
        return SeriesT(self.order, [a + c for a, c in zip(self.coeffs, other.coeffs)])

    def __mul__(self, other) -> "SeriesT":
        if not isinstance(other, SeriesT):
            return SeriesT(self.order, [a * other for a in self.coeffs])
        if self.order != other.order:
            raise ValueError("order mismatch")
        return SeriesT(self.order, [
            _products((a, other.coeffs[n - i]) for i, a in enumerate(self.coeffs[:n + 1]))
            for n in range(self.order + 1)])


def _products(pairs: Iterable[Tuple[Poly, Poly]]) -> Poly:
    """The sum over ``pairs`` of a*b: only products of nonzero operands are
    formed, and their terms are summed once."""
    return Poly.from_terms(COEFF_RING, (t for a, b in pairs if a.terms and b.terms
                                        for t in (a * b).terms.items()))


def _recurrence(b: SeriesT, h0: Poly, weight) -> SeriesT:
    """The series h with h_0 = ``h0`` and, for 1 <= n <= N,
    h_n = sum_{j=1..n} weight(n, j) b_j h_{n-j}: O(N^2) coefficient products,
    where summing N powers of a series takes O(N^3)."""
    nonzero = [(j, c) for j, c in enumerate(b.coeffs) if j and c.terms]
    h = [h0]
    for n in range(1, b.order + 1):
        h.append(_products((c * w, h[n - j]) for j, c in nonzero
                           if j <= n for w in (weight(n, j),) if w))
    return SeriesT(b.order, h)


def pow_binomial(base: SeriesT, exponent: Fraction) -> SeriesT:
    """(base)^exponent for a base with constant term 1, by J. C. P. Miller's
    recurrence n h_n = sum_{j=1..n} ((a+1) j - n) b_j h_{n-j} (Knuth, TAOCP
    Vol. 2, 4.7), read off h' b = a b' h."""
    one = Poly.constant(COEFF_RING, 1)
    if base.coeffs[0] != one:
        raise ValueError("binomial power needs constant term 1")
    a1 = Fraction(exponent) + 1
    return _recurrence(base, one, lambda n, j: (a1 * j - n) / n)


def exp_series(f: SeriesT) -> SeriesT:
    """exp(f) for a series with zero constant term, by the recurrence
    n h_n = sum_{j=1..n} j f_j h_{n-j}, read off h' = f' h."""
    if f.coeffs[0].terms:
        raise ValueError("exp needs zero constant term")
    return _recurrence(f, Poly.constant(COEFF_RING, 1), lambda n, j: Fraction(j, n))


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
