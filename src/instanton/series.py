"""Series helpers: the coefficient ring of the rho family, generalized
binomial coefficients, integer rational-function expansion for the Poincare
formulas, and the determinant family det(a_{k,s}) from the expansion of
(1+sqrt(1+x))^s.

The rho family's generating series is read off one coefficient recurrence in
``relations.rho_series``; its coefficients live in COEFF_RING, the polynomials
in omega and beta.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Sequence

from .linalg import Matrix, leading_minors
from .poly import OMEGA, ring

# Coefficients live in a fixed tiny ring: polynomials in omega, beta.
COEFF_RING = ring(1, coordinate=OMEGA)


def binomial_coeff(e: Fraction, i: int) -> Fraction:
    """Generalized binomial coefficient C(e, i) for rational e."""
    out = Fraction(1)
    for j in range(i):
        out *= (e - j) / (i - j)
    return out


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


def a_table(N: int) -> List[List[Fraction]]:
    """a[k][s] = coefficient of x^k in (1 + sqrt(1+x))^s for 0 <= k, s <= N."""
    base = [binomial_coeff(Fraction(1, 2), k) for k in range(N + 1)]  # sqrt(1+x)
    base[0] += 1
    cols: List[List[Fraction]] = [[Fraction(1)] + [Fraction(0)] * N]
    for _ in range(N):
        cols.append(poly_mul(cols[-1], base)[:N + 1])
    return [[cols[s][k] for s in range(N + 1)] for k in range(N + 1)]


def binom_sqrt_dets(N: int) -> List[Fraction]:
    """det(a_{k,s})_{0<=k,s<=M} for M = 0..N; all are asserted nonzero.

    Each is 2^(-M(M+1)/2): with y = sqrt(1+x) - 1, (1 + sqrt(1+x))^s = (2 + y)^s,
    so the table factors as A = G*B with G_{k,j} = [x^k] y^j, lower triangular
    with diagonal 2^(-j), and B_{j,s} = C(s, j) 2^(s-j), unit upper triangular;
    the leading blocks factor alike.
    """
    dets = leading_minors(Matrix(a_table(N)))
    if not dets[-1]:
        raise AssertionError(f"det(a_ks) vanished at M={len(dets) - 1}")
    return dets
