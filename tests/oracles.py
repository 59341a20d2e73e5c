"""Independent slow paths that the tests compare the package against.

Nothing in the package calls these; each one re-derives a result of a fast path
by a plainer method.
"""

from fractions import Fraction
from itertools import combinations
from typing import Iterable, List

from instanton.linalg import Matrix
from instanton.poly import LAURENT_U, OMEGA, LaurentU, Poly
from instanton.quotient import QuotientSpec, canonical_rep
from instanton.series import RationalFn, poly_mul


def char_poly(M: Matrix) -> List[Fraction]:
    """Characteristic polynomial coefficients [c_0..c_n] of det(xI - M).

    Faddeev-LeVerrier; exact but O(n^4), intended for dims <= 60.
    """
    n = M.rows
    if n != M.cols:
        raise ValueError("square matrix required")
    if n > 60:
        raise ValueError("char_poly limited to dimension <= 60")
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    Mk = Matrix.identity(n)
    for k in range(1, n + 1):
        Mk = M * Mk
        c = -Fraction(sum(Mk.data[i][i] for i in range(n)), k)
        coeffs[n - k] = c
        for i in range(n):
            Mk.data[i][i] += c
    return coeffs


def even_average(f: Poly, I: Iterable[int], spec: QuotientSpec) -> Poly:
    """Character projector (1/2^{n-1}) sum_{|J| even} (-1)^{|I cap J|} tau_J.

    Independent oracle for :func:`instanton.quotient.iso_project`; the two agree
    exactly.
    """
    g = canonical_rep(f, spec)
    ring = g.ring
    I = frozenset(I)
    if len(I) > ring.m:
        raise ValueError(f"|I| must be <= m = {ring.m}")
    n = ring.n
    total = Poly.zero(ring)
    indices = list(range(1, n + 1))
    for size in range(0, n + 1, 2):
        for J in combinations(indices, size):
            sign = (-1) ** len(I & set(J))
            total = total + g.flip(J) * sign
    return total * Fraction(1, 2 ** (n - 1))


def dense_reduce_oracle(f: Poly, spec: QuotientSpec) -> Poly:
    """Second, naive reduction path: rewrite one delta-square at a time to a fixpoint."""
    g = f.change_coordinates(OMEGA)
    ring = g.ring
    c = spec.delta_square
    if ring.coeff_kind == LAURENT_U:
        c = LaurentU.coerce(c)
    elif isinstance(c, LaurentU):
        c = c.constant_value()
    cb = Poly.constant(ring, c) - Poly.variable(ring, "beta")
    changed = True
    while changed:
        changed = False
        out = Poly.zero(ring)
        for exps, coeff in g.terms.items():
            if spec.gamma_truncation is not None and exps[2] >= spec.gamma_truncation:
                changed = True
                continue
            hit = next((i for i, d in enumerate(exps[ring.delta_slice()]) if d >= 2), None)
            if hit is None:
                out = out + Poly.monomial(ring, exps, coeff)
            else:
                changed = True
                lowered = list(exps)
                lowered[3 + hit] -= 2
                out = out + Poly.monomial(ring, tuple(lowered), coeff) * cb
        g = out
    if spec.beta_zero:
        g = Poly(g.ring, {e: c2 for e, c2 in g.terms.items() if e[1] == 0}, _normalized=True)
    return g


def expand_by_long_division(rf: RationalFn, N: int) -> List[int]:
    """Independent expansion path: multiply out the denominator, then do series division."""
    denom = [1]
    for k in rf.denominator_factors:
        factor = [1] + [0] * (k - 1) + [-1]
        denom = poly_mul(denom, factor)
    num = list(rf.numerator[:N + 1]) + [0] * max(0, N + 1 - len(rf.numerator))
    out = [0] * (N + 1)
    for i in range(N + 1):
        acc = num[i]
        for j in range(1, min(i, len(denom) - 1) + 1):
            acc -= denom[j] * out[i - j]
        if acc % denom[0]:
            raise ArithmeticError("non-integer series coefficient")
        out[i] = acc // denom[0]
    return out
