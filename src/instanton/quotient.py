"""Canonical representatives in the graded delta-square / gamma-truncation quotient rings.

A :class:`QuotientSpec` packages the relations

    gamma^G = 0            (optional truncation G),
    delta_i^2 = -beta      (every i),
    beta = 0               (optional, on top of the above),

covering the gamma-killed ring R-bar_n (G=1), the graded model rings (G=g+1)
and the mod-beta rings.

Canonical form: omega-coordinates, every delta exponent in {0, 1}, gamma
exponent below G, and no beta when beta_zero.  Reduction is a linear
isomorphism from that monomial span onto the quotient and never raises the
degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import comb
from operator import add
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .poly import ALPHA, OMEGA, Exponents, Poly, RingDescriptor, _summed


class _SpecFields(NamedTuple):
    gamma_truncation: Optional[int]
    beta_zero: bool


class QuotientSpec(_SpecFields):
    """Relation package: gamma^G = 0, delta_i^2 = -beta, optionally beta = 0."""

    __slots__ = ()

    def __new__(cls, gamma_truncation: Optional[int] = None, beta_zero: bool = False):
        if gamma_truncation is not None and gamma_truncation < 1:
            raise ValueError("gamma truncation must be >= 1")
        return super().__new__(cls, gamma_truncation, beta_zero)


# the rings used throughout the package
def rbar_spec() -> QuotientSpec:
    """R-bar_n: gamma = 0 and delta_i^2 = -beta."""
    return QuotientSpec(gamma_truncation=1)


def model_spec(g: int) -> QuotientSpec:
    """The graded R_{g,n}: gamma^{g+1} = 0 and delta_i^2 = -beta."""
    return QuotientSpec(gamma_truncation=g + 1)


def mod_beta_spec() -> QuotientSpec:
    """R-bar_n/(beta): gamma = 0, delta_i^2 = 0, beta = 0."""
    return QuotientSpec(gamma_truncation=1, beta_zero=True)


# c -> its powers c^k and the terms of (c - beta)^k as (beta exponent, coefficient) pairs
_C_MINUS_BETA: Dict[int, Tuple[List[int], list]] = {}


def _fold_squares(pairs: Iterable[Tuple[Exponents, object]], ring: RingDescriptor, c: int,
                  beta_zero: bool = False) -> Iterator[Tuple[Exponents, object]]:
    """The (exponents, coefficient) pairs, in omega-coordinates, with every
    delta_i^2 replaced by c - beta (and beta dropped when beta_zero), not
    summed.  The integer c is 0 in the graded rings (``canonical_rep``) and a
    residue mod p in the model build (``floer._ModularTables``); the
    coefficients are Fractions, LaurentU or unreduced residues mod p.  Without
    beta_zero it is the normal form modulo the binomials delta_i^2 + beta - c:
    their leading monomials are coprime, so they are a Groebner basis
    (Cox-Little-O'Shea, Ideals, Varieties, and Algorithms, Ch. 2 Sections 3
    and 9)."""
    lo, hi = 3, 3 + ring.n  # the deltas
    memo = _C_MINUS_BETA.get(c)
    if memo is None:
        memo = _C_MINUS_BETA[c] = ([1], [[(0, 1)]])
    c_powers, binomials = memo
    for exps, coeff in pairs:
        deltas = exps[lo:hi]
        if max(deltas) < 2:
            if not (beta_zero and exps[1]):
                yield exps, coeff
            continue
        head, b = exps[0], exps[1]
        parities = tuple(d & 1 for d in deltas)
        tail = exps[2:lo] + parities + exps[hi:]
        k = (sum(deltas) - sum(parities)) >> 1
        while len(binomials) <= k:  # the terms C(k, j) c^(k-j) (-1)^j beta^j
            k2 = len(binomials)
            c_powers.append(c_powers[-1] * c)
            binomials.append([(j, c_powers[k2 - j] * (comb(k2, j) * (-1) ** j))
                              for j in range(k2 + 1) if c_powers[k2 - j]])
        for j, cj in binomials[k]:
            if not (beta_zero and b + j):
                yield (head, b + j) + tail, cj * coeff


def canonical_rep(f: Poly, spec: QuotientSpec) -> Poly:
    """The canonical representative of f in the quotient, in omega-coordinates.

    One pass substitutes and reduces.  A term x^a * rest, x the first variable,
    is replaced by the image of x^a shifted by rest and then folded.  From
    omega-coordinates the image is omega^a.  From alpha-coordinates it is
    (omega - S/2)^a = sum_j C(a, j) (-1/2)^j omega^(a-j) S^j, S the sum of the
    deltas; omega never meets the fold, so only the powers of S are brought to
    canonical form, each as it is built from the one before.  The unreduced
    expansion of (omega - S/2)^a is never formed.
    """
    ring = f.ring.with_coordinate(OMEGA)
    G, beta_zero = spec.gamma_truncation, spec.beta_zero

    # S^j carries exponents relative to omega^j, so adding a term's own
    # exponents x^a * rest places it at omega^(a-j) * rest.  ``zero`` and
    # ``one`` are shared: an exponent tuple or coefficient that is one of them
    # is not added or multiplied, so omega-coordinate input (S^0 only) reaches
    # the fold untouched.  S^j has rational coefficients over either ring.
    zero, one = ring.zero_exponents(), Fraction(1)
    s_powers = [[(zero, one)]]  # canonical S^j as (exponents, coefficient) pairs
    if f.ring.coordinate == ALPHA:
        s_terms = [tuple(int(j == i) - int(j == 0) for j in range(ring.nvars))
                   for i in range(3, 3 + ring.n)]
        for _ in range(max((e[0] for e in f.terms), default=0)):
            s_powers.append(list(_summed(_fold_squares(
                ((tuple(map(add, e, s)), sc) for e, sc in s_powers[-1] for s in s_terms),
                ring, 0, beta_zero)).items()))
    half = Fraction(-1, 2)

    def shifted():
        for exps, coeff in f.terms.items():
            if G is not None and exps[2] >= G:
                continue
            a = exps[0]
            for j, s_j in enumerate(s_powers[:a + 1]):
                w = coeff * (comb(a, j) * half ** j) if j else coeff
                for e, sc in s_j:
                    yield (exps if e is zero else tuple(map(add, e, exps)),
                           w if sc is one else sc * w)

    return Poly.from_terms(ring, _fold_squares(shifted(), ring, 0, beta_zero))


def delta_support(ring: RingDescriptor, exps: Exponents) -> FrozenSet[int]:
    return frozenset(i + 1 for i, d in enumerate(exps[ring.delta_slice()]) if d % 2)


def canonical_monomials(ring: RingDescriptor, spec: QuotientSpec, degree: int) -> List[Exponents]:
    """Canonical-form monomials of the given total degree, display order (descending)."""
    if degree < 0 or degree % 2:
        return []
    if ring.coordinate != OMEGA:
        raise ValueError("canonical monomials live in the omega-coordinate ring")
    n = ring.n
    G = spec.gamma_truncation
    out: List[Exponents] = []
    half = degree // 2
    max_c = half // 3 if G is None else min(G - 1, half // 3)
    for cexp in range(max_c + 1):
        rem_after_c = half - 3 * cexp
        max_b = 0 if spec.beta_zero else rem_after_c // 2
        for bexp in range(max_b + 1):
            rem = rem_after_c - 2 * bexp
            for size in range(min(n, rem) + 1):
                a = rem - size
                for sup in combinations(range(n), size):
                    exps = [a, bexp, cexp] + [0] * n
                    for i in sup:
                        exps[3 + i] = 1
                    out.append(tuple(exps))
    out.sort(key=ring.sort_key, reverse=True)
    return out
