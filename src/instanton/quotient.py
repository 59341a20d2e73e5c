"""Canonical representatives in the delta-square / gamma-truncation quotient rings.

A :class:`QuotientSpec` packages the relations

    gamma^G = 0            (optional truncation G),
    delta_i^2 = c - beta   (one constant c for every i),
    beta = 0               (optional, on top of the above),

covering all the quotient rings used here: the gamma-killed ring (G=1, c=0),
the graded model rings (G=g+1, c=2), the one-point ring (no truncation, c=2),
the local-coefficient variant (c = u^2 + u^{-2}) and the mod-beta rings.

Canonical form: omega-coordinates, every delta exponent in {0, 1}, gamma
exponent below G, and no beta when beta_zero.  Reduction is a linear
isomorphism from that monomial span onto the quotient and never raises the
degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from operator import add
from typing import Dict, FrozenSet, Iterable, List, Optional

from .poly import (LAURENT_U, OMEGA, Exponents, LaurentU, Poly, RingDescriptor)


@dataclass(frozen=True)
class QuotientSpec:
    """Relation package: gamma^G = 0, delta_i^2 = c - beta, optionally beta = 0."""

    gamma_truncation: Optional[int] = None
    delta_square: object = Fraction(0)  # the constant c
    beta_zero: bool = False

    def __post_init__(self):
        if self.gamma_truncation is not None and self.gamma_truncation < 1:
            raise ValueError("gamma truncation must be >= 1")
        c = self.delta_square
        if not isinstance(c, LaurentU):
            object.__setattr__(self, "delta_square", Fraction(c))

    def __hash__(self):
        return hash((self.gamma_truncation, self.delta_square, self.beta_zero))


# the rings used throughout the package
def rbar_spec() -> QuotientSpec:
    """R-bar_n: gamma = 0 and delta_i^2 = -beta."""
    return QuotientSpec(gamma_truncation=1, delta_square=0)


def model_spec(g: int) -> QuotientSpec:
    """R_{g,n}: gamma^{g+1} = 0 and delta_i^2 = 2 - beta."""
    return QuotientSpec(gamma_truncation=g + 1, delta_square=2)


def r1_spec() -> QuotientSpec:
    """R_1: delta^2 = 2 - beta, no gamma truncation."""
    return QuotientSpec(gamma_truncation=None, delta_square=2)


def local_spec(g: Optional[int] = None) -> QuotientSpec:
    """Local-coefficient variant: delta_i^2 = u^2 + u^{-2} - beta."""
    c = LaurentU({2: 1, -2: 1})
    return QuotientSpec(gamma_truncation=None if g is None else g + 1, delta_square=c)


def mod_beta_spec() -> QuotientSpec:
    """R-bar_n/(beta): gamma = 0, delta_i^2 = 0, beta = 0."""
    return QuotientSpec(gamma_truncation=1, delta_square=0, beta_zero=True)


def canonical_rep(f: Poly, spec: QuotientSpec) -> Poly:
    """The canonical representative of f in the quotient, in omega-coordinates."""
    f = f.change_coordinates(OMEGA)
    ring = f.ring
    G = spec.gamma_truncation
    c = spec.delta_square
    if ring.coeff_kind == LAURENT_U:
        c = LaurentU.coerce(c)
    elif isinstance(c, LaurentU):
        c = c.constant_value()
    cb = Poly.constant(ring, c) - Poly.variable(ring, "beta")
    cb_powers: Dict[int, Poly] = {}  # (c - beta)^k, a polynomial in beta
    ds = ring.delta_slice()

    def pairs():
        for exps, coeff in f.terms.items():
            if G is not None and exps[2] >= G:
                continue
            deltas = exps[ds]
            k = sum(d // 2 for d in deltas)
            if not k:
                yield exps, coeff
                continue
            if k not in cb_powers:
                cb_powers[k] = cb ** k
            reduced = exps[:3] + tuple(d % 2 for d in deltas) + exps[ds.stop:]
            for e, c2 in cb_powers[k].terms.items():
                yield tuple(map(add, e, reduced)), c2 * coeff

    terms = pairs()
    if spec.beta_zero:
        terms = ((e, c2) for e, c2 in terms if not e[1])
    return Poly.from_terms(ring, terms)


def delta_support(ring: RingDescriptor, exps: Exponents) -> FrozenSet[int]:
    return frozenset(i + 1 for i, d in enumerate(exps[ring.delta_slice()]) if d % 2)


def iso_project(f: Poly, I: Iterable[int], spec: QuotientSpec) -> Poly:
    """Isotypic component p_I: canonical-form terms with delta-support I or I-complement."""
    g = canonical_rep(f, spec)
    ring = g.ring
    I = frozenset(I)
    if len(I) > ring.m:
        raise ValueError(f"|I| must be <= m = {ring.m}")
    Ic = frozenset(range(1, ring.n + 1)) - I
    return Poly.from_terms(ring, ((e, c) for e, c in g.terms.items()
                                  if delta_support(ring, e) in (I, Ic)))


def pi_on_quotient(f: Poly, spec_from: QuotientSpec, spec_to: QuotientSpec) -> Poly:
    """Reduce then apply the point-reduction map; specs must agree."""
    if (spec_from.gamma_truncation != spec_to.gamma_truncation
            or spec_from.delta_square != spec_to.delta_square
            or spec_from.beta_zero != spec_to.beta_zero):
        raise ValueError("incompatible quotient specs")
    return canonical_rep(canonical_rep(f, spec_from).pi_reduce(), spec_to)


def canonical_monomials(ring: RingDescriptor, spec: QuotientSpec, degree: int) -> List[Exponents]:
    """Canonical-form monomials of the given total degree, display order (descending)."""
    if degree < 0 or degree % 2:
        return []
    if ring.coordinate != OMEGA or ring.has_epsilon:
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
