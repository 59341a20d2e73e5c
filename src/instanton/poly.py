"""Sparse graded polynomials in (alpha|omega), beta, gamma, delta_1..delta_n.

Coefficients are exact: either ``fractions.Fraction`` or Laurent polynomials in
``u`` (:class:`LaurentU`).  Variable degrees are fixed:

    deg(alpha) = deg(omega) = deg(delta_i) = 2,
    deg(beta) = 4,  deg(gamma) = 6.

A polynomial is a dict mapping exponent tuples to coefficients; zero
coefficients are never stored.  All operations return new values; instances
are never mutated after construction, so they are safe to share.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import add
from typing import Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

Exponents = Tuple[int, ...]
Scalar = Union[int, Fraction]


def _fr(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def _summed(pairs: Iterable[Tuple[object, object]], into: Optional[dict] = None) -> dict:
    """Sum ``(key, coefficient)`` pairs into ``into`` (a new dict by default) and
    return it; a key whose sum is zero is not stored.  Keys are exponent tuples
    or u-exponents.  This is the term format of :class:`Poly` and
    :class:`LaurentU`: one coefficient per key, never a zero."""
    out = {} if into is None else into
    get = out.get
    for k, c in pairs:
        s = get(k)
        s = c if s is None else s + c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


class LaurentU:
    """Laurent polynomial in u over Fraction, as a map u-exponent -> coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[int, Scalar]] = None):
        self.terms = _summed((int(k), _fr(c)) for k, c in terms.items()) if terms else {}

    @classmethod
    def coerce(cls, x: Union["LaurentU", Scalar]) -> "LaurentU":
        if isinstance(x, LaurentU):
            return x
        return cls({0: _fr(x)})

    @classmethod
    def u_power(cls, k: int) -> "LaurentU":
        return cls({k: 1})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentU.coerce(other)
        if not isinstance(other, LaurentU):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self) -> "LaurentU":
        return LaurentU({k: -c for k, c in self.terms.items()})

    def __add__(self, other) -> "LaurentU":
        return LaurentU(_summed(LaurentU.coerce(other).terms.items(), dict(self.terms)))

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentU":
        return self + (-LaurentU.coerce(other))

    def __rsub__(self, other) -> "LaurentU":
        return LaurentU.coerce(other) + (-self)

    def __mul__(self, other) -> "LaurentU":
        other = LaurentU.coerce(other)
        return LaurentU(_summed((k1 + k2, c1 * c2) for k1, c1 in self.terms.items()
                                for k2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def evaluate(self, u_value: Scalar) -> Fraction:
        """Evaluate at a nonzero rational u (zero allowed only without negative powers)."""
        u = _fr(u_value)
        if u == 0 and any(k < 0 for k in self.terms):
            raise ValueError("cannot evaluate negative u-powers at u = 0")
        return sum((c * u ** k for k, c in self.terms.items()), Fraction(0))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k in sorted(self.terms, reverse=True):
            c = self.terms[k]
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*u")
            else:
                parts.append(f"{c}*u^{k}")
        return "(" + " + ".join(parts) + ")"

    __repr__ = __str__

    def to_json(self) -> list:
        return [{"u": k, "coeff": str(self.terms[k])} for k in sorted(self.terms)]


RATIONAL = "rational"
LAURENT_U = "laurent_u"
ALPHA = "alpha"
OMEGA = "omega"


class _RingFields(NamedTuple):
    n: int
    coeff_kind: str
    coordinate: str


class RingDescriptor(_RingFields):
    """Ambient ring shape: number of marked points, coefficient kind, coordinate."""

    __slots__ = ()

    def __new__(cls, n: int, coeff_kind: str = RATIONAL, coordinate: str = ALPHA):
        if n < 1 or n % 2 == 0:
            raise ValueError(f"n must be a positive odd integer, got {n}")
        if coeff_kind not in (RATIONAL, LAURENT_U):
            raise ValueError(f"unknown coeff_kind {coeff_kind!r}")
        if coordinate not in (ALPHA, OMEGA):
            raise ValueError(f"unknown coordinate {coordinate!r}")
        return super().__new__(cls, n, coeff_kind, coordinate)

    @property
    def nvars(self) -> int:
        return 3 + self.n

    @property
    def var_names(self) -> Tuple[str, ...]:
        deltas = tuple(f"delta{i}" for i in range(1, self.n + 1))
        return (self.coordinate, "beta", "gamma") + deltas

    @property
    def degrees(self) -> Tuple[int, ...]:
        return (2, 4, 6) + (2,) * self.n

    def with_coordinate(self, coordinate: str) -> "RingDescriptor":
        return RingDescriptor(self.n, self.coeff_kind, coordinate)

    def with_n(self, n: int) -> "RingDescriptor":
        return RingDescriptor(n, self.coeff_kind, self.coordinate)

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"ring has no variable {name!r}") from None

    def delta_slice(self) -> slice:
        return slice(3, 3 + self.n)

    def zero_exponents(self) -> Exponents:
        return (0,) * self.nvars

    def monomial_degree(self, exps: Exponents) -> int:
        degs = self.degrees
        return sum(e * d for e, d in zip(exps, degs))

    def sort_key(self, exps: Exponents) -> Tuple[int, ...]:
        # lexicographic priority (omega-or-alpha, delta_1..delta_n, beta, gamma)
        return (exps[0],) + tuple(exps[3:3 + self.n]) + (exps[1], exps[2])


def ring(n: int, coeff_kind: str = RATIONAL, coordinate: str = ALPHA) -> RingDescriptor:
    return RingDescriptor(n, coeff_kind, coordinate)


class Poly:
    """Sparse polynomial over a :class:`RingDescriptor`."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: RingDescriptor, terms: Mapping[Exponents, object],
                 _normalized: bool = False):
        # _normalized: ``terms`` is a fresh dict already in the term format; it
        # is taken over, not copied
        self.ring = ring
        self.terms = terms if _normalized else _summed(self._checked(terms.items()))

    def _checked(self, pairs):
        """The pairs with exponents validated and coefficients coerced to the
        ring's kind."""
        nv = self.ring.nvars
        for exps, coeff in pairs:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nv:
                raise ValueError(f"expected {nv} exponents, got {len(exps)}")
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            yield exps, self._coerce_scalar(coeff)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_terms(cls, ring: RingDescriptor,
                   pairs: Iterable[Tuple[Exponents, object]]) -> "Poly":
        """The sum of ``(exponents, coefficient)`` pairs, for trusted input:
        exponent tuples of the ring's length and nonnegative, and coefficients
        of the ring's kind.  Pairs may repeat an exponent tuple or carry a zero
        coefficient."""
        return cls(ring, _summed(pairs), _normalized=True)

    @classmethod
    def zero(cls, ring: RingDescriptor) -> "Poly":
        return cls(ring, {}, _normalized=True)

    @classmethod
    def constant(cls, ring: RingDescriptor, c) -> "Poly":
        return cls(ring, {ring.zero_exponents(): c})

    @classmethod
    def variable(cls, ring: RingDescriptor, name: str) -> "Poly":
        idx = ring.var_index(name)
        exps = [0] * ring.nvars
        exps[idx] = 1
        return cls(ring, {tuple(exps): 1})

    @classmethod
    def monomial(cls, ring: RingDescriptor, exps: Exponents, coeff=1) -> "Poly":
        return cls(ring, {tuple(exps): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        mdeg = self.ring.monomial_degree
        return max(mdeg(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        mdeg = self.ring.monomial_degree
        degs = {mdeg(e) for e in self.terms}
        return len(degs) == 1

    def homogeneous_component(self, d: int) -> "Poly":
        mdeg = self.ring.monomial_degree
        return Poly(self.ring, {e: c for e, c in self.terms.items() if mdeg(e) == d},
                    _normalized=True)

    def leading_order(self) -> "Poly":
        """Top-degree homogeneous component; errors on zero input."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return self.homogeneous_component(self.degree())

    # -- arithmetic ---------------------------------------------------------

    def _coerce_scalar(self, c):
        return LaurentU.coerce(c) if self.ring.coeff_kind == LAURENT_U else _fr(c)

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return self + Poly.constant(self.ring, other)
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if not other.terms:
            return self
        if not self.terms:
            return other
        return Poly(self.ring, _summed(other.terms.items(), dict(self.terms)), _normalized=True)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.ring, {e: -c for e, c in self.terms.items()}, _normalized=True)

    def __sub__(self, other) -> "Poly":
        if isinstance(other, Poly):
            return self + (-other)
        return self + (-self._coerce_scalar(other))

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            c = self._coerce_scalar(other)
            if not c:
                return Poly.zero(self.ring)
            return Poly(self.ring, {e: v * c for e, v in self.terms.items()},
                        _normalized=True)
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        if not self.terms:
            return self
        if not other.terms:
            return other
        if len(self.terms) == 1 or len(other.terms) == 1:
            many, one = (self, other) if len(other.terms) == 1 else (other, self)
            (e1, c1), = one.terms.items()
            return many.times_monomial(e1, c1)
        den1, left = _numerators(self.ring, self.terms)
        den2, right = _numerators(self.ring, other.terms)
        pairs = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in left for e2, c2 in right)
        return Poly(self.ring, _over(den1 and den1 * den2, _summed(pairs)), _normalized=True)

    __rmul__ = __mul__

    def times_monomial(self, exps: Exponents, coeff=None) -> "Poly":
        """``self * Poly.monomial(self.ring, exps)``, times ``coeff`` if given
        (nonzero), as an exponent shift and one multiply per term.  The shift
        is injective, so no two terms meet."""
        return Poly(self.ring, {tuple(map(add, e, exps)): c if coeff is None else c * coeff
                                for e, c in self.terms.items()}, _normalized=True)

    def __truediv__(self, scalar) -> "Poly":
        return self * (Fraction(1) / _fr(scalar))

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = Poly.constant(self.ring, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.ring, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms)))

    # -- structure maps -----------------------------------------------------

    def change_coordinates(self, target_coordinate: str) -> "Poly":
        """Rewrite between alpha- and omega-coordinates: omega = alpha + (sum delta_i)/2."""
        if target_coordinate not in (ALPHA, OMEGA):
            raise ValueError(f"unknown coordinate {target_coordinate!r}")
        if self.ring.coordinate == target_coordinate:
            return self
        new_ring = self.ring.with_coordinate(target_coordinate)
        shift = Fraction(1, 2) if target_coordinate == ALPHA else Fraction(-1, 2)
        # alpha = omega - sum/2 ; omega = alpha + sum/2
        image = Poly.variable(new_ring, target_coordinate) \
            + _delta_sum(new_ring, range(1, new_ring.n + 1)) * shift
        return _first_substituted(new_ring, image, self.terms)

    def flip(self, indices: Iterable[int]) -> "Poly":
        """Flip symmetry tau_I: fixes omega, beta, gamma and negates delta_i for i in I.

        As omega = alpha + S/2 (S the sum of the deltas) is fixed and tau_I sends
        S to S - 2 S_I, in alpha-coordinates it also sends alpha to alpha + S_I.
        """
        idx = set(indices)
        for i in idx:
            if not 1 <= i <= self.ring.n:
                raise ValueError(f"flip index {i} outside 1..{self.ring.n}")
        if not idx:
            return self
        cols = [2 + i for i in idx]  # delta_i exponent position
        signed = {e: -c if sum(e[j] for j in cols) % 2 else c for e, c in self.terms.items()}
        if self.ring.coordinate == OMEGA:
            return Poly(self.ring, signed, _normalized=True)
        image = Poly.variable(self.ring, ALPHA) + _delta_sum(self.ring, idx)
        return _first_substituted(self.ring, image, signed)

    def pi_reduce(self) -> "Poly":
        """Point-reduction homomorphism dropping the last two marked points.

        Fixes the first variable, beta, gamma and delta_1..delta_{n-2}; sends
        the last two deltas to -delta_{n-2} and delta_{n-2} respectively.
        """
        n = self.ring.n
        if n < 3:
            raise ValueError("pi_reduce needs at least 3 delta variables")
        new_ring = self.ring.with_n(n - 2)

        def pairs():
            for exps, coeff in self.terms.items():
                d_last, d_mid, d_keep = exps[2 + n], exps[1 + n], exps[n]
                head = exps[:n]  # first var, beta, gamma, delta_1..delta_{n-3}
                yield head + (d_keep + d_mid + d_last,), -coeff if d_mid % 2 else coeff

        return Poly.from_terms(new_ring, pairs())

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, point: Mapping[str, Scalar], u_value: Optional[Scalar] = None):
        """Evaluate at a rational point given by variable name; exact result.

        For Laurent coefficients the result stays a LaurentU unless ``u_value``
        is supplied.
        """
        vals = []
        for name in self.ring.var_names:
            if name not in point:
                raise KeyError(f"missing value for {name}")
            vals.append(_fr(point[name]))
        laurent = self.ring.coeff_kind == LAURENT_U
        total = LaurentU() if laurent else Fraction(0)
        for exps, coeff in self.terms.items():
            f = Fraction(1)
            for e, v in zip(exps, vals):
                if e:
                    f *= v ** e
            total = total + coeff * f
        if laurent and u_value is not None:
            return total.evaluate(u_value)
        return total

    def evaluate_alpha_point(self, alpha: Scalar, beta: Scalar, gamma: Scalar,
                             deltas: Sequence[Scalar], u_value: Optional[Scalar] = None):
        """Evaluate at a point given in (alpha, beta, gamma, delta_*) coordinates."""
        if len(deltas) != self.ring.n:
            raise ValueError("wrong number of delta values")
        point = {"beta": beta, "gamma": gamma}
        for i, d in enumerate(deltas, start=1):
            point[f"delta{i}"] = d
        if self.ring.coordinate == ALPHA:
            point["alpha"] = alpha
        else:
            point["omega"] = _fr(alpha) + sum(map(_fr, deltas), Fraction(0)) / 2
        return self.evaluate(point, u_value=u_value)

    # -- presentation ---------------------------------------------------------

    def sorted_terms(self) -> List[Tuple[Exponents, object]]:
        key = self.ring.sort_key
        return sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)

    def _format_monomial(self, exps: Exponents) -> str:
        parts = []
        for name, e in zip(self.ring.var_names, exps):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append(f"{name}^{e}")
        return "*".join(parts)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps, coeff in self.sorted_terms():
            mono = self._format_monomial(exps)
            cs = str(coeff)
            if mono:
                chunks.append(mono if cs == "1" else (f"-{mono}" if cs == "-1" else f"{cs}*{mono}"))
            else:
                chunks.append(cs)
        text = " + ".join(chunks)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"Poly({self})"

    # -- JSON -----------------------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for exps, coeff in self.sorted_terms():
            cj = coeff.to_json() if isinstance(coeff, LaurentU) else str(coeff)
            terms.append({"coeff": cj, "exps": list(exps)})
        return {"vars": list(self.ring.var_names), "terms": terms}


# -- helpers -------------------------------------------------------------------


def _delta_sum(ring: RingDescriptor, indices: Iterable[int]) -> Poly:
    """The sum of delta_i over i in ``indices``."""
    return Poly(ring, {tuple(int(j == 2 + i) for j in range(ring.nvars)): 1 for i in indices})


def _numerators(ring: RingDescriptor, terms: Mapping[Exponents, object],
                den: Optional[int] = None):
    """``(den, pairs)``: over a rational ring, the terms as a list of pairs whose
    coefficients are integer numerators over ``den`` (by default the least
    common denominator), so that products and sums of them run on ints (Knuth,
    TAOCP Vol. 2, 4.5.1); over a Laurent ring, the terms as they are and
    ``den`` None."""
    if ring.coeff_kind == LAURENT_U:
        return None, terms.items()
    if den is None:
        den = lcm(*[c.denominator for c in terms.values()])
    if den == 1:
        return 1, [(e, c.numerator) for e, c in terms.items()]
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


def _over(den: Optional[int], numerators: dict) -> dict:
    """Terms with integer numerators over ``den`` as Fractions, one division per
    term (the terms as they are when ``den`` is None)."""
    if den is None:
        return numerators
    if den == 1:
        return {e: Fraction(n) for e, n in numerators.items()}
    return {e: Fraction(n, den) for e, n in numerators.items()}


def _first_substituted(ring: RingDescriptor, image: Poly,
                       terms: Mapping[Exponents, object]) -> Poly:
    """The sum of the terms with their first variable replaced by ``image``, a
    polynomial over ``ring``: the powers of ``image`` shifted by the other
    exponents, all on numerators over one denominator."""
    den, pairs = _numerators(ring, terms)
    powers = [Poly.constant(ring, 1)]  # image^k
    for _ in range(max((e[0] for e in terms), default=0)):
        powers.append(powers[-1] * image)
    top = 1 if den is None else lcm(*[c.denominator for p in powers for c in p.terms.values()])
    cleared = [_numerators(ring, p.terms, top)[1] for p in powers]

    def shifted():
        for exps, coeff in pairs:
            a = exps[0]
            if not a:
                yield exps, coeff if top == 1 else coeff * top
                continue
            rest = (0,) + exps[1:]
            for e, c in cleared[a]:
                yield tuple(map(add, e, rest)), c * coeff

    return Poly(ring, _over(den and den * top, _summed(shifted())), _normalized=True)


def monomials_of_degree(ring: RingDescriptor, d: int) -> List[Exponents]:
    """All exponent tuples of total degree d, sorted by the display order (descending)."""
    if d < 0:
        return []
    degs = ring.degrees
    nv = ring.nvars
    out: List[Exponents] = []

    def rec(i: int, remaining: int, acc: List[int]):
        if i == nv:
            if remaining == 0:
                out.append(tuple(acc))
            return
        w = degs[i]
        for e in range(remaining // w + 1):
            acc.append(e)
            rec(i + 1, remaining - e * w, acc)
            acc.pop()

    rec(0, d, [])
    out.sort(key=ring.sort_key, reverse=True)
    return out
