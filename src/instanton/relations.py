"""The named relation families: xi, rho (two routes), the two leading terms W,
r_g (plain and Laurent), and the labeled generator sets for the ideals.

xi is computed only through its three-term recursion.  rho_proj runs the same
recursion on the delta-symmetric coordinates of xi-bar in R-bar_n, so it never
reduces xi.  rho_series reads rho off its generating series F instead: the
series is written with s = sqrt(-beta), but its log-derivative F'/F is an
explicit series over Q[omega, beta] with one monomial per power of t, so
F' = (F'/F) F is one coefficient recurrence and no radical appears.  The two
routes agree up to omega <-> -omega, and acceptance check A6 pins which of the
two conventions holds.  The gamma^g cofactors over (r_g, r_{g+1}, r_{g+2}) come
from the same r_g step, run as a three-term window.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from math import factorial
from typing import Dict, Iterable, List, Optional, Tuple

from .poly import (ALPHA, LAURENT_U, OMEGA, RATIONAL, LaurentU, Poly,
                   RingDescriptor, _summed, ring)
from .quotient import canonical_rep, rbar_spec
from .series import COEFF_RING, binomial_coeff

# xi lives in alpha, beta, gamma only; we store raw exponent dicts keyed (a, b, c)
_xi_cache: Dict[Tuple[int, int], Dict[Tuple[int, int, int], Fraction]] = {}


def _xi_raw(k: int, n: int) -> Dict[Tuple[int, int, int], Fraction]:
    if k < 0:
        raise ValueError("xi needs k >= 0")
    if n % 2 == 0:
        raise ValueError("n must be odd")
    key = (k, n)
    if key in _xi_cache:
        return _xi_cache[key]
    m = (n - 1) // 2
    table: List[Dict[Tuple[int, int, int], Fraction]] = [
        {(0, 0, 0): Fraction(1)},
        {(1, 0, 0): Fraction(1)},
    ]
    # (j+1) xi_{j+1} = alpha xi_j + (m-j) beta xi_{j-1} - (gamma/2) xi_{j-2}
    for j in range(1, k):
        inv = Fraction(1, j + 1)
        f = Fraction(m - j, j + 1)
        half = Fraction(1, 2 * (j + 1))
        pairs = [((a + 1, b, c), co * inv) for (a, b, c), co in table[j].items()]
        pairs += [((a, b + 1, c), co * f) for (a, b, c), co in table[j - 1].items()]
        if j >= 2:
            pairs += [((a, b, c + 1), -co * half) for (a, b, c), co in table[j - 2].items()]
        table.append(_summed(pairs))
    _xi_cache[key] = table[k]
    return table[k]


def xi(k: int, n: int, target: Optional[RingDescriptor] = None) -> Poly:
    """Mumford relation xi_{k,n}: homogeneous of degree 2k in alpha, beta, gamma.

    ``n`` may be any odd integer, negative included.  The result is materialized
    in ``target`` (alpha-coordinates by default, with n delta-variables when
    n >= 1, else one).
    """
    raw = _xi_raw(k, n)
    if target is None:
        target = ring(max(n, 1), coordinate=ALPHA)
    pad = (0,) * (target.nvars - 3)
    return Poly.from_terms(target, ((abc + pad, co) for abc, co in raw.items()))


# -- rho: projection route (ground truth: the xi recursion in R-bar_n) -----------

_rho_proj_cache: Dict[Tuple[int, int], Dict[int, Poly]] = {}


def _rho_proj_all(k: int, n: int) -> Dict[int, Poly]:
    """All rho_{k,n,s} at once, from the decomposition of xi-bar_{k,n} in R-bar_n.

    xi_{k,n} involves the deltas only through alpha = omega - e_1/2 (e_s the
    elementary symmetric polynomials in delta_1..delta_n), so its image xi-bar
    in R-bar_n (gamma = 0, delta_i^2 = -beta) is delta-symmetric:
    xi-bar = sum_s a_s(omega, beta) e_s, and rho_{k,n,s} = 2^{m+1} a_s.  The
    three-term recursion of xi runs directly on (a_0, ..., a_n): gamma dies, and
    alpha acts through e_1 e_s = (s+1) e_{s+1} - (n-s+1) beta e_{s-1} (a delta_i
    outside a support extends it, (s+1) ways; one inside squares to -beta and
    leaves a support of size s-1, reached from n-s+1 places), so 2 alpha sends a
    to 2 omega a_s - s a_{s-1} + (n-s) beta a_{s+1}.
    """
    key = (k, n)
    if key in _rho_proj_cache:
        return _rho_proj_cache[key]
    if n < 1:
        raise ValueError("projection route needs n >= 1")
    if k < 0:
        raise ValueError("xi needs k >= 0")
    if n % 2 == 0:
        raise ValueError("n must be odd")
    m = (n - 1) // 2
    # X_j = 2^j j! xi_j has integer coordinates: X_{j+1} = 2 alpha X_j + 4j(m-j) beta X_{j-1}
    prev: List[dict] = [{}] * (n + 1)
    cur: List[dict] = [{(0, 0, 0, 0): 1}] + [{}] * n
    for j in range(k):
        nxt = []
        for s in range(n + 1):
            pairs = [((a + 1, b, 0, 0), 2 * co) for (a, b, _, _), co in cur[s].items()]
            pairs += [((a, b + 1, 0, 0), 4 * j * (m - j) * co)
                      for (a, b, _, _), co in prev[s].items()]
            if s:
                pairs += [(e, -s * co) for e, co in cur[s - 1].items()]
            if s < n:
                pairs += [((a, b + 1, 0, 0), (n - s) * co)
                          for (a, b, _, _), co in cur[s + 1].items()]
            nxt.append(_summed(pairs))
        prev, cur = cur, nxt
    scale = Fraction(2 ** (m + 1), 2 ** k * factorial(k))
    out = {s: Poly.from_terms(COEFF_RING, ((e, co * scale) for e, co in a_s.items()))
           for s, a_s in enumerate(cur)}
    _rho_proj_cache[key] = out
    return out


def rho_proj(k: int, n: int, s: int) -> Poly:
    """rho_{k,n,s} from the projection of xi-bar_{k,n}; a polynomial in omega, beta.

    It is 2^{m+1} times the coefficient a_s of e_s in xi-bar = sum_s a_s e_s,
    from the xi recursion on those coordinates (see ``_rho_proj_all``), which
    checks k and n for every s; zero for s > k, since xi-bar has degree 2k."""
    if s < 0 or s > n:
        raise ValueError(f"s must be in 0..{n}")
    return _rho_proj_all(k, n)[s]


# -- rho: series route (cross-check; sign pinned by the acceptance suite) --------


def rho_series(k: int, r: int) -> Poly:
    """rho_{k,r} as the t^k coefficient of the defining series.

    r is an odd integer (negative allowed).  With s = sqrt(-beta) the series is
    (1+beta t^2)^{-3/4} ((1-ts)/(1+ts))^{omega/(2s)} ((1-ts)^{1/2} + (1+ts)^{1/2})
    2^{(r-1)/2} h^{(r-1)/2}, h = (1+q)/2, q = (1+beta t^2)^{1/2}.  Both factors
    that hold s are even in s: the second is exp(E), E = -omega sum_j (-beta)^j
    t^{2j+1}/(2j+1) (artanh, s^{2j} = (-beta)^j), and the third squares to
    2 + 2q = 4h with constant term 2, so it is 2 h^{1/2}.  The series is
    F = 2^{(r+1)/2} (1+beta t^2)^{-3/4} exp(E) h^{r/2}, and its log-derivative
    is explicit: h'/h = (1 - q^{-1})/t, because (1+q)(q-1) = beta t^2, so
    G = F'/F = -(omega + (3/2) beta t)/(1+beta t^2) + (r/2)(1 - q^{-1})/t, with
    g_{2j} = -omega (-beta)^j and
    g_{2j+1} = ((-1)^{j+1} 3/2 - (r/2) C(-1/2, j+1)) beta^{j+1}.  Each is one
    monomial, and none is zero for odd r, since 3 4^i / C(2i, i) is never an
    odd integer.  F' = G F gives F_0 = 2^{(r+1)/2} and
    n F_n = sum_{j=1..n} g_{j-1} F_{n-j}.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if r % 2 == 0:
        raise ValueError("r must be odd")
    g = []
    for i in range(k):
        j = i // 2
        if i % 2:
            c = (-1) ** (j + 1) * Fraction(3, 2) \
                - Fraction(r, 2) * binomial_coeff(Fraction(-1, 2), j + 1)
            g.append(Poly.monomial(COEFF_RING, (0, j + 1, 0, 0), c))
        else:
            g.append(Poly.monomial(COEFF_RING, (1, j, 0, 0), (-1) ** (j + 1)))
    f = [Poly.constant(COEFF_RING, Fraction(2) ** ((r + 1) // 2))]
    for n in range(1, k + 1):
        f.append(Poly.from_terms(COEFF_RING, (t for j in range(1, n + 1)
                                              for t in (g[j - 1] * f[n - j]).terms.items()))
                 * Fraction(1, n))
    return f[k]


# -- generator sets ---------------------------------------------------------------


def _checked(gens: Sequence[Tuple[str, Poly]]) -> List[Tuple[str, Poly]]:
    """The named generators as a list, refusing a repeated name or a zero."""
    gens = list(gens)
    names = [name for name, _ in gens]
    if len(set(names)) != len(names):
        raise ValueError("generator names must be unique")
    for name, p in gens:
        if p.is_zero():
            raise ValueError(f"generator {name} is zero")
    return gens


class GeneratorSet:
    """A labeled ideal presentation: named generators over an ambient ring.

    ``flip_reps`` marks a set closed under the even flips tau_I: the indices in
    ``gens`` of one generator per orbit, so that every generator is +- an even
    flip of a representative and every such flip is +- a generator.  It is set
    only by ``of_orbits``; ``None`` means no closure is known.  It is not
    serialized, and a set built from another set's generators starts unmarked.
    """

    def __init__(self, label: str, ambient: RingDescriptor, gens: Sequence[Tuple[str, Poly]],
                 meta: Optional[Dict[str, object]] = None):
        self.label, self.ambient = label, ambient
        self.meta = {} if meta is None else meta
        self.flip_reps: Optional[Tuple[int, ...]] = None
        self._orbits: List[Sequence[Tuple[str, Poly]]] = []
        self._gens: Optional[List[Tuple[str, Poly]]] = _checked(gens)

    @property
    def gens(self) -> List[Tuple[str, Poly]]:
        """The named generators in order; a marked set reads the members of its
        orbits here, the first time."""
        if self._gens is None:
            self._gens = _checked([gen for orbit in self._orbits for gen in orbit])
        return self._gens

    @classmethod
    def of_orbits(cls, label: str, ambient: RingDescriptor,
                  orbits: List[Sequence[Tuple[str, Poly]]], meta: Dict[str, object]) -> "GeneratorSet":
        """The generators of ``orbits`` in order, marked with each orbit's first
        member as its representative.  Each orbit must be a whole even-flip
        orbit up to sign: an even orbit from ``flip_orbit``, an odd one (the
        even flips act transitively on it), or one flip-invariant generator.
        Only the representatives are read here; the other members are read
        when ``gens`` first is, so an orbit from ``flip_orbit`` builds them
        then, and ``representatives()`` never does."""
        gs = cls(label, ambient, [orbit[0] for orbit in orbits], meta)
        reps, start = [], 0
        for orbit in orbits:
            reps.append(start)
            start += len(orbit)
        gs.flip_reps, gs._orbits, gs._gens = tuple(reps), orbits, None
        return gs

    def representatives(self) -> "GeneratorSet":
        """The orbit representatives of a marked set, as an unmarked set; an
        unmarked set is its own."""
        if self.flip_reps is None:
            return self
        return GeneratorSet(self.label, self.ambient, [orbit[0] for orbit in self._orbits],
                            self.meta)

    def names(self) -> List[str]:
        return [name for name, _ in self.gens]

    def __len__(self) -> int:
        return len(self.gens)

    def to_json(self) -> dict:
        doc = {
            "label": self.label,
            "g": self.meta.get("g"),
            "n": self.ambient.n,
            "sign": self.meta.get("sign"),
            "local": bool(self.meta.get("local", False)),
            "gens": [{"name": name, "poly": p.to_json()} for name, p in self.gens],
        }
        return doc


class EtaChoice:
    """A marked-point subset with the degree-parity constraint |eta| odd iff m even."""

    __slots__ = ("eta", "n")

    def __init__(self, eta: Iterable[int], n: int):
        self.eta = frozenset(eta)
        self.n = n
        m = (n - 1) // 2
        if any(not 1 <= i <= n for i in self.eta):
            raise ValueError("eta indices outside 1..n")
        if (len(self.eta) % 2 == 1) != (m % 2 == 0):
            raise ValueError("eta parity invalid: |eta| must be odd exactly when m is even")

    @property
    def complement(self) -> frozenset:
        return frozenset(range(1, self.n + 1)) - self.eta


def w_skeleton(g: int, n: int, eta: EtaChoice, eps: int) -> Poly:
    """W(g, n, eta, eps) = w0 + (-1)^{g+m} eps w1 in omega-coordinates, the two
    leading terms of the relations: w0 = tau_eta(xi_{g+m,n}) and
    w1 = tau_eta'(xi_{g+m-1,n-2}), eta' the complement of eta.  ``eps`` is the
    sign +1 or -1."""
    if eps not in (1, -1):
        raise ValueError(f"eps must be +1 or -1, got {eps!r}")
    m = (n - 1) // 2
    w0 = xi(g + m, n).change_coordinates(OMEGA).flip(eta.eta)
    w1 = xi(g + m - 1, n - 2, target=ring(n, coordinate=ALPHA)).change_coordinates(OMEGA)
    return w0 + w1.flip(eta.complement) * (eps * (-1) ** (g + m))


def flip_subsets(n: int, even: bool) -> List[Tuple[int, ...]]:
    """The subsets I of {1..n} of even (or odd) size, by size, then
    lexicographically: the index sets of the flips tau_I."""
    out = []
    for size in range(0, n + 1):
        if (size % 2 == 0) != even:
            continue
        out.extend(combinations(range(1, n + 1), size))
    return out


class _FlipOrbit(Sequence):
    """The named images tau_I(p), I over ``flip_subsets(n, even)``, each built
    the first time it is read."""

    def __init__(self, p: Poly, label: str, n: int, even: bool):
        self._p, self._label = p, label
        self._subsets = flip_subsets(n, even)
        self._images: List[Optional[Tuple[str, Poly]]] = [None] * len(self._subsets)

    def __len__(self) -> int:
        return len(self._subsets)

    def __getitem__(self, k: int) -> Tuple[str, Poly]:
        if self._images[k] is None:
            I = self._subsets[k]
            self._images[k] = (f"tau_{{{','.join(map(str, I))}}}({self._label})", self._p.flip(I))
        return self._images[k]

    def __eq__(self, other) -> bool:
        return isinstance(other, Sequence) and list(self) == list(other)


def flip_orbit(p: Poly, label: str, n: int, even: bool = True) -> Sequence[Tuple[str, Poly]]:
    """The named images tau_I(p), I over ``flip_subsets(n, even)``, as a
    sequence that builds each image the first time it is read."""
    return _FlipOrbit(p, label, n, even)


def igen(g: int, n: int, parity: str) -> GeneratorSet:
    """Generators of the graded ideal: delta_i^2 + beta, gamma^{g+1}, and the
    even (or odd, by parity) flip symmetries of xi_{g+m}, xi_{g+m+1}, xi_{g+m+2}.

    ``parity`` is the parity of the line-bundle degree d ('even' or 'odd'); the
    flips are even when d + m is odd and odd otherwise.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd'")
    m = (n - 1) // 2
    d_odd = parity == "odd"
    use_even_flips = (int(d_odd) + m) % 2 == 1
    rng = ring(n, coordinate=ALPHA)
    beta = Poly.variable(rng, "beta")
    # delta_i^2 + beta and gamma^{g+1} are flip-invariant: each is its own orbit
    orbits = []
    for i in range(1, n + 1):
        di = Poly.variable(rng, f"delta{i}")
        orbits.append([(f"delta{i}^2+beta", di * di + beta)])
    orbits.append([(f"gamma^{g + 1}", Poly.variable(rng, "gamma") ** (g + 1))])
    orbits += [flip_orbit(xi(k, n, target=rng), f"xi_{{{k},{n}}}", n, use_even_flips)
               for k in range(g + m, g + m + 3)]
    return GeneratorSet.of_orbits(f"I_{{{g},{n}}}^{parity}", rng, orbits,
                                  {"g": g, "n": n, "parity": parity})


def kprime_gen(g: int, n: int) -> GeneratorSet:
    """Reduced generators of K'_{g,n}: even flips of xi-bar_{g+m} and xi-bar_{g+m+1},
    canonical in R-bar_n (``rbar_spec()``), the ring their ideal lives in."""
    if g < 0:
        raise ValueError("g must be >= 0")
    m = (n - 1) // 2
    orbits = [flip_orbit(canonical_rep(xi(k, n), rbar_spec()), f"xibar_{{{k},{n}}}", n)
              for k in (g + m, g + m + 1)]
    return GeneratorSet.of_orbits(f"K'_{{{g},{n}}}", ring(n, coordinate=OMEGA), orbits,
                                  {"g": g, "n": n})


# -- the one-point recursion -------------------------------------------------------

_r_cache: Dict[Tuple[int, bool], Poly] = {}


def _n1_ring(local: bool) -> RingDescriptor:
    return ring(1, coeff_kind=LAURENT_U if local else RATIONAL, coordinate=OMEGA)


def _u_inv(rng: RingDescriptor, power: int = 1):
    return LaurentU.u_power(-power) if rng.coeff_kind == LAURENT_U else Fraction(1)


def _r_step(rng: RingDescriptor, h: int) -> Tuple[Poly, Poly]:
    """The multipliers (lin, mid) of the recursion step
    h r_h = lin r_{h-1} + mid r_{h-2} - (gamma/2) r_{h-3}."""
    sign = (-1) ** h
    u1 = _u_inv(rng, 1)
    d = Poly.variable(rng, "delta1")
    lin = Poly.variable(rng, "omega") + d * Fraction(1, 2) \
        + Poly.constant(rng, u1 * (sign * (2 * h - 1)))
    mid = (Poly.variable(rng, "beta") + d * (u1 * (2 * sign))
           - Poly.constant(rng, _u_inv(rng, 2) * 2)) * (1 - h)
    return lin, mid


def r_poly(g: int, local: bool = False) -> Poly:
    """The recursion family r_g in omega, beta, gamma, delta (one point):
    r_0 = 1, r_h = 0 for h < 0, and the step of ``_r_step``.

    With ``local`` the coefficients live in Laurent polynomials in u and the
    bases carry u^{-1} factors; at u = 1 the plain family is recovered.
    """
    if g < 0:
        raise ValueError("g must be >= 0")
    key = (g, local)
    if key in _r_cache:
        return _r_cache[key]
    rng = _n1_ring(local)
    half_c = Poly.variable(rng, "gamma") * Fraction(1, 2)
    # r_{-2}, r_{-1}, r_0; the step runs only past the memoized r_h
    table = [Poly.zero(rng), Poly.zero(rng), _r_cache.setdefault((0, local), Poly.constant(rng, 1))]
    for h in range(1, g + 1):
        if (h, local) not in _r_cache:
            lin, mid = _r_step(rng, h)
            _r_cache[h, local] = (lin * table[-1] + mid * table[-2] - half_c * table[-3]) \
                * Fraction(1, h)
        table.append(_r_cache[h, local])
    return table[-1]


def specialize_u(f: Poly, u_value: Fraction) -> Poly:
    """Evaluate Laurent coefficients at a nonzero rational u."""
    if f.ring.coeff_kind != LAURENT_U:
        return f
    rng = RingDescriptor(f.ring.n, RATIONAL, f.ring.coordinate)
    return Poly.from_terms(rng, ((e, c.evaluate(u_value)) for e, c in f.terms.items()))


def phi_negate(f: Poly) -> Poly:
    """The sign automorphism (alpha,beta,gamma,delta_*) -> (-alpha,beta,-gamma,-delta_*).

    In omega-coordinates it negates omega, gamma and every delta the same way,
    so one exponent-sign rule covers both coordinates.
    """
    ds = f.ring.delta_slice()
    return Poly.from_terms(f.ring, ((e, -c if (e[0] + e[2] + sum(e[ds])) % 2 else c)
                                    for e, c in f.terms.items()))


def jgen_n1(g: int, sign: str = "+", local: bool = False) -> GeneratorSet:
    """The four-generator presentation (r_g, r_{g+1}, r_{g+2}, delta^2+beta-c)."""
    if g < 0:
        raise ValueError("g must be >= 0")
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    rng = _n1_ring(local)
    d = Poly.variable(rng, "delta1")
    b = Poly.variable(rng, "beta")
    if local:
        csq = Poly.constant(rng, LaurentU({2: 1, -2: 1}))
        rel_name = "delta^2+beta-u^2-u^-2"
    else:
        csq = Poly.constant(rng, 2)
        rel_name = "delta^2+beta-2"
    gens = [(f"r_{g + j}", r_poly(g + j, local)) for j in range(3)]
    gens.append((rel_name, d * d + b - csq))
    if sign == "-":
        gens = [(name, phi_negate(p)) for name, p in gens]
    return GeneratorSet(
        label=f"J_{{{g},1}}^{sign}{'(u)' if local else ''}", ambient=rng, gens=gens,
        meta={"g": g, "n": 1, "sign": sign, "local": local},
    )


def gamma_cofactors(g: int, sign: str = "+", local: bool = False) -> Dict[int, Poly]:
    """Explicit cofactors {i: a_i} with gamma^g = sum_i a_i * r_{g+i}, i in {0,1,2}.

    A window (c0, c1, c2) with gamma^j = c0 r_j + c1 r_{j+1} + c2 r_{j+2} starts
    at gamma^0 = r_0 and is multiplied by gamma g times.  Only gamma r_j leaves
    the window; the step of ``_r_step`` at h = j + 3 rewrites it as
    2 (lin r_{j+2} + mid r_{j+1} - (j+3) r_{j+3}), and gamma stays in the
    cofactors of r_{j+1} and r_{j+2}.  The identity is exact in the polynomial
    ring; ``floer.gamma_power_witness`` re-checks it.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    rng = _n1_ring(local)
    gamma_var = Poly.variable(rng, "gamma")
    c0, c1, c2 = Poly.constant(rng, 1), Poly.zero(rng), Poly.zero(rng)
    for j in range(g):
        lin, mid = _r_step(rng, j + 3)
        c0, c1, c2 = (gamma_var * c1 + mid * c0 * 2, gamma_var * c2 + lin * c0 * 2,
                      c0 * (-2 * (j + 3)))
    out = {0: c0, 1: c1, 2: c2}
    if sign == "-":
        out = {i: phi_negate(p) * ((-1) ** g) for i, p in out.items()}
    return out
