"""The engine: graded Hilbert computations, filtered quotient models for the
inhomogeneous ideals, multiplication operators with eigen verification, ideal
membership with explicit gamma-power witnesses, and the sub-leading solver for
three marked points.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Callable, Dict, List, Optional, Set, Tuple

from . import linalg
from .linalg import Matrix, subspace_intersection
from .poly import (ALPHA, OMEGA, RATIONAL, Exponents, Poly,
                   monomials_of_degree, ring)
from .quotient import (QuotientSpec, canonical_monomials, canonical_rep,
                       model_spec, rbar_spec)
from .relations import (GeneratorSet, flip_orbit, flip_subsets, gamma_cofactors,
                        igen, jgen_n1, kprime_gen, specialize_u, xi)
from .series import RationalFn, expand_rational_fn, poly_add, poly_mul, poly_pow, poly_scale, poly_shift


class VerificationError(ValueError):
    """A computed result contradicts the formula or construction it is checked
    against (as opposed to a bad input)."""


# -- Poincare formula library ----------------------------------------------------


def ptgn_series(g: int, n: int) -> RationalFn:
    """P_t(g,n): the graded dimensions of the quotient by the graded ideal."""
    one_t2 = [1, 0, 1]
    num = poly_mul(poly_pow(one_t2, n - 1), poly_add([1], poly_scale(poly_shift([1], 6 * g + 6), -1)))
    tail = poly_mul(poly_pow([0, 2], n - 1), poly_shift([1], 2 * g))
    tail = poly_mul(tail, poly_add([1], poly_scale(poly_shift([1], 2 * g + 2), -1)))
    tail = poly_mul(tail, [1, 0, 1, 0, 1])
    num = poly_add(num, poly_scale(tail, -1))
    return RationalFn(num, [2, 2, 6])


def total_series(g: int, n: int) -> RationalFn:
    """Poincare series of the full cohomology (all exterior factors)."""
    num = poly_mul(poly_pow([1, 0, 1], n - 1), poly_pow([1, 0, 0, 1], 2 * g))
    tail = poly_mul(poly_pow([0, 2], n - 1), poly_shift(poly_pow([1, 1], 2 * g), 2 * g))
    num = poly_add(num, poly_scale(tail, -1))
    return RationalFn(num, [2, 2])


def k_series(g: int, n: int) -> RationalFn:
    """Poincare series of the gamma-killed ideal K_{g,n}."""
    m = (n - 1) // 2
    num = poly_shift(poly_add([2 ** (n - 1), 0, 2 ** (n - 1)],
                              poly_scale(poly_shift([2 ** (n - 1)], 2 + 2 * g), -1)),
                     2 * (g + m))
    return RationalFn(num, [2, 2])


# -- graded ideal dimensions -------------------------------------------------------


def _ideal_pieces(gens: GeneratorSet, spec: Optional[QuotientSpec]):
    """A function taking a degree d to the degree-d monomial basis and a lazy
    iterator of sparse rows ``{basis index: coefficient}`` spanning the ideal
    piece, one per (generator index, cofactor monomial) in that order.  A row's
    product is formed only when the row is taken, and each generator is brought
    to canonical form inside ``spec`` once, when a row of any degree first
    needs it; a generator that reduces to zero gives no rows."""
    if spec is None:
        rng = gens.ambient

        def monomials(d):
            return monomials_of_degree(rng, d)

        def reduce(p):
            return p
    else:
        rng = gens.ambient.with_coordinate(OMEGA)

        def monomials(d):
            return canonical_monomials(rng, spec, d)

        def reduce(p):
            return canonical_rep(p, spec)
    reduced: List[Poly] = []  # the generators' reduced forms, in order, as far as used

    def generators():
        for k, (_name, gp) in enumerate(gens.gens):
            if k == len(reduced):
                reduced.append(reduce(gp))
            if not reduced[k].is_zero():
                yield reduced[k]

    def piece(degree: int):
        basis = monomials(degree)
        index = {m: i for i, m in enumerate(basis)}

        def rows():
            for gp in generators():
                for mono in monomials(degree - gp.degree()):
                    prod = reduce(gp.times_monomial(mono))
                    yield {index[e]: c for e, c in prod.terms.items() if e in index}
        return basis, rows()
    return piece


def _graded_ranks(gens: GeneratorSet, max_degree: int,
                  spec: Optional[QuotientSpec]) -> List[Tuple[int, int]]:
    """(piece dimension, ideal rank) in each degree 0..max_degree; odd degrees
    give (0, 0)."""
    piece = _ideal_pieces(gens, spec)
    out = []
    for d in range(max_degree + 1):
        if d % 2:
            out.append((0, 0))
            continue
        basis, rows = piece(d)
        out.append((len(basis), linalg.row_rank(rows, len(basis))))
    return out


def graded_ideal_dims(gens: GeneratorSet, max_degree: int,
                      spec: Optional[QuotientSpec] = None) -> List[int]:
    """Per-degree dimensions of the ideal generated by homogeneous generators.

    With ``spec`` the computation runs inside that quotient ring (the ideal is
    the image ideal there).  Generators must be homogeneous.
    """
    for name, gp in gens.gens:
        probe = canonical_rep(gp, spec) if spec is not None else gp
        if not probe.is_zero() and not probe.is_homogeneous():
            raise ValueError(f"inhomogeneous generator {name} in graded mode")
    return [rank for _size, rank in _graded_ranks(gens, max_degree, spec)]


def graded_quotient_dims(gens: GeneratorSet, max_degree: int,
                         spec: Optional[QuotientSpec] = None) -> List[int]:
    """Per-degree dimensions of ambient/spec ring modulo the ideal."""
    return [size - rank for size, rank in _graded_ranks(gens, max_degree, spec)]


# -- reports ----------------------------------------------------------------------


@dataclass
class HilbertReport:
    degrees: List[Tuple[int, int, int]]  # (degree, computed, formula)
    source: str
    match: bool

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "degrees": [{"d": d, "computed": c, "formula": f} for d, c, f in self.degrees],
            "match": self.match,
        }


@dataclass
class EigenReport:
    subspace_dim: int
    total_dim: int
    tuples: List[dict]  # alpha, beta, gamma, delta (list), gen_mult

    def to_json(self) -> dict:
        return {
            "subspace_dim": self.subspace_dim,
            "total_dim": self.total_dim,
            "tuples": [
                {
                    "alpha": str(t["alpha"]), "beta": str(t["beta"]),
                    "gamma": str(t["gamma"]), "delta": [str(x) for x in t["delta"]],
                    "gen_mult": t["gen_mult"],
                }
                for t in self.tuples
            ],
        }


def hilbert_compare(g: int, n: int, source: str, max_degree: int) -> HilbertReport:
    """Computed graded dimensions against the closed Poincare formulas.

    source 'ptgn': quotient by the graded ideal vs P_t(g,n);
    source 'k': the reduced ideal K' vs the K-series;
    source 'total': the exterior-factor weighted sum of computed quotient dims
    vs the total-cohomology formula.
    """
    source = source.lower()
    if source == "ptgn":
        formula = expand_rational_fn(ptgn_series(g, n), max_degree)
        # delta_i^2 + beta and gamma^{g+1} reduce to zero in this ring
        gens = igen(g, n, "odd" if (1 + (n - 1) // 2) % 2 == 1 else "even")
        spec = QuotientSpec(gamma_truncation=g + 1, delta_square=0)
        computed = graded_quotient_dims(gens, max_degree, spec)
    elif source == "k":
        formula = expand_rational_fn(k_series(g, n), max_degree)
        computed = graded_ideal_dims(kprime_gen(g, n), max_degree, rbar_spec())
    elif source == "total":
        formula = expand_rational_fn(total_series(g, n), max_degree)
        computed = _exterior_sum(g, max_degree, lambda h: [
            c for _d, c, _f in hilbert_compare(h, n, "ptgn", max_degree).degrees])
    else:
        raise ValueError("source must be one of ptgn, total, k")
    rows = [(d, computed[d], formula[d]) for d in range(max_degree + 1)]
    return HilbertReport(rows, source, all(c == f for _d, c, f in rows))


def decomposition_identity_check(g: int, n: int, max_degree: int) -> bool:
    """Exterior-factor degree bookkeeping: the weighted sum of P_t(g-k,n) t^{3k}
    equals the total-cohomology series, coefficient-wise (pure series arithmetic)."""
    rhs = expand_rational_fn(total_series(g, n), max_degree)
    return _exterior_sum(g, max_degree,
                         lambda h: expand_rational_fn(ptgn_series(h, n), max_degree)) == rhs


def _exterior_sum(g: int, max_degree: int, piece: Callable[[int], List[int]]) -> List[int]:
    """sum over k = 0..g of (C(2g,k) - C(2g,k-2)) t^{3k} piece(g-k), through
    degree max_degree; ``piece(h)`` is a coefficient list starting at degree 0."""
    out = [0] * (max_degree + 1)
    for k in range(g + 1):
        mult = math.comb(2 * g, k) - (math.comb(2 * g, k - 2) if k >= 2 else 0)
        for d, c in enumerate(piece(g - k)):
            if d + 3 * k <= max_degree:
                out[d + 3 * k] += mult * c
    return out


# -- the filtered quotient model ----------------------------------------------------

# Primes of the modular model build, in the order they are tried.  Each further
# prime is combined with the earlier ones by Chinese remaindering.
_PRIMES = (2 ** 61 - 1, 2 ** 62 - 57, 2 ** 63 - 25, 2 ** 64 - 59)

class _UnluckyPrime(Exception):
    """A degree of I has more quotient monomials mod p than the formula allows:
    p lost rank there.  The message is the mismatch it would be over Q."""


def _rational(a: int, m: int) -> Optional[Fraction]:
    """The fraction n/d congruent to a mod m with |n|, d <= sqrt(m/2), or None
    (Wang 1981).  There is at most one such fraction."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def _mod_terms(terms: Dict[Exponents, Fraction], p: int) -> Dict[Exponents, int]:
    return {e: c.numerator * pow(c.denominator, -1, p) % p for e, c in terms.items()}


def _reduce_mod(row: Dict[int, int], pivots: Dict[int, Dict[int, int]], p: int,
                stop: float = math.inf) -> Dict[int, int]:
    """Reduce a sparse row mod p on its columns below ``stop`` against unit-led
    pivot rows, each stored without its leading 1 and with columns above its
    pivot only.

    Consumes ``row``.  Returns the residual: row minus a combination of pivot
    rows, with no pivot column below ``stop``.
    """
    residual: Dict[int, int] = {}
    heap = [j for j in row if j < stop]
    heapq.heapify(heap)
    while heap:
        q = heapq.heappop(heap)
        f = row.pop(q)
        if not f:
            continue
        prow = pivots.get(q)
        if prow is None:
            residual[q] = f
            continue
        for j, c in prow.items():
            s = row.get(j)
            if s is None:
                if j < stop:
                    heapq.heappush(heap, j)
                s = 0
            row[j] = (s - f * c) % p
    residual.update((j, c) for j, c in row.items() if c)
    return residual


def _apply(columns: List[Dict[int, int]], vec: Dict[int, int]) -> Dict[int, int]:
    """The integer matrix with sparse ``columns`` times the sparse vector ``vec``."""
    out: Dict[int, int] = {}
    for j, a in vec.items():
        for i, c in columns[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: c for i, c in out.items() if c}


class _ModularTables:
    """The model's elimination over Z/p: the basis decision and normal forms.

    Columns number the monomials of the degrees of ``want`` from the top down,
    within a degree in ``monomials_of_degree`` order, so a row's smallest
    column leads it.  Per degree d, in increasing order, the rows of the degree
    piece of I are taken mod p in ``_ideal_pieces`` order (I-generator index,
    then cofactor) and reduced against the degree-d parts of the stored rows.
    Only a row that adds a pivot is formed again from the paired J-generator,
    reduced on its degree-d columns, and stored whole and unit-led: it lies in
    J mod p, so its columns past degree d are the lower part of a lift of its
    degree-d part.  The basis is the monomials that lead no stored row.  A
    degree with fewer of them than ``want[d]`` is a mismatch, since rank_p <=
    rank_Q; one with more makes the prime unlucky.
    """

    def __init__(self, ring, pairs: List[Tuple[Poly, Poly]], want: Dict[int, int], p: int):
        self.p = p
        column = self.column = {}
        stop: Dict[int, int] = {}  # degree -> first column past that degree
        for d in sorted(want, reverse=True):
            for m in monomials_of_degree(ring, d):
                column[m] = len(column)
            stop[d] = len(column)

        def row(terms: Dict[Exponents, int], mono: Exponents) -> Dict[int, int]:
            return {column[tuple(map(add, e, mono))]: c for e, c in terms.items()}

        mod_pairs = [(ip.degree(), _mod_terms(ip.terms, p), _mod_terms(jp.terms, p))
                     for ip, jp in pairs]
        rows = self.rows = {}
        self.basis: List[Tuple[int, Exponents]] = []
        for d in sorted(want):
            monos = monomials_of_degree(ring, d)
            heads: Dict[int, Dict[int, int]] = {}  # the degree-d parts of the rows stored at d
            for gdeg, iterms, jterms in mod_pairs:
                for mono in monomials_of_degree(ring, d - gdeg):
                    if len(heads) == len(monos) or not _reduce_mod(row(iterms, mono), heads, p):
                        continue
                    residual = _reduce_mod(row(jterms, mono), rows, p, stop[d])
                    q = min(residual)
                    inv = pow(residual.pop(q), -1, p)
                    rows[q] = {j: c * inv % p for j, c in residual.items()}
                    heads[q] = {j: c for j, c in rows[q].items() if j < stop[d]}
            basis_d = [(d, m) for m in monos if column[m] not in rows]
            if len(basis_d) != want[d]:
                message = (f"graded quotient dimension mismatch at degree {d}: "
                           f"computed {len(basis_d)}, formula {want[d]}")
                raise (VerificationError if len(basis_d) < want[d] else _UnluckyPrime)(message)
            self.basis.extend(basis_d)
        self.basis_at = {column[m]: i for i, (_d, m) in enumerate(self.basis)}
        self._memo: Dict[Exponents, List[int]] = {}

    def normal_form(self, terms: Dict[Exponents, int]) -> List[int]:
        """Coordinates mod p over the basis of {exponents: coefficient mod p}."""
        coords = [0] * len(self.basis_at)
        row = {self.column[e]: c for e, c in terms.items()}
        for j, c in _reduce_mod(row, self.rows, self.p).items():
            coords[self.basis_at[j]] = c
        return coords

    def columns(self, k: int, basis: List[Tuple[int, Exponents]]) -> List[List[int]]:
        """Normal forms mod p of x_k * b for the basis monomials b."""
        out = []
        for _d, mono in basis:
            e = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
            col = self._memo.get(e)
            if col is None:
                col = self._memo[e] = self.normal_form({e: 1})
            out.append(col)
        return out


class QuotientModel:
    """Monomial basis and multiplication operators of R/J for an inhomogeneous
    ideal J whose leading forms generate a known graded ideal I with Poincare
    series ``formula``.

    The build has four steps, run prime by prime until one passes.  (1) The
    basis, decided mod p by ``_ModularTables`` in the even degrees 0..max(T +
    6, top degree of J), T the formula's top degree: the monomials that lead no
    vector of the degree piece of I mod p, as many per degree as the formula
    says.  (2) Normal forms mod p and the operator of every ring variable.  (3)
    Rational reconstruction of every operator entry; the residues of further
    primes that decide the same basis are combined by Chinese remaindering.
    (4) An exact certificate over Q: (a) the operators commute, (b) b(M) e_1 =
    e_b for every basis monomial b, (c) r(M) e_1 = 0 for every J-generator r,
    (d) for every basis monomial b and variable x with x*b outside the basis,
    the entries of M_x e_b on basis monomials of the degree of x*b all lie
    after x*b in the column order.

    Why the result is exact, with B the basis:
    1. The stored rows have a unit minor mod p, so a nonzero minor over Q.  So
       B spans each (R/I)_d, and R/I vanishes past the window.  Every
       I-generator leads a J-generator, so dim R/J <= dim R/I <= |B|.
    2. By (a) and (c), f -> f(M) e_1 factors through R/J, and by (b) it is
       onto, so dim R/J >= |B|.  So B is a basis of R/J and of R/I, M is
       multiplication on R/J in B, and ``normal_form(f)`` is f(M) e_1.
    3. x*b - M_x e_b lies in J, and as B is a basis of R/I its leading form is
       its degree-(deg x*b) part, which lies in I and by (d) leads on x*b.
       These x*b include the minimal generators of the monomial ideal of
       non-basis monomials (an ideal: the leading monomials of I mod p in a
       multiplicative order).  So that ideal is the leading-monomial ideal of
       I over Q, and B is the same standard basis for every prime.
    4. A J-generator with a nonzero normal form mod a prime that passed (1)
       still proves that J does not deform I: only a prime that lost rank
       could blame J where the formula is at fault.

    A prime is skipped if it divides a denominator of the generators, if a
    degree has more basis monomials mod p than the formula says (p lost rank;
    when every usable prime stops at the same degree and count, the formula is
    wrong), or if its operators fail the certificate.  A degree with fewer
    basis monomials than the formula says is a mismatch at once.
    """

    def __init__(self, J: GeneratorSet, I: GeneratorSet, formula: RationalFn):
        self.J = J
        self.I = I
        self.ring = J.ambient.with_coordinate(OMEGA)
        if self.ring.has_epsilon:
            raise ValueError("quotient models need a ring without epsilon")
        if self.ring.coeff_kind != RATIONAL:
            raise ValueError("quotient models need rational coefficients; specialize u first")
        self._build(formula)

    # construction ---------------------------------------------------------------

    def _build(self, formula: RationalFn):
        jpolys = [(name, p.change_coordinates(OMEGA)) for name, p in self.J.gens]
        ipolys = [(name, p.change_coordinates(OMEGA)) for name, p in self.I.gens]
        for name, ip in ipolys:
            if not ip.is_homogeneous():
                raise ValueError(f"I-generator {name} is not homogeneous")
        # pair each I-generator with a J-generator sharing its leading term
        pairs: List[Tuple[Poly, Poly]] = []  # (I-generator, J-generator rescaled to lead with it)
        used: Set[int] = set()
        for iname, ip in ipolys:
            match = None
            for idx, (jname, jp) in enumerate(jpolys):
                if idx in used:
                    continue
                lead = jp.leading_order()
                scaled = self._scalar_ratio(lead, ip)
                if scaled is not None:
                    match = (idx, scaled)
                    break
            if match is None:
                raise VerificationError(f"no J-generator deforms I-generator {iname}")
            idx, scale = match
            used.add(idx)
            pairs.append((ip, jpolys[idx][1] * scale))
        coeffs = expand_rational_fn(formula, 4 * len(formula.numerator) + 64)
        top = max((i for i, c in enumerate(coeffs) if c), default=-2)
        top_j = max((jp.degree() for _name, jp in jpolys), default=0)
        want = {d: coeffs[d] if d <= top else 0 for d in range(0, max(top + 6, top_j) + 1, 2)}
        self._certified_operators(pairs, want, jpolys)

    @staticmethod
    def _scalar_ratio(a: Poly, b: Poly) -> Optional[Fraction]:
        """If a == c*b for a scalar c, return 1/c (to rescale); else None."""
        if a.is_zero() or b.is_zero() or len(a.terms) != len(b.terms):
            return None
        items = iter(a.terms.items())
        e0, c0 = next(items)
        cb = b.terms.get(e0)
        if cb is None:
            return None
        ratio = c0 / cb
        for e, c in a.terms.items():
            if b.terms.get(e) is None or b.terms[e] * ratio != c:
                return None
        return Fraction(1) / ratio

    def _certified_operators(self, pairs: List[Tuple[Poly, Poly]], want: Dict[int, int],
                             jpolys: List[Tuple[str, Poly]]) -> None:
        """Steps (1)-(4), prime by prime."""
        names = self.ring.var_names
        inputs = [jp for _name, jp in jpolys] + [q for pair in pairs for q in pair]
        dens = {c.denominator for poly in inputs for c in poly.terms.values()}
        stops: List[Optional[str]] = []  # per usable prime, why it was unlucky, or None
        self.basis: List[Tuple[int, Exponents]] = []
        self.basis_index: Dict[Tuple[int, Exponents], int] = {}
        residues: List[List[int]] = []
        modulus = 1
        for p in _PRIMES:
            if any(den % p == 0 for den in dens):
                continue
            try:
                tables = _ModularTables(self.ring, pairs, want, p)
            except _UnluckyPrime as exc:
                stops.append(str(exc))
                continue
            stops.append(None)
            if tables.basis != self.basis:
                self.basis, residues, modulus = tables.basis, [], 1
                self.basis_index = {bm: i for i, bm in enumerate(self.basis)}
            if not self.basis:
                self._install({x: Matrix.zeros(0, 0) for x in names})
                return
            for name, jp in jpolys:
                if any(tables.normal_form(_mod_terms(jp.terms, p))):
                    raise VerificationError(f"J-generator {name} has nonzero normal form; "
                                            "J does not deform I")
            cols = [col for k in range(len(names)) for col in tables.columns(k, self.basis)]
            del tables  # free the mod-p tables before the exact certificate
            if residues:
                inv = pow(modulus, -1, p)
                cols = [[x + modulus * ((r - x) * inv % p) for x, r in zip(old, new)]
                        for old, new in zip(residues, cols)]
            residues, modulus = cols, modulus * p
            ops = self._reconstruct(residues, modulus)
            if ops is not None and self._certify(ops):
                return
        if stops and None not in stops and len(set(stops)) == 1:
            raise VerificationError(stops[0])
        raise VerificationError("no prime of the modular build gave operators that pass "
                                "the certificate")

    def _reconstruct(self, residues: List[List[int]], modulus: int) -> Optional[Dict[str, Matrix]]:
        """The rational operators with the given residue columns, or None."""
        D = self.dim
        ops = {}
        for k, name in enumerate(self.ring.var_names):
            cols = residues[k * D:(k + 1) * D]
            entries = [[_rational(col[i], modulus) for col in cols] for i in range(D)]
            if any(x is None for row in entries for x in row):
                return None
            ops[name] = Matrix(entries)
        return ops

    def _install(self, ops: Dict[str, Matrix]) -> None:
        """Take ``ops`` as the operators of the ring variables: keep them, their
        columns cleared to integers, and a fresh monomial-vector memo."""
        D = len(self.basis)
        self._ops = dict(ops)
        self._columns: List[Tuple[List[Dict[int, int]], int]] = []
        for name in self.ring.var_names:
            data = ops[name].data
            den = math.lcm(*(x.denominator for row in data for x in row))
            self._columns.append(([{i: data[i][j].numerator * (den // data[i][j].denominator)
                                    for i in range(D) if data[i][j]} for j in range(D)], den))
        self._memo: Dict[Exponents, Tuple[Dict[int, int], int]] = (
            {self.ring.zero_exponents(): ({0: 1}, 1)} if D else {})

    def _certify(self, ops: Dict[str, Matrix]) -> bool:
        """Install ``ops`` and check the exact certificate (a)-(d)."""
        self._install(ops)
        if not self._commute():
            return False
        for i, (_d, mono) in enumerate(self.basis):
            if self._vector(mono) != ({i: 1}, 1):
                return False
        return not any(any(self.normal_form(jp)) for _name, jp in self.J.gens) and self._leads()

    def _commute(self) -> bool:
        cols = [c for c, _den in self._columns]
        for a in range(len(cols)):
            for b in range(a + 1, len(cols)):
                ca, cb = cols[a], cols[b]
                if any(_apply(ca, cb[j]) != _apply(cb, ca[j]) for j in range(len(self.basis))):
                    return False
        return True

    def _leads(self) -> bool:
        """(d): each x*b outside the basis leads the degree-(deg x*b) part of
        x*b - M_x e_b, in the descending ``sort_key`` order of the columns."""
        key, mdeg = self.ring.sort_key, self.ring.monomial_degree
        for k, (columns, _den) in enumerate(self._columns):
            for (_d, mono), column in zip(self.basis, columns):
                e = mono[:k] + (mono[k] + 1,) + mono[k + 1:]
                top = mdeg(e)
                if (top, e) in self.basis_index:
                    continue
                if any(self.basis[i][0] == top and key(self.basis[i][1]) > key(e) for i in column):
                    return False
        return True

    def _vector(self, mono: Exponents) -> Tuple[Dict[int, int], int]:
        """mono(M) e_1 as (numerators, denominator) in lowest terms, memoized:
        M_x applied to the vector of mono / x for the first variable x of mono."""
        chain = []
        while mono not in self._memo:
            k = next(i for i, e in enumerate(mono) if e)
            chain.append((mono, k))
            mono = mono[:k] + (mono[k] - 1,) + mono[k + 1:]
        nums, den = self._memo[mono]
        for mono, k in reversed(chain):
            columns, cden = self._columns[k]
            nums = _apply(columns, nums)
            den *= cden
            g = math.gcd(den, *nums.values())
            if g > 1:
                nums = {i: c // g for i, c in nums.items()}
                den //= g
            self._memo[mono] = (nums, den)
        return nums, den

    # queries ---------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def normal_form(self, f: Poly) -> List[Fraction]:
        """Coordinates of f modulo J over the basis: f(M) e_1."""
        f = f.change_coordinates(OMEGA).cast(self.ring)
        if not self.basis:
            return []
        terms = [(c, self._vector(e)) for e, c in f.terms.items()]
        den = math.lcm(*(c.denominator * vden for c, (_nums, vden) in terms))
        acc = [0] * len(self.basis)
        for c, (nums, vden) in terms:
            s = c.numerator * (den // (c.denominator * vden))
            for i, a in nums.items():
                acc[i] += s * a
        return [Fraction(a, den) for a in acc]

    def membership(self, f: Poly) -> bool:
        return not any(self.normal_form(f))

    def operator(self, var: str) -> Matrix:
        """Multiplication operator by a ring variable (or 'alpha') over the basis."""
        if var not in self._ops:
            if var != ALPHA:
                self.ring.var_index(var)  # KeyError: the ring has no such variable
            # alpha = omega - (sum delta_i)/2
            m = self._ops["omega"]
            for i in range(1, self.ring.n + 1):
                m = m - self._ops[f"delta{i}"].scale(Fraction(1, 2))
            self._ops[var] = m
        return self._ops[var]


# -- standard models ---------------------------------------------------------------

_model_cache: Dict[Tuple[int, str, Optional[Fraction]], QuotientModel] = {}


def _one_point_ideals(g: int, sign: str = "+", theta: Optional[Fraction] = None):
    """(J, I, formula) of the one-point model (optionally u = theta)."""
    local = theta is not None
    J = jgen_n1(g, sign=sign, local=local)
    if local:
        gens = [(name, specialize_u(p, theta)) for name, p in J.gens]
        J = GeneratorSet(J.label + f"@u={theta}", gens[0][1].ring, gens, meta=dict(J.meta))
    I = igen(g, 1, "even")
    I_reduced = GeneratorSet(I.label, I.ambient,
                             [gv for gv in I.gens if not gv[0].startswith("gamma^")],
                             meta=I.meta)
    return J, I_reduced, ptgn_series(g, 1)


def model_for(g: int, sign: str = "+", theta: Optional[Fraction] = None) -> QuotientModel:
    """The filtered quotient model of the one-point ideal (optionally u = theta)."""
    key = (g, sign, theta)
    if key in _model_cache:
        return _model_cache[key]
    model = QuotientModel(*_one_point_ideals(g, sign, theta))
    _model_cache[key] = model
    return model


def gamma_power_witness(g: int, sign: str = "+", local: bool = False) -> Dict[str, Poly]:
    """Cofactors expressing gamma^g over (r_g, r_{g+1}, r_{g+2}); exact identity."""
    cof = gamma_cofactors(g, sign=sign, local=local)
    rng = next(iter(cof.values())).ring
    gens = jgen_n1(g, sign=sign, local=local)
    witness = {}
    total = Poly.zero(rng)
    for i, a in cof.items():
        name, rp = gens.gens[i]
        witness[name] = a
        total = total + a * rp
    target = Poly.variable(rng, "gamma") ** g
    if total != target:
        raise AssertionError("gamma power witness failed to reproduce gamma^g")
    return witness


# -- eigen verification --------------------------------------------------------------


def _lambda_seq(g: int) -> List[int]:
    return [(-1) ** (i - 1) * (2 * i - 1) for i in range(1, g + 1)]


def eigen_verify(g: int, sign: str = "+", theta: Optional[Fraction] = None) -> EigenReport:
    """Spectral verification of the one-point model.

    At u = 1: the beta = 2 generalized eigenspace carries the alternating odd
    alpha-spectrum, gamma and delta are nilpotent there, and the top pair
    eigenspace is one-dimensional.  At u = theta: the local eigenvalue tuple is
    checked by evaluation on the generators and by operator kernels.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    model = model_for(g, sign, theta)
    D = model.dim
    if theta is not None:
        return _eigen_verify_local(g, sign, theta, model)
    sgn = 1 if sign == "+" else -1
    a_op = model.operator(ALPHA)
    b_op = model.operator("beta")
    c_op = model.operator("gamma")
    d_op = model.operator("delta1")
    v2 = linalg.generalized_eigenspace(b_op, 2)
    v2_dim = v2.rows
    if not linalg.is_nilpotent_on(c_op, v2):
        raise AssertionError("gamma is not nilpotent on the beta=2 subspace")
    if not linalg.is_nilpotent_on(d_op, v2):
        raise AssertionError("delta is not nilpotent on the beta=2 subspace")
    a_res = linalg.restrict(a_op, v2)
    lambdas = [sgn * lam for lam in _lambda_seq(g)]
    tuples = []
    total_mult = 0
    for lam in lambdas:
        mult = linalg.generalized_eigenspace_dim(a_res, lam)
        if mult < 1:
            raise AssertionError(f"missing alpha eigenvalue {lam} on the beta=2 subspace")
        total_mult += mult
        tuples.append({"alpha": Fraction(lam), "beta": Fraction(2), "gamma": Fraction(0),
                       "delta": [Fraction(0)], "gen_mult": mult})
    if total_mult != v2_dim:
        raise AssertionError("alpha spectrum multiplicities do not fill the subspace")
    # completeness: product of shifted powers kills the subspace; the nilpotency
    # index of each eigenvalue is at most its multiplicity
    prod = Matrix.identity(v2_dim)
    for t in tuples:
        shifted = a_res - Matrix.identity(v2_dim).scale(t["alpha"])
        prod = prod * shifted.power(t["gen_mult"])
    if not prod.is_zero():
        offender = next(i for i in range(v2_dim) if any(prod.col(i)))
        raise AssertionError(f"unexpected alpha spectrum; residue on subspace vector {offender}")
    # top simultaneous generalized eigenspace for (alpha, beta) is 1-dimensional;
    # V2 is alpha-invariant, so it is the top lambda's one on a_res
    top = tuples[-1]["gen_mult"]
    if top != 1:
        raise AssertionError(f"top simultaneous eigenspace has dimension {top}, wanted 1")
    return EigenReport(v2_dim, D, tuples)


def local_eigen_point(g: int, sign: str, theta: Fraction) -> Dict[str, Fraction]:
    """The local eigen tuple {omega, delta1, beta, gamma} of the one-point model
    at u = theta: omega = s*(2g - 2 + (theta + 1/theta)/2), delta1 = s*(1/theta -
    theta), beta = 2, gamma = 0, with s = (-1)^(g+1) for sign '+' and its
    negative for '-'."""
    theta = Fraction(theta)
    s = (1 if sign == "+" else -1) * (-1) ** (g + 1)
    return {"omega": s * (2 * g - 2 + (theta + 1 / theta) / 2), "delta1": s * (1 / theta - theta),
            "beta": Fraction(2), "gamma": Fraction(0)}


def _eigen_verify_local(g: int, sign: str, theta: Fraction, model: QuotientModel) -> EigenReport:
    tup = local_eigen_point(g, sign, theta)
    w_val, d_val = tup["omega"], tup["delta1"]
    # evaluation route: every generator vanishes at the tuple
    for name, p in model.J.gens:
        val = p.evaluate(tup)
        if val:
            raise AssertionError(f"local eigen tuple does not annihilate {name}")
    # operator route: the simultaneous generalized eigenspace is nontrivial
    D = model.dim
    space = None
    for var, lam in tup.items():
        op = model.operator(var)
        ker = linalg.generalized_eigenspace(op, lam)
        space = ker if space is None else subspace_intersection(space, ker)
    mult = space.rows if space is not None else 0
    if mult < 1:
        raise AssertionError("local eigen tuple is not realized by the operators")
    alpha_val = w_val - d_val / 2
    report = EigenReport(mult, D, [{
        "alpha": alpha_val, "beta": Fraction(2), "gamma": Fraction(0),
        "delta": [d_val], "gen_mult": mult,
    }])
    return report


# -- sub-leading solver (three points) ------------------------------------------------


def solve_subleading(g: int, n: int = 3) -> GeneratorSet:
    """Solve for the minimal-degree relation at three points.

    Ansatz: xi_{g+1,3} + (-1)^{g+1} tau_123(xi_{g,1}) + h with deg h <= 2(g-1),
    h over canonical monomials.  Constraints: the point-reduction images of the
    even-flip orbit reduce to zero in the one-point model, and the candidate
    vanishes at the alternating odd evaluation points.  The system must have a
    unique solution.
    """
    if n != 3:
        raise ValueError("solver supports n = 3")
    if g < 0:
        raise ValueError("g must be >= 0")
    m = 1
    rng = ring(3, coordinate=OMEGA)
    base = xi(g + m, 3).change_coordinates(OMEGA)
    tail = xi(g + m - 1, 1, target=ring(3, coordinate=ALPHA)).change_coordinates(OMEGA)
    base = base + tail.flip(range(1, 4)) * ((-1) ** (g + m))
    # unknowns: canonical monomials of degree <= 2(g-1)
    unknowns: List[Exponents] = []
    spec = model_spec(g)
    for d in range(0, max(-1, 2 * (g + m - 2)) + 1, 2):
        unknowns.extend(canonical_monomials(rng, spec, d))
    model = model_for(g, "+")
    rows: List[List[Fraction]] = []  # the augmented system [A | rhs]
    for I in flip_subsets(3, even=True):
        nf_base = model.normal_form(base.flip(I).pi_reduce())
        nf_unknowns = [model.normal_form(Poly.monomial(rng, mono).flip(I).pi_reduce())
                       for mono in unknowns]
        rows.extend([vu[i] for vu in nf_unknowns] + [-b] for i, b in enumerate(nf_base))
    # evaluation constraints at (lambda, 2, 0, 0, 0, 0)
    for lam in _lambda_seq(g + m):
        rows.append([Poly.monomial(rng, mono).evaluate_alpha_point(lam, 2, 0, [0, 0, 0])
                     for mono in unknowns] + [-base.evaluate_alpha_point(lam, 2, 0, [0, 0, 0])])
    # one RREF: the rhs column leads a row iff the system is infeasible
    k = len(unknowns)
    R, pivots, _T = linalg.rref(Matrix(rows, k + 1))
    if k in pivots:
        raise VerificationError("sub-leading system is infeasible (convention drift)")
    if len(pivots) < k:
        raise VerificationError("sub-leading system is not unique (convention drift)")
    f_hat = base + Poly(rng, {mono: R[i, k] for i, mono in enumerate(unknowns)})
    return GeneratorSet(
        label=f"X_{{{g},3}}", ambient=rng, gens=flip_orbit(f_hat, f"fhat_{{{g},3}}", 3),
        meta={"g": g, "n": 3, "sign": "+", "f_hat": f_hat},
    )


def jgen_n3(g: int) -> GeneratorSet:
    """Generators of the three-point ideal from solved minimal-degree relations:
    orbits of g and g+1 plus gamma times the orbit of g-1, with the relations."""
    rng = ring(3, coordinate=OMEGA)
    gens: List[Tuple[str, Poly]] = []
    x_g = solve_subleading(g)
    x_g1 = solve_subleading(g + 1)
    gens.extend(x_g.gens)
    gens.extend((f"{name}@{g + 1}", p) for name, p in x_g1.gens)
    if g >= 1:
        x_prev = solve_subleading(g - 1)
        gamma_p = Poly.variable(rng, "gamma")
        gens.extend((f"gamma*{name}", gamma_p * p) for name, p in x_prev.gens)
    beta_p = Poly.variable(rng, "beta")
    for i in range(1, 4):
        di = Poly.variable(rng, f"delta{i}")
        gens.append((f"delta{i}^2+beta-2", di * di + beta_p - 2))
    gens.append((f"gamma^{g + 1}", Poly.variable(rng, "gamma") ** (g + 1)))
    return GeneratorSet(
        label=f"J_{{{g},3}}^+", ambient=rng, gens=gens,
        meta={"g": g, "n": 3, "sign": "+", "local": False},
    )


def _three_point_ideals(g: int):
    """(J, I, formula) of the three-point model built from solver output."""
    J = jgen_n3(g)
    I_full = igen(g, 3, "even")
    # gamma^{g+1} and the xi_{g+3} orbit give way to gamma times the xi_g orbit
    keep = [(name, p) for name, p in I_full.gens
            if not name.startswith("gamma^") and f"xi_{{{g + 3},3}}" not in name]
    rng3 = ring(3, coordinate=ALPHA)
    gamma_p = Poly.variable(rng3, "gamma")
    keep += [(f"gamma*{name}", gamma_p * p)
             for name, p in flip_orbit(xi(g, 3, target=rng3), f"xi_{{{g},3}}", 3)]
    I_set = GeneratorSet(I_full.label, I_full.ambient, keep, meta=I_full.meta)
    return J, I_set, ptgn_series(g, 3)


def model_n3(g: int) -> QuotientModel:
    """Filtered model of the three-point quotient built from solver output."""
    return QuotientModel(*_three_point_ideals(g))
