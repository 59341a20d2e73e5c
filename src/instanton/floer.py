"""The engine: graded Hilbert computations, filtered quotient models for the
inhomogeneous ideals, multiplication operators with eigen verification, ideal
membership with explicit gamma-power witnesses, and the sub-leading solver and
quotient models for any odd number of marked points.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations
from operator import add
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from . import linalg
from .linalg import Matrix, subspace_intersection
from .poly import (OMEGA, RATIONAL, Exponents, Poly, RingDescriptor, _summed,
                   monomials_of_degree, ring)
from .quotient import (QuotientSpec, _fold_squares, canonical_monomials, canonical_rep,
                       delta_support, model_spec, rbar_spec)
from .relations import (EtaChoice, GeneratorSet, flip_orbit, flip_subsets, gamma_cofactors,
                        igen, jgen_n1, kprime_gen, specialize_u, w_skeleton, xi)
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


def _ideal_pieces(gens: GeneratorSet, spec: QuotientSpec):
    """A function taking a degree d to the degree-d canonical monomial basis of
    ``spec`` and a lazy iterator of sparse integer rows ``{basis index:
    coefficient}`` spanning the ideal piece, one per (generator index,
    cofactor monomial) in that order; a row is formed only when it is taken.

    Each generator is brought to canonical form inside ``spec`` once, here;
    a zero form gives no rows, and a form that is not homogeneous raises
    ValueError.  Each form is scaled once to integer coefficients, and each
    row is formed from the scaled form by ``_product_row``, with no ``Poly``,
    no ``canonical_rep`` and no ``Fraction``.  A row is the row of the product
    of the form and the cofactor, brought to canonical form inside ``spec``,
    times the form's nonzero integer scale, so the rows span the same piece."""
    rng = gens.ambient.with_coordinate(OMEGA)
    forms: List[Tuple[int, List[Tuple[Exponents, int]]]] = []  # (degree, scaled terms)
    for name, gen in gens.gens:
        p = canonical_rep(gen, spec)
        if not p.is_zero():
            if not p.is_homogeneous():
                raise ValueError(f"inhomogeneous generator {name} in graded mode")
            forms.append((p.degree(), list(linalg._integer_row(p.terms).items())))
    monomials = lru_cache(maxsize=None)(partial(canonical_monomials, rng, spec))  # by degree

    def piece(degree: int):
        basis = monomials(degree)
        index = {m: i for i, m in enumerate(basis)}
        return basis, (_product_row(terms, mono, index, rng, spec)
                       for d, terms in forms for mono in monomials(degree - d))
    return piece


def _product_row(terms: List[Tuple[Exponents, int]], mono: Exponents, index: Dict[Exponents, int],
                 rng: RingDescriptor, spec: QuotientSpec) -> Dict[int, int]:
    """The sparse integer row, on the degree basis ``index``, of the form with
    integer ``terms`` times the cofactor monomial ``mono``: each term's
    exponents shifted by ``mono`` and every delta_i^2 folded into -beta, the
    spec's relation (``_fold_squares`` with c = 0); then summed by column.
    The terms outside the basis, among them those with gamma exponent >= G
    or, with beta = 0, a beta, are left out."""
    shifted = ((tuple(map(add, e, mono)), c) for e, c in terms)
    return _summed((index[e], c) for e, c in _fold_squares(shifted, rng, 0, spec.beta_zero)
                   if e in index)


def _graded_ranks(gens: GeneratorSet, max_degree: int,
                  spec: QuotientSpec) -> List[Tuple[int, int]]:
    """(piece dimension, ideal rank) in each degree 0..max_degree; odd degrees
    have no canonical monomials and give (0, 0).  Raises ValueError for a
    generator that is not homogeneous in canonical form (``_ideal_pieces``;
    flips preserve degree, so the representatives stand for every generator).

    The rank is taken by blocks of the even-flip group.  In omega coordinates
    tau_I negates delta_i for i in I, so a monomial is an eigenvector whose
    block is its delta-parity vector up to complement ({S, S^c} of
    ``delta_support``).  A piece of a flip-closed ideal is the direct sum of its
    block projections, and canonical_rep(tau_I(b) m) = +-tau_I(canonical_rep(b m))
    for a cofactor monomial m, so the block projections of the rows of the
    orbit representatives (``GeneratorSet.flip_reps``) span every block.  Only
    the representatives are read, so the other members of a marked set's
    orbits are never built here.  Each basis index gets its block's number,
    and each integer row of ``_ideal_pieces`` is split into its projections,
    which keep their basis indices; those of different blocks share no
    column, so one pass of the rank kernel ``linalg._echelon`` sums the block
    ranks.  An unmarked set (its own representatives) takes the trivial
    group: one block.
    """
    rng = gens.ambient.with_coordinate(OMEGA)
    piece = _ideal_pieces(gens.representatives(), spec)
    everything = frozenset(range(1, rng.n + 1))
    numbers = {}  # {S, S^c} -> its block number

    def block(mono: Exponents) -> int:
        if gens.flip_reps is None:
            return 0
        support = delta_support(rng, mono)
        return numbers.setdefault(frozenset((support, everything - support)), len(numbers))

    def projections(rows, blocks: List[int]):
        for row in rows:
            parts: Dict[int, Dict[int, int]] = {}
            for i, c in row.items():
                parts.setdefault(blocks[i], {})[i] = c
            yield from parts.values()

    out = []
    for d in range(max_degree + 1):
        basis, rows = piece(d)
        blocks = [block(mono) for mono in basis]
        out.append((len(basis), len(linalg._echelon(projections(rows, blocks), len(basis)))))
    return out


def graded_ideal_dims(gens: GeneratorSet, max_degree: int, spec: QuotientSpec) -> List[int]:
    """Per-degree dimensions of the image, inside the quotient ring of
    ``spec``, of the ideal generated by ``gens``, whose canonical forms must be
    homogeneous."""
    return [rank for _size, rank in _graded_ranks(gens, max_degree, spec)]


def graded_quotient_dims(gens: GeneratorSet, max_degree: int, spec: QuotientSpec) -> List[int]:
    """Per-degree dimensions of the quotient ring of ``spec`` modulo the ideal."""
    return [size - rank for size, rank in _graded_ranks(gens, max_degree, spec)]


# -- reports ----------------------------------------------------------------------


class HilbertReport(NamedTuple):
    degrees: List[Tuple[int, int, int]]  # (degree, computed, formula)
    source: str
    match: bool

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "degrees": [{"d": d, "computed": c, "formula": f} for d, c, f in self.degrees],
            "match": self.match,
        }


class EigenReport(NamedTuple):
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
        spec = model_spec(g)
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
# prime is combined with the earlier ones by Chinese remaindering.  Below 2^60 a
# residue is two 30-bit CPython digits, and one prime's Wang bound is 2^29.5.
_PRIMES = (2 ** 60 - 93, 2 ** 60 - 107, 2 ** 60 - 173, 2 ** 60 - 179)


class _UnluckyPrime(Exception):
    """A degree of I has more quotient monomials mod p than the formula allows:
    p lost rank there.  The message is the mismatch it would be over Q."""


@lru_cache(maxsize=8)
def _wang_bound(m: int) -> int:
    return math.isqrt(m // 2)


def _rational(a: int, m: int) -> Optional[Tuple[int, int]]:
    """(n, d) in lowest terms with n/d congruent to a mod m and |n|, d <= sqrt(m/2),
    d > 0, or None (Wang 1981).  There is at most one such fraction."""
    bound = _wang_bound(m)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if not 0 < abs(t1) <= bound or math.gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _mod_terms(terms: Dict[Exponents, Fraction], p: int) -> Dict[Exponents, int]:
    return {e: c.numerator * pow(c.denominator, -1, p) % p for e, c in terms.items()}


_Entries = List[Tuple[int, int]]  # (position or column, coefficient)
_Columns = Tuple[List[Dict[int, int]], int]  # integer columns over one denominator > 0
_Lift = Tuple[int, _Entries, _Entries]  # (pivot q, raw lower part L_q, multipliers U_q)


def _reduce_block(dense: List[int], heads: List[Optional[_Entries]],
                  p: int) -> Tuple[_Entries, _Entries]:
    """Reduce a dense row mod p, left to right, against the unit-led heads by
    position (None where none leads; each without its 1, later positions only).
    Consumes ``dense``; an entry is taken mod p only where it is read.  Returns
    the multipliers (position, f) used and the residual entries."""
    used, residual = [], []
    for i, x in enumerate(dense):  # sees the updates past i
        x %= p
        if x:
            head = heads[i]
            if head is None:
                residual.append((i, x))
            else:
                used.append((i, x))
                for j, c in head:
                    dense[j] -= x * c
    return used, residual


def _apply(columns: List[Dict[int, int]], vec: Dict[int, int]) -> Dict[int, int]:
    """The integer matrix with sparse ``columns`` times the sparse vector ``vec``."""
    out: Dict[int, int] = {}
    for j, a in vec.items():
        for i, c in columns[j].items():
            out[i] = out.get(i, 0) + a * c
    return {i: c for i, c in out.items() if c}


def _folds(ring, pairs: List[Tuple[Poly, Poly]]) -> Tuple[Fraction, List[Tuple[Poly, Poly]]]:
    """(c, the other pairs) for the pairs (delta_i^2 + beta, delta_i^2 + beta -
    c), the first such pair per delta_i.  Raises ValueError when a delta_i has
    no such pair or two of them hold different c."""
    beta = Poly.variable(ring, "beta")
    squares = {i: Poly.variable(ring, ring.var_names[i]) ** 2 + beta
               for i in range(3, 3 + ring.n)}
    cs: Dict[int, Fraction] = {}
    rest = []
    for ip, jp in pairs:
        i = next((i for i, sq in squares.items() if ip == sq and i not in cs), None)
        if i is not None and (jp - ip).degree() <= 0:
            cs[i] = -(jp - ip).terms.get(ring.zero_exponents(), Fraction(0))
        else:
            rest.append((ip, jp))
    lacking = [ring.var_names[i] for i in squares if i not in cs]
    if lacking:
        raise ValueError(f"J pairs no {lacking[0]}^2+beta-c with I's {lacking[0]}^2+beta")
    if len(set(cs.values())) > 1:
        raise ValueError("the pairs delta_i^2+beta-c hold different c: "
                         + ", ".join(map(str, sorted(set(cs.values())))))
    return cs.popitem()[1], rest


class _ModularTables:
    """The model's elimination over Z/p: the basis decision and normal forms.

    The pairs (delta_i^2 + beta, delta_i^2 + beta - c), one per delta_i with
    one c (``_folds``), are a fold, not rows: every row and every normal-form
    input is taken through the package's one fold delta_i^2 -> c - beta
    (``quotient._fold_squares``) with c mod p.  Columns number the monomials
    of the degrees of ``want`` whose delta exponents are <= 1, from the top
    down, within a degree in ``monomials_of_degree`` order, so a row's
    smallest column leads it.  Per degree d, in increasing order, the rows of
    the other pairs are taken mod p in ``_ideal_pieces`` order (I-generator
    index, then cofactor): each is the folded cofactor times a J-generator,
    whose degree-d part, dense on d's block of columns, is the folded I-row.
    It is reduced by ``_reduce_block`` against the heads (degree-d parts) of
    the rows stored at d; only a row that adds a pivot q forms all its part
    below d, L_q, and is stored unit-led: its head and its lift (q, L_q, U_q),
    U_q its multipliers, both times the pivot's inverse.  The tail L_q - sum
    f * tail_i over (i, f) in U_q (each i stored earlier at d) is never formed;
    head plus tail, the folded J-row reduced on degree d, lies in J mod p, so
    the tail is the lower part of a lift of its head.  delta_i^2 leads
    delta_i^2 + beta, so the leading monomials of I_d mod p are the unfolded
    monomials and those of the folded I-rows, and the basis is the columns
    that lead no head.  A degree with fewer of them than ``want[d]`` is a
    mismatch (rank_p <= rank_Q); one with more makes the prime unlucky.
    """

    def __init__(self, ring, pairs: List[Tuple[Poly, Poly]], want: Dict[int, int], p: int):
        self.p = p
        c, pairs = _folds(ring, pairs)
        # (exponents, residue) pairs -> the same folded
        fold = self.fold = partial(
            _fold_squares, ring=ring, c=c.numerator * pow(c.denominator, -1, p) % p)
        deltas = ring.delta_slice()
        column = self.column = {}
        monos: Dict[int, List[Exponents]] = {}
        start: Dict[int, int] = {}  # degree -> its first column
        for d in sorted(want, reverse=True):
            monos[d] = [m for m in monomials_of_degree(ring, d) if max(m[deltas]) < 2]
            start[d] = len(column)
            for m in monos[d]:
                column[m] = len(column)
        # (degree, I-generator, lower part of its J-generator), folded mod p
        mod_pairs = [(ip.degree(), *(list(_summed(fold(_mod_terms(f.terms, p).items())).items())
                                     for f in (ip, jp - ip)))
                     for ip, jp in pairs]
        # per degree, from the top down: (first column, heads, lifts in storage order)
        self.blocks: List[Tuple[int, List[Optional[_Entries]], List[_Lift]]] = []
        self.basis: List[Tuple[int, Exponents]] = []
        for d in sorted(want):
            lo, width = start[d], len(monos[d])
            hi = lo + width
            heads: List[Optional[_Entries]] = [None] * width  # by column - lo
            lifts: List[_Lift] = []
            for gdeg, iterms, jlower in mod_pairs:
                for mono in monos.get(d - gdeg, ()):
                    if len(lifts) == width:
                        break
                    dense, lower = [0] * width, {}
                    # the terms and mono are folded, so only a delta of mono can square
                    shift = fold if any(mono[deltas]) else iter
                    for e, x in shift([(tuple(map(add, e, mono)), x) for e, x in iterms]):
                        j = column[e]
                        if j < hi:
                            dense[j - lo] += x
                        else:  # a c-term of the fold
                            lower[j] = lower.get(j, 0) + x
                    used, residual = _reduce_block(dense, heads, p)
                    if not residual:
                        continue
                    _summed(((column[e], x) for e, x in
                             shift([(tuple(map(add, e, mono)), x) for e, x in jlower])), lower)
                    q, inv = residual[0][0], pow(residual[0][1], -1, p)
                    heads[q] = [(j, x * inv % p) for j, x in residual[1:]]
                    lifts.append((q, [(j, x * inv % p) for j, x in lower.items() if x % p],
                                  [(i, x * inv % p) for i, x in used]))
            basis_d = [(d, m) for m, head in zip(monos[d], heads) if head is None]
            if len(basis_d) != want[d]:
                message = (f"graded quotient dimension mismatch at degree {d}: "
                           f"computed {len(basis_d)}, formula {want[d]}")
                raise (VerificationError if len(basis_d) < want[d] else _UnluckyPrime)(message)
            self.basis.extend(basis_d)
            self.blocks.insert(0, (lo, heads, lifts))
        self.basis_at = {column[m]: i for i, (_d, m) in enumerate(self.basis)}
        self._memo: Dict[Exponents, List[int]] = {}

    def normal_form(self, terms: Dict[Exponents, int]) -> List[int]:
        """Coordinates mod p over the basis of {exponents: coefficient mod p}:
        folded, then the blocks in column order (a lift only reaches later
        ones), each taking its multipliers y back through its lifts, latest
        first: y_q * L_q leaves the row and y_q * U_q leaves y."""
        p = self.p
        coords = [0] * len(self.basis_at)
        row = _summed((self.column[e], x) for e, x in self.fold(terms.items()))
        for lo, heads, lifts in self.blocks:
            hi = lo + len(heads)
            if min(row, default=hi) >= hi:  # no entry in this block
                continue
            dense = [row.pop(j, 0) for j in range(lo, hi)]
            used, residual = _reduce_block(dense, heads, p)
            for i, x in residual:
                coords[self.basis_at[lo + i]] = x
            y = dict(used)
            for q, lift, multipliers in reversed(lifts):
                x = y.pop(q, 0) % p
                if x:
                    for j, c in lift:
                        row[j] = row.get(j, 0) - x * c
                    for i, f in multipliers:
                        y[i] = y.get(i, 0) - x * f
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
    says.  (2) Normal forms mod p (through the stored lifts) and the operator
    of every ring variable.  (3) Rational reconstruction of every nonzero
    operator entry; the residues of further primes that decide the same
    basis are combined by Chinese remaindering.
    (4) An exact certificate over Q: (a) the operators commute, (b) b(M) e_1 =
    e_b for every basis monomial b, (c) r(M) e_1 = 0 for every J-generator r,
    (d) for every basis monomial b and variable x with x*b outside the basis,
    the entries of M_x e_b on basis monomials of the degree of x*b all lie
    after x*b in the column order.

    Why the result is exact, with B the basis:
    1. Per degree, the stored heads and the rows m*(delta_i^2 + beta) of the
       fold (unit-led at the distinct unfolded monomials, one row each) lie
       in I mod p and have a unit minor mod p, so I has a nonzero minor over
       Q.
       So B spans each (R/I)_d, and R/I vanishes past the window.  Every
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

    J must hold delta_i^2 + beta - c for every i, with one c, as the partner
    of I's delta_i^2 + beta, or the build raises ValueError (``_folds``).

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
        # pair each I-generator with the first free J-generator whose leading form
        # is a scalar multiple of it, both looked up scaled to coefficient 1 at
        # their top sort_key term, and rescale that J-generator to lead with it
        def monic(p: Poly) -> Tuple[Poly, Fraction]:
            c = p.terms[max(p.terms, key=self.ring.sort_key)]
            return p / c, c

        free: Dict[Poly, List[Tuple[Fraction, Poly]]] = {}
        for _name, jp in jpolys:
            key, c = monic(jp.leading_order())
            free.setdefault(key, []).append((c, jp))
        pairs: List[Tuple[Poly, Poly]] = []  # (I-generator, J-generator rescaled to lead with it)
        for iname, ip in ipolys:
            key, c = monic(ip)
            if not free.get(key):
                raise VerificationError(f"no J-generator deforms I-generator {iname}")
            cj, jp = free[key].pop(0)
            pairs.append((ip, jp * (c / cj)))
        coeffs = expand_rational_fn(formula, 4 * len(formula.numerator) + 64)
        top = max((i for i, c in enumerate(coeffs) if c), default=-2)
        top_j = max((jp.degree() for _name, jp in jpolys), default=0)
        want = {d: coeffs[d] if d <= top else 0 for d in range(0, max(top + 6, top_j) + 1, 2)}
        self._certified_operators(pairs, want, jpolys)

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

    def _reconstruct(self, residues: List[List[int]], modulus: int) -> Optional[List[_Columns]]:
        """The rational operators with the given residue columns, or None; the lcm of
        the reduced denominators of the nonzero entries leaves each in lowest terms."""
        D = self.dim
        ops = []
        for k in range(len(self.ring.var_names)):
            cols = [{i: _rational(x, modulus) for i, x in enumerate(col) if x}
                    for col in residues[k * D:(k + 1) * D]]
            if any(None in col.values() for col in cols):
                return None
            den = math.lcm(*(d for col in cols for _n, d in col.values()))
            ops.append(([{i: n * (den // d) for i, (n, d) in col.items()} for col in cols], den))
        return ops

    def _certify(self, ops: List[_Columns]) -> bool:
        """Take ``ops`` as the operators of the ring variables, in ``var_names``
        order, with a fresh monomial-vector memo; check the certificate (a)-(d)."""
        self._columns = ops
        self._memo: Dict[Exponents, Tuple[Dict[int, int], int]] = (
            {self.ring.zero_exponents(): ({0: 1}, 1)} if self.basis else {})
        return (self._commute()
                and all(self._vector(b) == ({i: 1}, 1) for i, (_d, b) in enumerate(self.basis))
                and not any(any(self.normal_form(jp)) for _name, jp in self.J.gens)
                and self._leads())

    def _commute(self) -> bool:
        """(a), column by column on the integer columns (the denominators cancel)."""
        return all(_apply(a, b[j]) == _apply(b, a[j])
                   for (a, _), (b, _) in combinations(self._columns, 2) for j in range(self.dim))

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
        """Coordinates of f modulo J over the basis: f(M) e_1.  In
        omega-coordinates f must lie in the model's ring."""
        f = f.change_coordinates(OMEGA)
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
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

    def _traces(self) -> List[Fraction]:
        """The trace form: tau_b = tr(M_b) for each basis monomial b, so that
        tr(f(M)) = tau . f(M) e_1.  Column c of M_b is (b*c)(M) e_1; the diagonal
        numerators are summed over their lcm."""
        taus = []
        for _d, b in self.basis:
            cols = [(i, self._vector(tuple(map(add, b, c)))) for i, (_d, c) in enumerate(self.basis)]
            terms = [(nums[i], den) for i, (nums, den) in cols if i in nums]
            den = math.lcm(*(d for _x, d in terms))
            taus.append(Fraction(sum(x * (den // d) for x, d in terms), den))
        return taus

    def membership(self, f: Poly) -> bool:
        return not any(self.normal_form(f))

    def operator(self, var: str) -> Matrix:
        """Multiplication operator by a ring variable over the basis, as a fresh
        dense matrix built from the stored columns."""
        columns, den = self._columns[self.ring.var_index(var)]
        D = len(columns)
        return Matrix.from_integers([[col.get(i, 0) for col in columns] for i in range(D)], den, D)


# -- standard models ---------------------------------------------------------------

_model_cache: Dict[Tuple[int, str, Optional[Fraction]], QuotientModel] = {}


def _one_point_ideals(g: int, sign: str = "+", theta: Optional[Fraction] = None):
    """(J, I, formula) of the one-point model (optionally u = theta)."""
    local = theta is not None
    if local and not theta:
        raise ValueError("theta must be a nonzero rational")
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


def _times_factors(op: _Columns, factors,
                   vec: Tuple[Dict[int, int], int]) -> Tuple[Dict[int, int], int]:
    """prod (op - lam)^m vec over the pairs (lam, m), integer lam: op as stored in
    ``QuotientModel._columns``, vec its nonzero integer entries over one denominator,
    in lowest terms.  It stops once vec is 0, which every factor keeps at 0."""
    (columns, cden), (nums, den) = op, vec
    for lam, m in factors:
        for _ in range(m):
            if not nums:
                return nums, 1
            out = _apply(columns, nums)
            for i, x in nums.items():
                out[i] = out.get(i, 0) - lam * cden * x
            den *= cden
            g = math.gcd(den, *out.values())
            nums, den = {i: x // g for i, x in out.items() if x}, den // g
    return nums, den


def eigen_verify(g: int, sign: str = "+", theta: Optional[Fraction] = None) -> EigenReport:
    """Spectral verification of the one-point model.

    At u = 1: the beta = 2 generalized eigenspace V2 carries the alternating
    odd alpha-spectrum, gamma and delta are nilpotent there, and the top pair
    eigenspace is one-dimensional.  e_1 = 1 generates R/J (certificate (b) of
    ``QuotientModel``), so P(M) = 0 iff P(M) e_1 = 0, and every check is an
    identity on v = (beta + 2)^g e_1 (Cox-Little-O'Shea, *Using Algebraic
    Geometry*, Ch. 2 Sections 4-5), by products of sparse integer columns that
    stop once the vector is 0.  (beta - 2)^g v = 0 puts the beta-spectrum in
    {2, -2} and makes V2 = R v.  Then tr(X | V2) = tau . (X v) / 4^g with the
    trace form tau, as (beta + 2)^g is 0 on the beta = -2 part and 4^g plus a
    nilpotent commuting with X on V2; d = tr(1 | V2) = dim V2.  gamma^d v =
    delta^d v = 0 proves nilpotency.  delta is then nilpotent on V2 and
    commutes with omega, so alpha = omega - delta/2 has omega's generalized
    eigenspaces there and tr(alpha^k | V2) = tr(omega^k | V2): no alpha is
    formed.  The alpha-multiplicities m_i solve sum_i m_i l_i^k = tr(omega^k
    | V2), k < g, and prod_i (omega - l_i)^m_i v = 0 proves them: it puts the
    omega-spectrum on V2 in {l_i}, and the Vandermonde system in distinct l_i
    has one solution.  At u = theta: the local eigenvalue tuple is checked by
    evaluation on the generators and by operator kernels inside the beta = 2
    eigenspace.
    """
    if g < 1:
        raise ValueError("g must be >= 1")
    model = model_for(g, sign, theta)
    if theta is not None:
        return _eigen_verify_local(g, sign, theta, model)
    omega, beta, gamma, delta = model._columns  # var_names of the one-point ring
    v = _times_factors(beta, [(-2, g)], ({0: 1}, 1))
    if _times_factors(beta, [(2, g)], v)[0]:
        raise AssertionError("beta has an eigenvalue other than 2 and -2")
    lambdas = [lam if sign == "+" else -lam for lam in _lambda_seq(g)]
    h = len(lambdas)
    powers = [v]  # omega^k v, k < h
    while len(powers) < h:
        powers.append(_times_factors(omega, [(0, 1)], powers[-1]))
    tau = model._traces()
    traces = [Fraction(sum(tau[i] * x for i, x in nums.items()), den * 4 ** g)
              for nums, den in powers]  # tr(omega^k | V2)
    if traces[0] < 1 or traces[0].denominator != 1:
        raise AssertionError(f"the beta=2 subspace has dimension {traces[0]}")
    dim = int(traces[0])
    for name, op in (("gamma", gamma), ("delta", delta)):
        if _times_factors(op, [(0, dim)], v)[0]:
            raise AssertionError(f"{name} is not nilpotent on the beta=2 subspace")
    system = [[lam ** k for lam in lambdas] + [t] for k, t in enumerate(traces)]
    mults = linalg.row_reduce(Matrix(system, h + 1))[0].col(h)
    if (any(m.denominator != 1 or m < 0 for m in mults)
            or _times_factors(omega, [(lam, int(m)) for lam, m in zip(lambdas, mults)], v)[0]):
        raise AssertionError("unexpected alpha spectrum on the beta=2 subspace")
    tuples = []
    for lam, mult in zip(lambdas, map(int, mults)):
        if mult < 1:
            raise AssertionError(f"missing alpha eigenvalue {lam} on the beta=2 subspace")
        tuples.append({"alpha": Fraction(lam), "beta": Fraction(2), "gamma": Fraction(0),
                       "delta": [Fraction(0)], "gen_mult": mult})
    # top simultaneous generalized eigenspace for (alpha, beta) is 1-dimensional;
    # V2 is alpha-invariant, so it is the top lambda's one on V2
    top = tuples[-1]["gen_mult"]
    if top != 1:
        raise AssertionError(f"top simultaneous eigenspace has dimension {top}, wanted 1")
    return EigenReport(dim, model.dim, tuples)


def local_eigen_point(g: int, sign: str, theta: Fraction) -> Dict[str, Fraction]:
    """The local eigen tuple {omega, delta1, beta, gamma} of the one-point model
    at u = theta: omega = s*(2g - 2 + (theta + 1/theta)/2), delta1 = s*(1/theta -
    theta), beta = 2, gamma = 0, with s = (-1)^(g+1) for sign '+' and its
    negative for '-'."""
    theta = Fraction(theta)
    if not theta:
        raise ValueError("theta must be a nonzero rational")
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
    # operator route: the simultaneous generalized eigenspace is nontrivial; it lies
    # in V2, so the other operators are restricted to V2 once and intersected there
    v2 = linalg.generalized_eigenspace(model.operator("beta"), tup["beta"])
    names = ("omega", "delta1", "gamma")
    ops = linalg.restrict([model.operator(var) for var in names], v2)
    mult = reduce(subspace_intersection, [linalg.generalized_eigenspace(op, tup[var])
                                          for var, op in zip(names, ops)]).rows
    if mult < 1:
        raise AssertionError("local eigen tuple is not realized by the operators")
    alpha_val = w_val - d_val / 2
    return EigenReport(mult, model.dim, [{
        "alpha": alpha_val, "beta": Fraction(2), "gamma": Fraction(0),
        "delta": [d_val], "gen_mult": mult,
    }])


# -- sub-leading solver and marked-point models ---------------------------------------


# (g, n) -> solution; marked_model(g, n) solves g - 1, g and g + 1 at n points
_solve_cache: Dict[Tuple[int, int], GeneratorSet] = {}


def solve_subleading(g: int, n: int = 3) -> GeneratorSet:
    """Solve for the minimal-degree relation at n marked points, n odd >= 3.

    With m = (n-1)/2, the ansatz is W(g, n, eta, +1) with eta = {} for odd m
    and {1} for even m (``EtaChoice``'s parity rule), plus h with
    deg h <= 2(g+m-2), h over canonical monomials.  Constraints: the
    point-reduction images of the even-flip orbit reduce to zero in the
    (n-2)-point model at the same g, and the candidate vanishes at the
    alternating odd evaluation points (lambda, 2, 0, 0, ...).  The system must
    have a unique solution.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be an odd integer >= 3")
    if g < 0:
        raise ValueError("g must be >= 0")
    if (g, n) in _solve_cache:
        return _solve_cache[g, n]
    m = (n - 1) // 2
    rng = ring(n, coordinate=OMEGA)
    base = w_skeleton(g, n, EtaChoice(() if m % 2 else (1,), n), 1)
    # unknowns: canonical monomials of degree <= 2(g+m-2)
    unknowns: List[Exponents] = []
    spec = model_spec(g)
    for d in range(0, max(-1, 2 * (g + m - 2)) + 1, 2):
        unknowns.extend(canonical_monomials(rng, spec, d))
    model = model_for(g, "+") if n == 3 else marked_model(g, n - 2)
    rows: List[List[Fraction]] = []  # the augmented system [A | rhs]
    for I in flip_subsets(n, even=True):
        nf_base = model.normal_form(base.flip(I).pi_reduce())
        nf_unknowns = [model.normal_form(Poly.monomial(rng, mono).flip(I).pi_reduce())
                       for mono in unknowns]
        rows.extend([vu[i] for vu in nf_unknowns] + [-b] for i, b in enumerate(nf_base))
    # evaluation constraints at (lambda, 2, 0, 0, ...)
    zeros = [0] * n
    for lam in _lambda_seq(g + m):
        rows.append([Poly.monomial(rng, mono).evaluate_alpha_point(lam, 2, 0, zeros)
                     for mono in unknowns] + [-base.evaluate_alpha_point(lam, 2, 0, zeros)])
    # one RREF: the rhs column leads a row iff the system is infeasible
    k = len(unknowns)
    R, pivots = linalg.row_reduce(Matrix(rows, k + 1))
    if k in pivots:
        raise VerificationError("sub-leading system is infeasible (convention drift)")
    if len(pivots) < k:
        raise VerificationError("sub-leading system is not unique (convention drift)")
    f_hat = base + Poly(rng, {mono: R[i, k] for i, mono in enumerate(unknowns)})
    out = _solve_cache[g, n] = GeneratorSet(
        label=f"X_{{{g},{n}}}", ambient=rng, gens=flip_orbit(f_hat, f"fhat_{{{g},{n}}}", n),
        meta={"g": g, "n": n, "sign": "+", "f_hat": f_hat},
    )
    return out


def _marked_ideals(g: int, n: int):
    """(J, I, formula) of the n-point model, n odd >= 3, from solver output.

    J: the even-flip orbits of fhat_g and fhat_{g+1} and, for g >= 1, gamma
    times the orbit of fhat_{g-1}; then delta_i^2 + beta - 2 and gamma^{g+1}.
    I: ``igen(g, n, "even")`` without its xi_{g+m+2} orbit; for g >= 1,
    gamma^{g+1} gives way to gamma times the xi_{g+m-1} orbit, with igen's
    flips, last."""
    m = (n - 1) // 2
    rng = ring(n, coordinate=OMEGA)
    gamma_p, beta_p = Poly.variable(rng, "gamma"), Poly.variable(rng, "beta")
    jgens = list(solve_subleading(g, n).gens)
    jgens += [(f"{name}@{g + 1}", p) for name, p in solve_subleading(g + 1, n).gens]
    if g >= 1:
        jgens += [(f"gamma*{name}", gamma_p * p) for name, p in solve_subleading(g - 1, n).gens]
    for i in range(1, n + 1):
        di = Poly.variable(rng, f"delta{i}")
        jgens.append((f"delta{i}^2+beta-2", di * di + beta_p - 2))
    jgens.append((f"gamma^{g + 1}", gamma_p ** (g + 1)))
    J = GeneratorSet(f"J_{{{g},{n}}}^+", rng, jgens,
                     meta={"g": g, "n": n, "sign": "+", "local": False})
    I_full = igen(g, n, "even")
    top = f"xi_{{{g + m + 2},{n}}}"
    igens = [(name, p) for name, p in I_full.gens if top not in name]
    if g >= 1:
        k, rng_a = g + m - 1, I_full.ambient
        igens = [gen for gen in igens if gen[0] != f"gamma^{g + 1}"]
        # igen's flips at parity "even": even exactly when m is odd
        igens += [(f"gamma*{name}", Poly.variable(rng_a, "gamma") * p) for name, p in
                  flip_orbit(xi(k, n, target=rng_a), f"xi_{{{k},{n}}}", n, m % 2 == 1)]
    I = GeneratorSet(I_full.label, I_full.ambient, igens, meta=I_full.meta)
    return J, I, ptgn_series(g, n)


def marked_model(g: int, n: int) -> QuotientModel:
    """Filtered model of the n-point quotient, n odd >= 3, built from solver
    output."""
    return QuotientModel(*_marked_ideals(g, n))
