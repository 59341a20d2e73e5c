"""Independent slow paths that the tests compare the package against.

Nothing in the package calls these; each one re-derives a result of a fast path
by a plainer method.
"""

import heapq
import math
from fractions import Fraction
from itertools import combinations
from operator import add, mul
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from instanton import floer
from instanton.floer import VerificationError
from instanton.linalg import (Matrix, _echelon, _integer_row, _stable_power, restrict, row_reduce,
                              rref)
from instanton.poly import (LAURENT_U, OMEGA, RATIONAL, Exponents, LaurentU, Poly,
                            RingDescriptor, monomials_of_degree, ring)
from instanton.quotient import (QuotientSpec, canonical_monomials, canonical_rep, delta_support,
                                rbar_spec)
from instanton.relations import GeneratorSet, xi
from instanton.series import (COEFF_RING, RationalFn, binomial_coeff,
                              expand_rational_fn, poly_mul)


def row_rank(rows: Iterable[Dict[int, Fraction]], cols: int) -> int:
    """Exact rank of sparse rational rows ``{column: value}`` with ``cols``
    columns: each row is cleared over its denominators
    (``linalg._integer_row``) and handed to the package's rank kernel
    ``linalg._echelon``, which the graded ranks of ``floer._graded_ranks``
    feed with integer rows directly."""
    return len(_echelon(map(_integer_row, rows), cols))


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
        c = -sum(Mk[i, i] for i in range(n)) / k
        coeffs[n - k] = c
        Mk = Mk + Matrix.identity(n).scale(c)
    return coeffs


def generalized_eigenspace_dim(M: Matrix, lam) -> int:
    """dim ker (M - lam)^dim(M), from the rank of the first stable power: one
    exact elimination chain per eigenvalue, where :func:`eigen_multiplicities`
    reads all of them from traces."""
    return M.rows - _stable_power(M, lam)[1]


def is_nilpotent_on(M: Matrix, basis: Matrix) -> bool:
    """Whether R = M restricted to the span of ``basis`` has R^k = 0, k = basis.rows.

    R^m is squared until it is zero; a nonzero R^m with m >= k means R^k != 0.
    """
    k = basis.rows
    if k == 0:
        return True
    power = restrict([M], basis)[0]
    exponent = 1
    while not power.is_zero():
        if exponent >= k:
            return False
        power = power * power
        exponent *= 2
    return True


def matrix_power(M: Matrix, k: int) -> Matrix:
    """M^k for a square M and k >= 0, by repeated squaring."""
    if M.rows != M.cols:
        raise ValueError("power needs a square matrix")
    if k < 0:
        raise ValueError("power needs a non-negative exponent")
    result, base = Matrix.identity(M.rows), M
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


def _trace_product(X: Matrix, Y: Matrix) -> Fraction:
    """tr(X*Y) = sum_rs X_rs Y_sr, without forming X*Y."""
    return Fraction(sum(sum(map(mul, r, c)) for r, c in zip(X.nums, zip(*Y.nums))),
                    X.den * Y.den)


def eigen_multiplicities(A: Matrix, lambdas: Sequence) -> Optional[List[int]]:
    """Generalized multiplicities m_i = dim ker (A - l_i)^n (n = A.rows) of the
    distinct values ``lambdas``, or None if A has an eigenvalue outside them.

    The m_i solve sum_i m_i l_i^k = tr(A^k) for k < len(lambdas), and must be
    non-negative integers with prod_i (A - l_i)^m_i = 0.  Proof: that product
    puts the spectrum of A in {l_i}, so tr(A^k) = sum_i d_i l_i^k with the true
    multiplicities d_i; the system is Vandermonde in distinct l_i, so m_i = d_i.
    Conversely the d_i pass: prod_i (A - l_i)^d_i is the characteristic
    polynomial at A, zero by Cayley-Hamilton.  The matrix form of the check
    that ``floer.eigen_verify`` runs on one cyclic vector.
    """
    lambdas = [Fraction(lam) for lam in lambdas]
    h, n = len(lambdas), A.rows
    if len(set(lambdas)) != h:
        raise ValueError("eigenvalues must be distinct")
    # tr(A^k) = tr(A^ceil(k/2) A^floor(k/2)), so only A^j with j <= h/2 is formed
    powers = [Matrix.identity(n), A]
    while len(powers) <= h // 2:
        powers.append(powers[-1] * A)
    system = [[lam ** k for lam in lambdas] + [_trace_product(powers[(k + 1) // 2], powers[k // 2])]
              for k in range(h)]
    mults = row_reduce(Matrix(system, h + 1))[0].col(h)
    if any(m.denominator != 1 or m < 0 for m in mults):
        return None
    product = Matrix.identity(n)
    for lam, m in zip(lambdas, mults):
        product = product * matrix_power(A - Matrix.identity(n).scale(lam), int(m))
    return [int(m) for m in mults] if product.is_zero() else None


def times_factors(op: Matrix, factors, vec: Matrix) -> Matrix:
    """prod (op - lam)^m vec over the pairs (lam, m), by dense matrix-vector
    products through every factor: the route that ``floer._times_factors``
    runs on sparse integer columns."""
    for lam, m in factors:
        for _ in range(m):
            vec = op * vec - vec.scale(lam)
    return vec


def alpha_operator(model) -> Matrix:
    """alpha = omega - (delta_1 + ... + delta_n)/2 on a quotient model in
    omega-coordinates, by ``Matrix`` arithmetic on its variables' operators."""
    m = model.operator(OMEGA)
    for i in range(1, model.ring.n + 1):
        m = m - model.operator(f"delta{i}").scale(Fraction(1, 2))
    return m


def sparse_columns(op: Matrix) -> Tuple[List[Dict[int, int]], int]:
    """``op`` as its nonzero integer columns over its denominator: the form in
    which ``floer.QuotientModel`` stores an operator, read off a dense matrix."""
    return [{i: x for i, x in enumerate(col) if x} for col in zip(*op.nums)], op.den


def det_fraction_oracle(M: Matrix) -> Fraction:
    """The determinant of a square matrix by Gauss elimination over Fraction."""
    a = [list(r) for r in M.data]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        p = next((i for i in range(c, n) if a[i][c]), None)
        if p is None:
            return Fraction(0)
        if p != c:
            a[c], a[p] = a[p], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for i in range(c + 1, n):
            if a[i][c]:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def leading_minors_by_blocks(M: Matrix) -> List[Fraction]:
    """``det_fraction_oracle`` of each leading k x k block of M, k = 1, 2, ...,
    up to and including the first zero."""
    minors = []
    for k in range(1, M.rows + 1):
        minors.append(det_fraction_oracle(Matrix([row[:k] for row in M.data[:k]], k)))
        if not minors[-1]:
            break
    return minors


def apply(M: Matrix, v: Sequence) -> List[Fraction]:
    """M v for a vector v, as the column of M times the one-column matrix of v."""
    if len(v) != M.cols:
        raise ValueError("shape mismatch")
    return (M * Matrix([[x] for x in v], 1)).col(0)


def solve(M: Matrix, b: Sequence) -> Optional[List[Fraction]]:
    """One solution of M x = b, or None if inconsistent."""
    R, pivots, _ = rref(Matrix([list(row) + [bi] for row, bi in zip(M.data, b)], M.cols + 1))
    if M.cols in pivots:
        return None
    x = [Fraction(0)] * M.cols
    for i, p in enumerate(pivots):
        x[p] = R[i, M.cols]
    return x


def _summed_one_by_one(pairs) -> dict:
    """The term format without ``poly._summed``: pairs added one at a time, a
    key removed as soon as its sum is zero."""
    out = {}
    for k, c in pairs:
        s = out[k] + c if k in out else c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def poly_mul_by_fractions(p: Poly, q: Poly) -> Poly:
    """p * q with one coefficient product and one coefficient sum per pair of
    terms: the product before it ran on integer numerators."""
    pairs = ((tuple(map(add, e1, e2)), c1 * c2) for e1, c1 in p.terms.items()
             for e2, c2 in q.terms.items())
    return Poly(p.ring, _summed_one_by_one(pairs), _normalized=True)


def first_substituted_by_fractions(ring, image: Poly,
                                   pairs: Iterable[Tuple[Exponents, object]]) -> Poly:
    """``poly._first_substituted`` on the coefficients as they are: each term
    with its first variable replaced by the power of ``image``, the powers
    built by :func:`poly_mul_by_fractions`."""
    powers = [Poly.constant(ring, 1)]

    def terms():
        for exps, coeff in pairs:
            a = exps[0]
            if not a:
                yield exps, coeff
                continue
            while len(powers) <= a:
                powers.append(poly_mul_by_fractions(powers[-1], image))
            rest = (0,) + exps[1:]
            for e, c in powers[a].terms.items():
                yield tuple(map(add, e, rest)), c * coeff

    return Poly(ring, _summed_one_by_one(terms()), _normalized=True)


def flip_round_trip(p: Poly, I: Iterable[int]) -> Poly:
    """tau_I by way of omega-coordinates, where it only negates delta_i for i in
    I: change to omega, negate, change back."""
    cols = [2 + i for i in I]
    w = p.change_coordinates(OMEGA)
    flipped = Poly.from_terms(w.ring, ((e, -c if sum(e[j] for j in cols) % 2 else c)
                                       for e, c in w.terms.items()))
    return flipped.change_coordinates(p.ring.coordinate)


def orbit_by_round_trip(p: Poly, label: str, n: int, even: bool = True
                        ) -> List[Tuple[str, Poly]]:
    """The named flip orbit of p, built by hand with :func:`flip_round_trip`."""
    return [(f"tau_{{{','.join(map(str, I))}}}({label})", flip_round_trip(p, I))
            for size in range(0 if even else 1, n + 1, 2)
            for I in combinations(range(1, n + 1), size)]


def canonical_rep_two_step(f: Poly, spec: QuotientSpec) -> Poly:
    """The canonical representative by two passes: the full change to
    omega-coordinates, then one fold of delta_i^2 -> -beta per term.

    Slow-path oracle for :func:`instanton.quotient.canonical_rep`, which never
    forms the unreduced omega-coordinate expansion; the two agree term for term.
    """
    f = f.change_coordinates(OMEGA)
    ring = f.ring
    G = spec.gamma_truncation
    minus_beta = -Poly.variable(ring, "beta")
    minus_beta_powers: Dict[int, Poly] = {}  # (-beta)^k
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
            if k not in minus_beta_powers:
                minus_beta_powers[k] = minus_beta ** k
            reduced = exps[:3] + tuple(d % 2 for d in deltas) + exps[ds.stop:]
            for e, c2 in minus_beta_powers[k].terms.items():
                yield tuple(map(add, e, reduced)), c2 * coeff

    terms = pairs()
    if spec.beta_zero:
        terms = ((e, c2) for e, c2 in terms if not e[1])
    return Poly.from_terms(ring, terms)


def dense_reduce_oracle(f: Poly, spec: QuotientSpec) -> Poly:
    """Second, naive reduction path: rewrite one delta-square at a time to a fixpoint."""
    g = f.change_coordinates(OMEGA)
    ring = g.ring
    minus_beta = -Poly.variable(ring, "beta")
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
                out = out + Poly.monomial(ring, tuple(lowered), coeff) * minus_beta
        g = out
    if spec.beta_zero:
        g = Poly.from_terms(g.ring, ((e, c2) for e, c2 in g.terms.items() if e[1] == 0))
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


# -- the Fraction lift-table model -------------------------------------------------


def _subtract_multiples(terms: Dict[Exponents, object],
                        multipliers: List[Tuple[int, Fraction]],
                        lifts: Dict[int, Poly]) -> None:
    """terms -= sum f * lifts[p] over the (p, f) multipliers, in place."""
    for p, f in multipliers:
        for e, c in lifts[p].terms.items():
            s = terms.get(e)
            s = -(c * f) if s is None else s - c * f
            if s:
                terms[e] = s
            else:
                del terms[e]


class _DegreeTable:
    """Per-degree elimination data for the graded ideal piece: unit-led pivot
    rows and, per pivot p, a lift in the J-ideal whose degree-d component is
    sum_j pivot_rows[p][j] * monomials[j].  Lifts exist for pivots only."""

    __slots__ = ("monomials", "index", "pivot_rows", "lifts", "basis")

    def __init__(self, monomials: List[Exponents]):
        self.monomials = monomials
        self.index = {m: i for i, m in enumerate(monomials)}
        self.pivot_rows: Dict[int, Dict[int, Fraction]] = {}  # pivot column -> unit-led row
        self.lifts: Dict[int, Poly] = {}  # pivot column -> lift realizing that row
        self.basis: List[Exponents] = []

    def reduce_vector(self, row: Dict[int, Fraction]):
        """Fully reduce a sparse vector against the echelon.

        Returns (residual, multipliers) with row == residual + sum f * pivot_rows[p]
        over the (p, f) multipliers; the residual carries no pivot index, so for
        complete tables it is supported on basis monomials only.
        """
        row = dict(row)
        residual: Dict[int, Fraction] = {}
        multipliers: List[Tuple[int, Fraction]] = []
        while row:
            p = min(row)
            prow = self.pivot_rows.get(p)
            if prow is None:
                residual[p] = row.pop(p)
                continue
            f = row[p]
            multipliers.append((p, f))
            for j, c in prow.items():
                s = row.get(j, Fraction(0)) - f * c
                if s:
                    row[j] = s
                else:
                    row.pop(j, None)
        return residual, multipliers


def _scalar_ratio(a: Poly, b: Poly) -> Optional[Fraction]:
    """If a == c*b for a scalar c, return 1/c (to rescale); else None."""
    if a.is_zero() or b.is_zero() or len(a.terms) != len(b.terms):
        return None
    items = iter(a.terms.items())
    e0, c0 = next(items)
    cb = b.terms.get(e0)
    if cb is None:
        return None
    ratio = c0 / cb if not isinstance(c0, LaurentU) else None
    if ratio is None:
        return None
    for e, c in a.terms.items():
        if b.terms.get(e) is None or b.terms[e] * ratio != c:
            return None
    return Fraction(1) / ratio


def deforming_pairs_by_scan(ipolys: List[Tuple[str, Poly]], jpolys: List[Tuple[str, Poly]]
                            ) -> List[Tuple[Poly, Poly]]:
    """(I-generator, J-generator rescaled to lead with it) pairs: for each
    I-generator, the first unused J-generator whose leading form is a scalar
    multiple of it, found by scanning every J-generator.  Oracle for the
    leading-form lookup of ``floer.QuotientModel._build``."""
    pairs = []
    used: Set[int] = set()
    for iname, ip in ipolys:
        match = None
        for idx, (jname, jp) in enumerate(jpolys):
            if idx in used:
                continue
            lead = jp.leading_order()
            scaled = _scalar_ratio(lead, ip)
            if scaled is not None:
                match = (idx, scaled)
                break
        if match is None:
            raise VerificationError(f"no J-generator deforms I-generator {iname}")
        idx, scale = match
        used.add(idx)
        pairs.append((ip, jpolys[idx][1] * scale))
    return pairs


class LiftTableModel:
    """Monomial basis, lift table and multiplication operators for a quotient by
    an inhomogeneous ideal whose leading terms generate a known graded ideal.

    The model build over ``Fraction`` that ``floer.QuotientModel`` replaced:
    per-degree lift polynomials in J for the pivot rows, normal forms by degree
    descent, and operators from the normal forms."""

    def __init__(self, J: GeneratorSet, I: GeneratorSet, formula: Optional[RationalFn] = None):
        self.J = J
        self.I = I
        self.ring = J.ambient.with_coordinate(OMEGA)
        self._tables: Dict[int, _DegreeTable] = {}
        self._op_cache: Dict[str, Matrix] = {}
        self._build(formula)

    # construction ---------------------------------------------------------------

    def _build(self, formula: Optional[RationalFn]):
        jpolys = [(name, p.change_coordinates(OMEGA)) for name, p in self.J.gens]
        ipolys = [(name, p.change_coordinates(OMEGA)) for name, p in self.I.gens]
        for name, ip in ipolys:
            if not ip.is_homogeneous():
                raise ValueError(f"I-generator {name} is not homogeneous")
        self._pairs = deforming_pairs_by_scan(ipolys, jpolys)
        formula_coeffs = None
        if formula is not None:
            n_coeffs = expand_rational_fn(formula, 4 * len(formula.numerator) + 64)
            top = max((i for i, c in enumerate(n_coeffs) if c), default=-1)
            formula_coeffs = n_coeffs[: top + 1]
        # basis degrees: iterate until formula exhausted and three consecutive zeros
        d = 0
        zeros = 0
        top_formula = len(formula_coeffs) - 1 if formula_coeffs is not None else None
        while True:
            table = self._ensure_degree(d)
            dim_d = len(table.basis)
            if formula_coeffs is not None:
                want = formula_coeffs[d] if d < len(formula_coeffs) else 0
                if dim_d != want:
                    raise VerificationError(
                        f"graded quotient dimension mismatch at degree {d}: "
                        f"computed {dim_d}, formula {want}")
            zeros = zeros + 1 if dim_d == 0 else 0
            past_formula = top_formula is None or d > top_formula
            if past_formula and zeros >= 3 and d >= 2:
                break
            d += 2
        self.basis: List[Tuple[int, Exponents]] = []
        for deg in sorted(self._tables):
            for mono in self._tables[deg].basis:
                self.basis.append((deg, mono))
        self.basis_index = {bm: i for i, bm in enumerate(self.basis)}
        # every J-generator must reduce to zero
        for name, jp in jpolys:
            coords = self.normal_form(jp)
            if any(coords):
                raise VerificationError(f"J-generator {name} has nonzero normal form; "
                                        "J does not deform I")

    def _ensure_degree(self, d: int) -> _DegreeTable:
        if d in self._tables:
            return self._tables[d]
        for dd in range(0, d + 1, 2):
            if dd in self._tables:
                continue
            table = _DegreeTable(monomials_of_degree(self.ring, dd))
            for ip, jp in self._pairs:
                gdeg = ip.degree()
                if gdeg > dd:
                    continue
                for mono in monomials_of_degree(self.ring, dd - gdeg):
                    prod = ip.times_monomial(mono)
                    row = {table.index[e]: c for e, c in prod.terms.items()}
                    residual, multipliers = table.reduce_vector(row)
                    if not residual:
                        continue
                    # only a new pivot needs its lift: jp*mono minus the used lifts
                    lift = dict(jp.times_monomial(mono).terms)
                    _subtract_multiples(lift, multipliers, table.lifts)
                    p = min(residual)
                    inv = Fraction(1) / residual[p]
                    table.pivot_rows[p] = {j: c * inv for j, c in residual.items()}
                    table.lifts[p] = Poly.from_terms(self.ring,
                                                     ((e, c * inv) for e, c in lift.items()))
            table.basis = [table.monomials[i] for i in range(len(table.monomials))
                           if i not in table.pivot_rows]
            if hasattr(self, "basis") and table.basis:
                raise ValueError(f"unexpected new basis monomials at degree {dd}")
            self._tables[dd] = table
        return self._tables[d]

    # queries ---------------------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self.basis)

    def normal_form(self, f: Poly) -> List[Fraction]:
        """Coordinates of f over the basis, reducing modulo the J-ideal."""
        f = f.change_coordinates(OMEGA)
        if f.ring != self.ring:
            raise ValueError("ring mismatch")
        coords = [Fraction(0)] * len(getattr(self, "basis", []))
        guard = 0
        while not f.is_zero():
            guard += 1
            if guard > 10000:
                raise RuntimeError("normal form failed to terminate")
            d = f.degree()
            if d % 2:
                raise ValueError("odd-degree input cannot occur in this grading")
            table = self._ensure_degree(d)
            top = f.homogeneous_component(d)
            row = {table.index[e]: c for e, c in top.terms.items()}
            residual, multipliers = table.reduce_vector(row)
            # f - sum f_p * lift_p - residual loses its degree-d part; the
            # residual is supported on basis monomials
            terms = dict(f.terms)
            _subtract_multiples(terms, multipliers, table.lifts)
            for i, c in residual.items():
                mono = table.monomials[i]
                coords[self.basis_index[(d, mono)]] += c
                s = terms.get(mono, Fraction(0)) - c
                if s:
                    terms[mono] = s
                else:
                    del terms[mono]
            f = Poly.from_terms(self.ring, terms.items())
            new_deg = f.degree()
            if not f.is_zero() and new_deg >= d:
                raise RuntimeError("degree did not descend during reduction")
        return coords

    def membership(self, f: Poly) -> bool:
        return not any(self.normal_form(f))

    def operator(self, var: str) -> Matrix:
        """Multiplication operator by a ring variable over the basis."""
        if var in self._op_cache:
            return self._op_cache[var]
        vp = Poly.variable(self.ring, var)
        cols = []
        for _d, mono in self.basis:
            cols.append(self.normal_form(vp.times_monomial(mono)))
        mat = Matrix([[cols[j][i] for j in range(len(cols))] for i in range(len(self.basis))])
        self._op_cache[var] = mat
        return mat

    def operators_commute(self) -> bool:
        names = ["omega", "beta", "gamma"] + [f"delta{i}" for i in range(1, self.ring.n + 1)]
        ops = [self.operator(nm) for nm in names]
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if ops[i] * ops[j] != ops[j] * ops[i]:
                    return False
        return True


def exact_basis(J: GeneratorSet, I: GeneratorSet, formula: RationalFn) -> List[Tuple[int, Exponents]]:
    """The standard monomial basis of R/I over Q, as ``floer.QuotientModel``
    took it before it decided its pivots mod p: in each even degree of the
    window 0..max(T + 6, top degree of J), T the formula's top degree, the
    monomials that lead no vector of the degree piece of I in omega
    coordinates.  The rows are those of the free ring, with no fold: each
    I-generator times each cofactor of ``monomials_of_degree``, cleared over
    its denominators.  The leading columns are the keys of
    ``linalg._echelon``, the pivots ``rref`` would give without its transform,
    which on the thousands of rows of ``model_n3(2)`` costs minutes."""
    rng = J.ambient.with_coordinate(OMEGA)
    forms = [p.change_coordinates(OMEGA) for _name, p in I.gens]
    coeffs = expand_rational_fn(formula, 4 * len(formula.numerator) + 64)
    top = max((i for i, c in enumerate(coeffs) if c), default=-2)
    top_j = max(p.change_coordinates(OMEGA).degree() for _name, p in J.gens)
    basis = []
    for d in range(0, max(top + 6, top_j) + 1, 2):
        monos = monomials_of_degree(rng, d)
        index = {m: j for j, m in enumerate(monos)}
        rows = (_integer_row({index[e]: c for e, c in f.times_monomial(m).terms.items()})
                for f in forms if not f.is_zero()
                for m in monomials_of_degree(rng, d - f.degree()))
        pivots = _echelon(rows, len(monos))
        basis.extend((d, m) for j, m in enumerate(monos) if j not in pivots)
    return basis


def graded_ranks_by_products(gens: GeneratorSet, max_degree: int,
                             spec: Optional[QuotientSpec]) -> List[Tuple[int, int]]:
    """``floer._graded_ranks`` with its rows formed as they were before they
    were integer: each row is the ``Poly`` product of a generator's form and a
    cofactor monomial, brought to canonical form by ``canonical_rep`` in
    ``Fraction`` arithmetic (without a spec, the product itself), and the
    rational rows are ranked by ``linalg.row_rank``.  A marked set in omega
    coordinates gives the rows of its orbit representatives, each split into
    its projections on the blocks {S, S^c} of delta supports, as there."""
    rng = gens.ambient if spec is None else gens.ambient.with_coordinate(OMEGA)
    flip_closed = gens.flip_reps is not None and rng.coordinate == OMEGA

    def reduce(p: Poly) -> Poly:
        return p if spec is None else canonical_rep(p, spec)

    def monomials(d: int) -> List[Exponents]:
        return monomials_of_degree(rng, d) if spec is None else canonical_monomials(rng, spec, d)

    def block(mono: Exponents):
        support = delta_support(rng, mono)
        return frozenset((support, frozenset(range(1, rng.n + 1)) - support)) if flip_closed else None

    reps = gens.representatives() if flip_closed else gens
    forms = [reduce(p) for _name, p in reps.gens]
    out = []
    for d in range(max_degree + 1):
        basis = monomials(d)
        index = {m: i for i, m in enumerate(basis)}
        rows = []
        for form in forms:
            if form.is_zero():
                continue
            for mono in monomials(d - form.degree()):
                parts: Dict[object, Dict[int, Fraction]] = {}
                for e, c in reduce(form.times_monomial(mono)).terms.items():
                    if e in index:
                        parts.setdefault(block(e), {})[index[e]] = c
                rows.extend(parts.values())
        out.append((len(basis), row_rank(rows, len(basis))))
    return out


def heap_reduce_mod(row: Dict[int, int], pivots: Dict[int, Dict[int, int]], p: int,
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


def replay(lower: Dict[int, int], used: floer._Entries, tails: Dict[int, floer._Entries]) -> None:
    """Subtract f * tails[i] from ``lower`` for every multiplier (i, f) used."""
    for i, x in used:
        for j, c in tails[i]:
            lower[j] = lower.get(j, 0) - x * c


def folds_by_equality(ring, pairs: List[Tuple[Poly, Poly]]) -> Dict[int, Fraction]:
    """{exponent index of delta_i: c_i} for the first pair (I, J) per i with I
    equal to delta_i^2 + beta and J - I the constant -c_i."""
    zero, folds = ring.zero_exponents(), {}
    beta = zero[:1] + (1,) + zero[2:]
    for ip, jp in pairs:
        lower = {e: c for e, c in jp.terms.items() if e not in ip.terms}
        for i in range(3, 3 + ring.n):
            if (i not in folds and ip.terms == {zero[:i] + (2,) + zero[i + 1:]: 1, beta: 1}
                    and set(lower) <= {zero} and all(jp.terms[e] == 1 for e in ip.terms)):
                folds[i] = -lower.get(zero, Fraction(0))
    return folds


def fold_by_binomials(terms: Dict[Exponents, int], folds: Dict[int, int], p: int
                      ) -> Dict[Exponents, int]:
    """``terms`` mod p with delta_i^e = delta_i^(e mod 2) (c_i - beta)^(e div 2)
    expanded by the binomial theorem for every fold {i: c_i}."""
    out: Dict[Exponents, int] = {}
    for e, x in terms.items():
        parts = [(e, x)]
        for i, c in folds.items():
            parts = [(f[:1] + (f[1] + k,) + f[2:i] + (f[i] % 2,) + f[i + 1:],
                      y * math.comb(f[i] // 2, k) * pow(c, f[i] // 2 - k, p) * (-1) ** k)
                     for f, y in parts for k in range(f[i] // 2 + 1)]
        for f, y in parts:
            out[f] = (out.get(f, 0) + y) % p
    return {f: y for f, y in out.items() if y}


class HeapModularTables:
    """``floer._ModularTables`` as it was before it decided the basis with one
    dense elimination per I-row: every row through the heap of
    ``heap_reduce_mod``, with a ``% p`` on every update.  Like the package, it
    folds each delta_i^2 of a pair (delta_i^2 + beta, delta_i^2 + beta - c_i)
    into c_i - beta, but finds and expands the folds by its own means
    (``folds_by_equality``, ``fold_by_binomials``).

    The model's elimination over Z/p: the basis decision and normal forms.

    Columns number the monomials of the degrees of ``want`` whose folded
    delta_i have exponent <= 1, from the top down, within a degree in
    ``monomials_of_degree`` order, so a row's smallest column leads it.  Per
    degree d, in increasing order, the folded rows of the degree piece of I are
    taken mod p in ``_ideal_pieces`` order (I-generator index, then cofactor)
    and reduced against the degree-d parts of the stored rows; the rows of the
    folds themselves fold to zero.  Only a row that adds a pivot is formed
    again from the paired J-generator, folded, reduced on its degree-d
    columns, and stored whole and unit-led: it lies in J mod p, so its columns
    past degree d are the lower part of a lift of its degree-d part.  The basis
    is the monomials that lead no stored row.  A degree with fewer of them than
    ``want[d]`` is a mismatch, since rank_p <= rank_Q; one with more makes the
    prime unlucky.
    """

    def __init__(self, ring, pairs: List[Tuple[Poly, Poly]], want: Dict[int, int], p: int):
        self.p = p
        self.folds = {i: c.numerator * pow(c.denominator, -1, p) % p
                      for i, c in folds_by_equality(ring, pairs).items()}
        leading = dict.fromkeys(self.folds, 0)  # delta_i^2 -> -beta on the I-rows
        column = self.column = {}
        stop: Dict[int, int] = {}  # degree -> first column past that degree
        monos: Dict[int, List[Exponents]] = {}
        for d in sorted(want, reverse=True):
            monos[d] = [m for m in monomials_of_degree(ring, d)
                        if all(m[i] < 2 for i in self.folds)]
            for m in monos[d]:
                column[m] = len(column)
            stop[d] = len(column)

        def row(terms: Dict[Exponents, int], mono: Exponents, folds) -> Dict[int, int]:
            shifted = {tuple(map(add, e, mono)): c for e, c in terms.items()}
            return {column[e]: c for e, c in fold_by_binomials(shifted, folds, p).items()}

        mod_pairs = [(ip.degree(), floer._mod_terms(ip.terms, p), floer._mod_terms(jp.terms, p))
                     for ip, jp in pairs]
        rows = self.rows = {}
        self.basis: List[Tuple[int, Exponents]] = []
        for d in sorted(want):
            heads: Dict[int, Dict[int, int]] = {}  # the degree-d parts of the rows stored at d
            for gdeg, iterms, jterms in mod_pairs:
                for mono in monos.get(d - gdeg, ()):
                    if (len(heads) == len(monos[d])
                            or not heap_reduce_mod(row(iterms, mono, leading), heads, p)):
                        continue
                    residual = heap_reduce_mod(row(jterms, mono, self.folds), rows, p, stop[d])
                    q = min(residual)
                    inv = pow(residual.pop(q), -1, p)
                    rows[q] = {j: c * inv % p for j, c in residual.items()}
                    heads[q] = {j: c for j, c in rows[q].items() if j < stop[d]}
            basis_d = [(d, m) for m in monos[d] if column[m] not in rows]
            if len(basis_d) != want[d]:
                message = (f"graded quotient dimension mismatch at degree {d}: "
                           f"computed {len(basis_d)}, formula {want[d]}")
                raise (VerificationError if len(basis_d) < want[d] else floer._UnluckyPrime)(message)
            self.basis.extend(basis_d)
        self.basis_at = {column[m]: i for i, (_d, m) in enumerate(self.basis)}
        self._memo: Dict[Exponents, List[int]] = {}

    def normal_form(self, terms: Dict[Exponents, int]) -> List[int]:
        """Coordinates mod p over the basis of {exponents: coefficient mod p},
        folded first."""
        coords = [0] * len(self.basis_at)
        row = {self.column[e]: c
               for e, c in fold_by_binomials(terms, self.folds, self.p).items()}
        for j, c in heap_reduce_mod(row, self.rows, self.p).items():
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


class UnfoldedModularTables:
    """``floer._ModularTables`` as it was before it folded delta_i^2 into c_i -
    beta: columns for every monomial of each degree, and the pairs
    (delta_i^2 + beta, delta_i^2 + beta - c_i) eliminated as rows.

    The model's elimination over Z/p: the basis decision and normal forms.

    Columns number the monomials of the degrees of ``want`` from the top down,
    within a degree in ``monomials_of_degree`` order, so a row's smallest
    column leads it.  Per degree d, in increasing order, the rows of the degree
    piece of I are taken mod p in ``_ideal_pieces`` order (I-generator index,
    then cofactor), each dense on d's block of columns, and reduced by
    ``_reduce_block`` against the heads (degree-d parts) of the rows stored at
    d.  A row that adds a pivot is stored unit-led, as its head and a tail: the
    cofactor times the paired J-generator's lower part, with the used heads'
    tails replayed.  That makes it the paired J-row (which leads with the I-row)
    reduced on degree d: it lies in J mod p, so its tail is the lower part of a
    lift of its head.  The basis is the monomials that lead no head.  A degree
    with fewer of them than ``want[d]`` is a mismatch, since rank_p <= rank_Q;
    one with more makes the prime unlucky.
    """

    def __init__(self, ring, pairs: List[Tuple[Poly, Poly]], want: Dict[int, int], p: int):
        self.p = p
        column = self.column = {}
        monos: Dict[int, List[Exponents]] = {}
        start: Dict[int, int] = {}  # degree -> its first column
        for d in sorted(want, reverse=True):
            monos[d], start[d] = monomials_of_degree(ring, d), len(column)
            for m in monos[d]:
                column[m] = len(column)
        # (degree, I-generator, lower part of its J-generator) mod p
        mod_pairs = [(ip.degree(), floer._mod_terms(ip.terms, p),
                      floer._mod_terms({e: c for e, c in jp.terms.items()
                                        if e not in ip.terms}, p))
                     for ip, jp in pairs]
        # per degree, from the top down: (first column, heads, tails by head position)
        self.blocks: List[Tuple[int, List[Optional[floer._Entries]],
                                Dict[int, floer._Entries]]] = []
        self.basis: List[Tuple[int, Exponents]] = []
        for d in sorted(want):
            lo, width = start[d], len(monos[d])
            heads: List[Optional[floer._Entries]] = [None] * width  # by column - lo
            tails: Dict[int, floer._Entries] = {}
            free = width
            for gdeg, iterms, jlower in mod_pairs:
                for mono in monos.get(d - gdeg, ()):
                    if not free:
                        break
                    dense = [0] * width
                    for e, c in iterms.items():
                        dense[column[tuple(map(add, e, mono))] - lo] = c
                    used, residual = floer._reduce_block(dense, heads, p)
                    if not residual:
                        continue
                    q, inv = residual[0][0], pow(residual[0][1], -1, p)
                    lower = {column[tuple(map(add, e, mono))]: c for e, c in jlower.items()}
                    replay(lower, used, tails)
                    heads[q] = [(j, c * inv % p) for j, c in residual[1:]]
                    tails[q] = [(j, c * inv % p) for j, c in lower.items() if c % p]
                    free -= 1
            basis_d = [(d, m) for m, head in zip(monos[d], heads) if head is None]
            if len(basis_d) != want[d]:
                message = (f"graded quotient dimension mismatch at degree {d}: "
                           f"computed {len(basis_d)}, formula {want[d]}")
                raise (VerificationError if len(basis_d) < want[d]
                       else floer._UnluckyPrime)(message)
            self.basis.extend(basis_d)
            self.blocks.insert(0, (lo, heads, tails))
        self.basis_at = {column[m]: i for i, (_d, m) in enumerate(self.basis)}
        self._memo: Dict[Exponents, List[int]] = {}

    def normal_form(self, terms: Dict[Exponents, int]) -> List[int]:
        """Coordinates mod p over the basis of {exponents: coefficient mod p}:
        the blocks in column order, as a replayed tail only reaches later ones."""
        coords = [0] * len(self.basis_at)
        row = {self.column[e]: c for e, c in terms.items()}
        for lo, heads, tails in self.blocks:
            hi = lo + len(heads)
            if min(row, default=hi) >= hi:  # no entry in this block
                continue
            dense = [row.pop(j, 0) for j in range(lo, hi)]
            used, residual = floer._reduce_block(dense, heads, self.p)
            for i, x in residual:
                coords[self.basis_at[lo + i]] = x
            replay(row, used, tails)
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


_lift_table_models: Dict[tuple, LiftTableModel] = {}


def lift_table_model(g: int, sign: str = "+", theta: Optional[Fraction] = None) -> LiftTableModel:
    """The lift-table model of ``floer.model_for(g, sign, theta)``, memoized."""
    key = (g, sign, theta)
    if key not in _lift_table_models:
        _lift_table_models[key] = LiftTableModel(*floer._one_point_ideals(g, sign, theta))
    return _lift_table_models[key]


def lift_table_model_n3(g: int) -> LiftTableModel:
    """The lift-table model of ``floer.marked_model(g, 3)``, memoized."""
    key = ("n3", g)
    if key not in _lift_table_models:
        _lift_table_models[key] = LiftTableModel(*floer._marked_ideals(g, 3))
    return _lift_table_models[key]


# -- rho: the projection by reduction, and series kernels by summed powers -------


def rho_proj_all_by_reduction(k: int, n: int, reduce=canonical_rep) -> Dict[int, Poly]:
    """All rho_{k,n,s} from xi-bar_{k,n} = ``reduce``(xi_{k,n}) in R-bar_n, read off
    its 2^n delta-supports, each checked to carry one polynomial per support
    size, and reassembled against xi-bar.

    Slow-path oracle for ``relations._rho_proj_all``, which runs the xi
    recursion on the e_s-coordinates of xi-bar instead; unmemoized.
    """
    if n < 1:
        raise ValueError("projection route needs n >= 1")
    m = (n - 1) // 2
    xbar = reduce(xi(k, n), rbar_spec())
    rng = xbar.ring
    coeff_ring = COEFF_RING
    scale = Fraction(2 ** (m + 1))
    by_size: Dict[int, Dict[frozenset, list]] = {}
    for exps, coeff in xbar.terms.items():
        sup = delta_support(rng, exps)
        # omega, beta in the small ring
        by_size.setdefault(len(sup), {}).setdefault(sup, []).append(
            ((exps[0], exps[1], 0, 0), coeff * scale))
    out: Dict[int, Poly] = {}
    for s in range(n + 1):
        groups = by_size.get(s, {})
        expected = {frozenset(c) for c in combinations(range(1, n + 1), s)}
        if groups:
            if set(groups) != expected:
                raise AssertionError("decomposition residual nonzero: missing supports")
            vals = [Poly.from_terms(coeff_ring, pairs) for pairs in groups.values()]
            if any(v != vals[0] for v in vals[1:]):
                raise AssertionError("decomposition residual nonzero: symmetry violated")
            out[s] = vals[0]
        else:
            out[s] = Poly.zero(coeff_ring)
    if _reassemble(out, rng, m) != xbar:
        raise AssertionError("decomposition residual nonzero")
    return out


def delta_sym(n: int, s: int, target: Optional[RingDescriptor] = None) -> Poly:
    """Elementary symmetric polynomial of degree s in delta_1..delta_n, over
    ``target`` (the omega-coordinate ring with n deltas by default)."""
    if not 0 <= s <= n:
        raise ValueError(f"s must be in 0..{n}")
    if target is None:
        target = ring(n, coordinate=OMEGA)
    if target.n != n:
        raise ValueError("target ring has the wrong number of deltas")
    base = [0] * target.nvars
    terms = {}
    for sup in combinations(range(n), s):
        exps = list(base)
        for i in sup:
            exps[3 + i] = 1
        terms[tuple(exps)] = Fraction(1)
    return Poly(target, terms)


def _reassemble(rhos: Dict[int, Poly], rng, m: int) -> Poly:
    total = Poly.zero(rng)
    inv = Fraction(1, 2 ** (m + 1))
    for s, rho_s in rhos.items():
        if rho_s.is_zero():
            continue
        lift_terms = {}
        for exps4, co in rho_s.terms.items():
            lift_terms[(exps4[0], exps4[1], 0) + (0,) * rng.n] = co
        lifted = Poly(rng, lift_terms)
        total = total + lifted * delta_sym(rng.n, s, rng) * inv
    return total


# Series with an adjoined s = sqrt(-beta): lists of (even, odd) coefficient
# pairs, one per power of t, standing for sum_k (even_k + s odd_k) t^k.

def _pairs_mul(a, b):
    """a * b, each pair of a times each pair of b by the four part products,
    s^2 -> -beta."""
    N = len(a) - 1
    zero = Poly.zero(COEFF_RING)
    minus_beta = -Poly.variable(COEFF_RING, "beta")
    out = [(zero, zero)] * (N + 1)
    for i, (e1, o1) in enumerate(a):
        for j, (e2, o2) in enumerate(b[:N + 1 - i]):
            ev, od = out[i + j]
            # (e1 + s o1)(e2 + s o2) = e1 e2 - beta o1 o2 + s (e1 o2 + o1 e2)
            out[i + j] = (ev + e1 * e2 + minus_beta * (o1 * o2), od + e1 * o2 + o1 * e2)
    return out


def _pairs_add(a, b):
    return [(e1 + e2, o1 + o2) for (e1, o1), (e2, o2) in zip(a, b)]


def _pairs_scaled(a, c):
    return [(e * c, o * c) for e, o in a]


def _pairs_term(N: int, k: int, even=0, odd=0):
    """The series (even + s odd) t^k truncated at order N."""
    zero = Poly.zero(COEFF_RING)
    out = [(zero, zero)] * (N + 1)
    if k <= N:
        out[k] = tuple(x if isinstance(x, Poly) else Poly.constant(COEFF_RING, x)
                       for x in (even, odd))
    return out


def _pairs_summed_powers(g, weights, message: str):
    """sum_i weights[i] g^i for a series g with zero constant pair, every power
    formed: O(N^3) coefficient products."""
    if any(x.terms for x in g[0]):
        raise ValueError(message)
    power = _pairs_term(len(g) - 1, 0, even=1)
    result = _pairs_scaled(power, weights[0])
    for w in weights[1:]:
        power = _pairs_mul(power, g)
        result = _pairs_add(result, _pairs_scaled(power, w))
    return result


def _pairs_pow(base, exponent):
    """base^exponent as sum_i C(exponent, i) (base - 1)^i."""
    g = _pairs_add(base, _pairs_term(len(base) - 1, 0, even=-1))
    return _pairs_summed_powers(g, [binomial_coeff(Fraction(exponent), i)
                                    for i in range(len(base))],
                                "binomial power needs constant term 1")


def _pairs_exp(f):
    """exp(f) as sum_i f^i / i!."""
    return _pairs_summed_powers(f, [Fraction(1, math.factorial(i)) for i in range(len(f))],
                                "exp needs zero constant term")


def _pairs_log(f):
    """log(f) as sum_i (-1)^(i+1) (f - 1)^i / i."""
    g = _pairs_add(f, _pairs_term(len(f) - 1, 0, even=-1))
    return _pairs_summed_powers(g, [0] + [Fraction((-1) ** (i + 1), i) for i in range(1, len(f))],
                                "log needs constant term 1")


def _even_part(f) -> List[Poly]:
    if any(o.terms for _, o in f):
        raise AssertionError("nonvanishing odd sqrt(-beta) part")
    return [e for e, _ in f]


def rho_series_with_s(k: int, r: int) -> Poly:
    """rho_{k,r} as the t^k coefficient of the defining series evaluated
    literally, with s = sqrt(-beta) adjoined:
    (1+beta t^2)^{-3/4} exp(omega/(2s) (log(1-ts) - log(1+ts)))
    ((1-ts)^{1/2} + (1+ts)^{1/2}) 2^{(r-1)/2} h^{(r-1)/2},
    h = (1 + (1+beta t^2)^{1/2})/2, every factor by summed powers and the odd
    part in s asserted to cancel.  Oracle for ``relations.rho_series``."""
    one = _pairs_term(k, 0, even=1)
    base = _pairs_add(one, _pairs_term(k, 2, even=Poly.variable(COEFF_RING, "beta")))
    minus, plus = (_pairs_add(one, _pairs_term(k, 1, odd=sign)) for sign in (-1, 1))
    log_ratio = _pairs_add(_pairs_log(minus), _pairs_scaled(_pairs_log(plus), -1))
    if any(e.terms for e, _ in log_ratio):
        raise AssertionError("log ratio is not an s-multiple")
    half_omega = Poly.variable(COEFF_RING, "omega") * Fraction(1, 2)
    exponent = [(o * half_omega, Poly.zero(COEFF_RING)) for _, o in log_ratio]  # divided by s
    h = _pairs_scaled(_pairs_add(one, _pairs_pow(base, Fraction(1, 2))), Fraction(1, 2))
    factors = [_pairs_pow(base, Fraction(-3, 4)), _pairs_exp(exponent),
               _pairs_add(_pairs_pow(minus, Fraction(1, 2)), _pairs_pow(plus, Fraction(1, 2))),
               _pairs_scaled(_pairs_pow(h, Fraction(r - 1, 2)), Fraction(2) ** ((r - 1) // 2))]
    total = factors[0]
    for f in factors[1:]:
        total = _pairs_mul(total, f)
    return _even_part(total)[k]


def r_poly_from_written_bases(g: int, local: bool = False) -> Poly:
    """r_g from r_0, r_1 and r_2 written out by hand and the recursion step
    written out for h >= 3, with no memo.  Oracle for ``relations.r_poly``."""
    rng = ring(1, coeff_kind=LAURENT_U if local else RATIONAL, coordinate=OMEGA)
    w, b, c, d = (Poly.variable(rng, name) for name in ("omega", "beta", "gamma", "delta1"))
    half = Fraction(1, 2)
    wd = w + d * half  # omega + delta/2
    u1, u2 = (LaurentU.u_power(-k) if local else Fraction(1) for k in (1, 2))
    table: List[Poly] = [
        Poly.constant(rng, 1),
        wd - Poly.constant(rng, u1),
        (wd * wd - b) * half + (w - d * half) * u1 - Poly.constant(rng, u2) * half,
    ]
    for j in range(3, g + 1):
        sign = (-1) ** j
        lin = wd + Poly.constant(rng, u1 * (sign * (2 * j - 1)))
        mid = b + d * (u1 * (2 * sign)) - Poly.constant(rng, u2 * 2)
        table.append((lin * table[j - 1] + mid * table[j - 2] * (1 - j)
                      - c * table[j - 3] * half) * Fraction(1, j))
    return table[g]
