"""The engine: graded Hilbert computations, filtered quotient models for the
inhomogeneous ideals, multiplication operators with eigen verification, ideal
membership with explicit gamma-power witnesses, and the sub-leading solver for
three marked points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from . import linalg
from .linalg import Matrix, kernel_basis, subspace_intersection
from .poly import (ALPHA, OMEGA, Exponents, LaurentU, Poly,
                   monomials_of_degree, ring)
from .quotient import (QuotientSpec, canonical_monomials, canonical_rep,
                       model_spec)
from .relations import (GeneratorSet, gamma_cofactors, igen, jgen_n1,
                        kprime_gen, specialize_u, xi)
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


def ambient_series(n: int) -> RationalFn:
    return RationalFn([1], [2] * (n + 1) + [4, 6])


# -- graded ideal dimensions -------------------------------------------------------


def _ideal_pieces(gens: GeneratorSet, spec: Optional[QuotientSpec]):
    """A function taking a degree d to the degree-d monomial basis and a lazy
    iterator of sparse rows ``{basis index: coefficient}`` spanning the ideal
    piece.  A row's product is formed only when the row is taken, and each
    generator is brought to canonical form inside ``spec`` once, when a row of
    any degree first needs it."""
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
    piece = _ideal_pieces(gens, spec if spec is not None else gens.quotient_context)
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
        # quotient of the gamma/delta-reduced ring by the xi-flip generators
        gens = igen(g, n, "odd" if (1 + (n - 1) // 2) % 2 == 1 else "even")
        reduced = GeneratorSet(gens.label, gens.ambient,
                               [gv for gv in gens.gens if "xi" in gv[0]],
                               meta=gens.meta)
        spec = QuotientSpec(gamma_truncation=g + 1, delta_square=0)
        computed = graded_quotient_dims(reduced, max_degree, spec)
    elif source == "k":
        formula = expand_rational_fn(k_series(g, n), max_degree)
        computed = graded_ideal_dims(kprime_gen(g, n), max_degree)
    elif source == "total":
        formula = expand_rational_fn(total_series(g, n), max_degree)
        computed = [0] * (max_degree + 1)
        for k in range(g + 1):
            mult = math.comb(2 * g, k) - math.comb(2 * g, k - 2) if k >= 2 else math.comb(2 * g, k)
            sub = hilbert_compare(g - k, n, "ptgn", max_degree)
            for d, c, _f in sub.degrees:
                if d + 3 * k <= max_degree:
                    computed[d + 3 * k] += mult * c
    else:
        raise ValueError("source must be one of ptgn, total, k")
    rows = [(d, computed[d], formula[d]) for d in range(max_degree + 1)]
    return HilbertReport(rows, source, all(c == f for _d, c, f in rows))


def decomposition_identity_check(g: int, n: int, max_degree: int) -> bool:
    """Exterior-factor degree bookkeeping: the weighted sum of P_t(g-k,n) t^{3k}
    equals the total-cohomology series, coefficient-wise (pure series arithmetic)."""
    rhs = expand_rational_fn(total_series(g, n), max_degree)
    lhs = [0] * (max_degree + 1)
    for k in range(g + 1):
        mult = math.comb(2 * g, k) - (math.comb(2 * g, k - 2) if k >= 2 else 0)
        part = expand_rational_fn(ptgn_series(g - k, n), max_degree)
        for d, c in enumerate(part):
            if d + 3 * k <= max_degree:
                lhs[d + 3 * k] += mult * c
    return lhs == rhs


# -- the filtered quotient model ----------------------------------------------------


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


class QuotientModel:
    """Monomial basis, lift table and multiplication operators for a quotient by
    an inhomogeneous ideal whose leading terms generate a known graded ideal."""

    def __init__(self, J: GeneratorSet, I: GeneratorSet, formula: Optional[RationalFn] = None):
        self.J = J
        self.I = I
        self.ring = J.ambient.with_coordinate(OMEGA)
        self._tables: Dict[int, _DegreeTable] = {}
        self._pairs: List[Tuple[Poly, Poly]] = []  # (I-gen canonical leading, J-gen)
        self._op_cache: Dict[str, Matrix] = {}
        self._build(formula)

    # construction ---------------------------------------------------------------

    def _build(self, formula: Optional[RationalFn]):
        jpolys = [(name, p.change_coordinates(OMEGA)) for name, p in self.J.gens]
        ipolys = [(name, p.change_coordinates(OMEGA)) for name, p in self.I.gens]
        for name, ip in ipolys:
            if not ip.is_homogeneous():
                raise ValueError(f"I-generator {name} is not homogeneous")
        # pair each I-generator with a J-generator sharing its leading term
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
            self._pairs.append((ip, jpolys[idx][1] * scale))
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
        ratio = c0 / cb if not isinstance(c0, LaurentU) else None
        if ratio is None:
            return None
        for e, c in a.terms.items():
            if b.terms.get(e) is None or b.terms[e] * ratio != c:
                return None
        return Fraction(1) / ratio

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
                    table.lifts[p] = Poly(self.ring, {e: c * inv for e, c in lift.items()},
                                          _normalized=True)
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

    def basis_polys(self) -> List[Poly]:
        return [Poly.monomial(self.ring, mono) for _d, mono in self.basis]

    def normal_form(self, f: Poly) -> List[Fraction]:
        """Coordinates of f over the basis, reducing modulo the J-ideal."""
        f = f.change_coordinates(OMEGA).cast(self.ring)
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
            f = Poly(self.ring, terms, _normalized=True)
            new_deg = f.degree()
            if not f.is_zero() and new_deg >= d:
                raise RuntimeError("degree did not descend during reduction")
        return coords

    def membership(self, f: Poly) -> bool:
        return not any(self.normal_form(f))

    def operator(self, var: str) -> Matrix:
        """Multiplication operator by a ring variable (or 'alpha') over the basis."""
        if var in self._op_cache:
            return self._op_cache[var]
        if var == ALPHA and self.ring.coordinate == OMEGA:
            # alpha = omega - (sum delta_i)/2
            m = self.operator("omega")
            for i in range(1, self.ring.n + 1):
                m = m - self.operator(f"delta{i}").scale(Fraction(1, 2))
            self._op_cache[var] = m
            return m
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


# -- standard models ---------------------------------------------------------------

_model_cache: Dict[Tuple[int, str, Optional[Fraction]], QuotientModel] = {}


def model_for(g: int, sign: str = "+", theta: Optional[Fraction] = None) -> QuotientModel:
    """The filtered quotient model of the one-point ideal (optionally u = theta)."""
    key = (g, sign, theta)
    if key in _model_cache:
        return _model_cache[key]
    local = theta is not None
    J = jgen_n1(g, sign=sign, local=local)
    if local:
        gens = [(name, specialize_u(p, theta)) for name, p in J.gens]
        J = GeneratorSet(J.label + f"@u={theta}", gens[0][1].ring, gens, meta=dict(J.meta))
    I = igen(g, 1, "even")
    I_reduced = GeneratorSet(I.label, I.ambient,
                             [gv for gv in I.gens if not gv[0].startswith("gamma^")],
                             meta=I.meta)
    model = QuotientModel(J, I_reduced, formula=ptgn_series(g, 1))
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
    sgn = 1 if sign == "+" else -1
    if theta is not None:
        return _eigen_verify_local(g, sgn, theta, model)
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
    # top simultaneous generalized eigenspace for (alpha, beta) is 1-dimensional
    top_lambda = lambdas[g - 1]
    ga = linalg.generalized_eigenspace(a_op, top_lambda)
    top = subspace_intersection(ga, v2)
    if top.rows != 1:
        raise AssertionError(f"top simultaneous eigenspace has dimension {top.rows}, wanted 1")
    return EigenReport(v2_dim, D, tuples)


def _eigen_verify_local(g: int, sgn: int, theta: Fraction, model: QuotientModel) -> EigenReport:
    theta = Fraction(theta)
    flip_sign = sgn * (-1) ** (g + 1)
    w_val = flip_sign * (2 * g - 2 + (theta + 1 / theta) / 2)
    d_val = flip_sign * (1 / theta - theta)
    tup = {"omega": w_val, "delta1": d_val, "beta": Fraction(2), "gamma": Fraction(0)}
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


def _even_subsets(n: int) -> List[Tuple[int, ...]]:
    from itertools import combinations
    out = []
    for size in range(0, n + 1, 2):
        out.extend(combinations(range(1, n + 1), size))
    return out


def solve_subleading(g: int, n: int = 3) -> GeneratorSet:
    """Solve for the minimal-degree relation at three points.

    Ansatz: xi_{g+1,3} + (-1)^{g+1} tau_{123}(xi_{g,1}) + h with deg h <= 2(g-1),
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
    rows: List[List[Fraction]] = []
    rhs: List[Fraction] = []

    def add_equations(vec_base: Sequence[Fraction], vec_unknowns: Sequence[Sequence[Fraction]]):
        for i in range(len(vec_base)):
            rows.append([vu[i] for vu in vec_unknowns])
            rhs.append(-vec_base[i])

    for I in _even_subsets(3):
        flipped_base = base.flip(I)
        nf_base = model.normal_form(flipped_base.pi_reduce())
        nf_unknowns = []
        for mono in unknowns:
            mp = Poly.monomial(rng, mono).flip(I)
            nf_unknowns.append(model.normal_form(mp.pi_reduce()))
        add_equations(nf_base, nf_unknowns)
    # evaluation constraints at (lambda, 2, 0, 0, 0, 0)
    for lam in _lambda_seq(g + m):
        b_val = base.evaluate_alpha_point(lam, 2, 0, [0, 0, 0])
        u_vals = [Poly.monomial(rng, mono).evaluate_alpha_point(lam, 2, 0, [0, 0, 0])
                  for mono in unknowns]
        rows.append(u_vals)
        rhs.append(-b_val)
    if unknowns:
        A = Matrix(rows)
        sol = linalg.solve(A, rhs)
        if sol is None:
            raise VerificationError("sub-leading system is infeasible (convention drift)")
        if kernel_basis(A).rows != 0:
            raise VerificationError("sub-leading system is not unique (convention drift)")
        h = Poly(rng, {mono: c for mono, c in zip(unknowns, sol)})
    else:
        if any(rhs):
            raise VerificationError("sub-leading system is infeasible (convention drift)")
        h = Poly.zero(rng)
    f_hat = base + h
    gens = []
    for I in _even_subsets(3):
        name = f"tau_{{{','.join(map(str, I))}}}(fhat_{{{g},3}})"
        gens.append((name, f_hat.flip(I)))
    return GeneratorSet(
        label=f"X_{{{g},3}}", ambient=rng, gens=gens,
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


def model_n3(g: int) -> QuotientModel:
    """Filtered model of the three-point quotient built from solver output."""
    J = jgen_n3(g)
    I_full = igen(g, 3, "even")
    keep = []
    for name, p in I_full.gens:
        if name.startswith("gamma^"):
            continue
        if f"xi_{{{g + 3},3}}" in name:
            continue  # replaced by gamma * xi_{g} flips below
        keep.append((name, p))
    rng3 = ring(3, coordinate=ALPHA)
    gamma_p = Poly.variable(rng3, "gamma")
    base = xi(g, 3, target=rng3)
    for I in _even_subsets(3):
        keep.append((f"gamma*tau_{{{','.join(map(str, I))}}}(xi_{{{g},3}})",
                     gamma_p * base.flip(I)))
    I_set = GeneratorSet(I_full.label, I_full.ambient, keep, meta=I_full.meta)
    return QuotientModel(J, I_set, formula=ptgn_series(g, 3))
