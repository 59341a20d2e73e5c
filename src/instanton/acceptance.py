"""The verification suite: one callable per acceptance criterion.

Every check is exact (rational arithmetic, zero tolerance) and returns
``CheckResult(criterion, passed, detail)``.  The rho convention (criterion A6)
is determined empirically and persisted through the CLI cache so later runs
can assert the same branch.

Two checks assert sign/ambiguity-corrected statements:
  * A5: the functional identity between projection coefficients carries a
    (-1)^s factor (the unsigned form provably fails for odd s, which the suite
    also asserts so the correction stays visible).
  * A7: the minimal-degree relation is determined only modulo the delta-square
    relation, so for g >= 3 the sub-leading component agrees with its closed
    form modulo delta^2 + beta (exactly for g <= 2); the difference is
    asserted to be divisible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from . import floer, series
from .floer import (decomposition_identity_check, eigen_verify,
                    expand_rational_fn, hilbert_compare, local_eigen_point,
                    marked_model, model_for, ptgn_series)
from .poly import ALPHA, OMEGA, Poly, ring
from .quotient import QuotientSpec, canonical_rep, mod_beta_spec
from .relations import (EtaChoice, GeneratorSet, flip_orbit, jgen_n1, r_poly,
                        rho_proj, rho_series, specialize_u, w_skeleton, xi)
from .series import binom_sqrt_dets


class CheckResult(NamedTuple):
    criterion: str
    passed: bool
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.criterion}] {status} - {self.detail}"


def _negate_omega(p: Poly) -> Poly:
    return Poly.from_terms(p.ring, ((e, -c if e[0] % 2 else c) for e, c in p.terms.items()))


def _beta_zero(p: Poly) -> Poly:
    return Poly.from_terms(p.ring, ((e, c) for e, c in p.terms.items() if e[1] == 0))


# -- criteria ----------------------------------------------------------------------


def check_a1(g_max: int = 3) -> CheckResult:
    """Filtered quotient dimensions match the t=1 value of the Poincare expansion."""
    frozen = {0: 0, 1: 2, 2: 8}
    dims = []
    for g in range(g_max + 1):
        expected = sum(expand_rational_fn(ptgn_series(g, 1), 12 * g + 12))
        if g in frozen and expected != frozen[g]:
            return CheckResult("A1", False, f"series value drifted at g={g}")
        got = model_for(g, "+").dim
        if got != expected:
            return CheckResult("A1", False, f"dim mismatch at g={g}: {got} != {expected}")
        dims.append(got)
    return CheckResult("A1", True, f"quotient dims {dims} match series values for g<={g_max}")


def check_a2(g_max: int = 3) -> CheckResult:
    """Eigen spectra, nilpotency and one-dimensional top eigenspace, both signs."""
    details = []
    for g in range(1, g_max + 1):
        for sign in ("+", "-"):
            try:
                rep = eigen_verify(g, sign)
            except AssertionError as exc:
                return CheckResult("A2", False, f"g={g} sign={sign}: {exc}")
            spec = sorted(Fraction(t["alpha"]) for t in rep.tuples)
            want = sorted(Fraction((1 if sign == "+" else -1) * (-1) ** (i - 1) * (2 * i - 1))
                          for i in range(1, g + 1))
            if spec != want:
                return CheckResult("A2", False, f"g={g} sign={sign}: spectrum {spec}")
            details.append(f"g={g}{sign}:V2={rep.subspace_dim}")
    return CheckResult("A2", True, "alpha spectra, nilpotency, top-dim-1 verified; "
                                   + " ".join(details))


def _hilbert_check(criterion: str, pairs: Sequence[Tuple[int, int]], source: str,
                   max_degree: Callable[[int, int], int], wording: str,
                   g_max: int, n_max: int) -> CheckResult:
    """``hilbert_compare(g, n, source, max_degree(g, n))`` must match for every
    pair within (g_max, n_max); the detail is ``wording`` and the pairs done."""
    done = []
    for g, n in pairs:
        if g > g_max or n > n_max:
            continue
        rep = hilbert_compare(g, n, source, max_degree(g, n))
        if not rep.match:
            bad = next(d for d, c, f in rep.degrees if c != f)
            return CheckResult(criterion, False, f"(g,n)=({g},{n}) mismatch at degree {bad}")
        done.append(f"({g},{n})")
    return CheckResult(criterion, True, f"{wording} for " + ", ".join(done))


_A3_PAIRS = [(0, 1), (1, 1), (2, 1), (0, 3), (1, 3), (0, 5)]


def check_a3(g_max: int = 2, n_max: int = 5) -> CheckResult:
    return _hilbert_check("A3", _A3_PAIRS, "ptgn", lambda g, n: 6 * g + 8,
                          "graded quotient dims match Poincare expansion", g_max, n_max)


_A4_PAIRS = [(1, 1), (2, 1), (0, 3), (1, 3), (0, 5)]


def check_a4(g_max: int = 2, n_max: int = 5) -> CheckResult:
    return _hilbert_check("A4", _A4_PAIRS, "k", lambda g, n: 2 * (g + (n - 1) // 2 + 4),
                          "reduced-ideal graded dims match the K-series", g_max, n_max)


def check_a5() -> CheckResult:
    """Functional identity (with its empirical (-1)^s sign) and the beta=0 closed form."""
    odd_s_flips = 0
    cases = 0
    for n in (1, 3, 5, 7):
        for k in range(7):
            for s in range(0, min(k, n) + 1):
                if n - 2 * s < 1:
                    continue
                lhs = rho_proj(k, n, s)
                rhs = rho_proj(k - s, n - 2 * s, 0)
                cases += 1
                signed = rhs if s % 2 == 0 else -rhs
                if lhs != signed:
                    return CheckResult(
                        "A5", False,
                        f"signed functional identity fails at (k,n,s)=({k},{n},{s})")
                if s % 2 == 1 and not rhs.is_zero():
                    if lhs == rhs:
                        return CheckResult(
                            "A5", False,
                            f"unsigned identity unexpectedly holds at odd s ({k},{n},{s})")
                    odd_s_flips += 1
    # beta = 0 closed form, in the omega -> -omega branch pinned by A6
    for n in (1, 3, 5, 7):
        for k in range(9):
            closed = Poly.monomial(series.COEFF_RING, (k, 0, 0, 0),
                                   Fraction(2 ** ((n + 1) // 2), math.factorial(k)))
            if _beta_zero(rho_proj(k, n, 0)) != closed:
                return CheckResult("A5", False, f"beta=0 closed form fails at (k,n)=({k},{n})")
    return CheckResult(
        "A5", True,
        f"functional identity holds with sign (-1)^s over {cases} cases "
        f"({odd_s_flips} genuine odd-s sign flips); beta=0 closed form matches "
        "in the A6 branch")


def check_a6(cache=None) -> CheckResult:
    """Pin the series-vs-projection sign convention; persist and re-assert it.

    ``cache`` (a ``cli.Cache`` or None) keeps the branch under key
    ``rho_convention``; a missing or unusable record is written anew.
    """
    votes = set()
    for r in (1, 3, 5):
        for k in range(7):
            srs = rho_series(k, r)
            prj = rho_proj(k, r, 0)
            identity = srs == prj
            negated = _negate_omega(srs) == prj
            if identity and negated:
                continue  # omega-free coefficient; no vote
            if identity:
                votes.add("identity")
            elif negated:
                votes.add("negate_omega")
            else:
                return CheckResult("A6", False, f"no branch matches at (k,r)=({k},{r})")
    if len(votes) != 1:
        return CheckResult("A6", False, f"mixed branch outcome: {sorted(votes)}")
    branch = votes.pop()
    note = ""
    if cache is not None:
        recorded = (cache.get("rho_convention") or {}).get("branch")
        if recorded is None:
            cache.put("rho_convention", {"branch": branch})
            note = " (recorded)"
        elif recorded != branch:
            return CheckResult("A6", False,
                               f"branch {branch} contradicts recorded {recorded}")
    return CheckResult("A6", True, f"rho convention branch: {branch}{note}")


def check_a7(g_max: int = 5) -> CheckResult:
    """Sub-leading structure of r_g: top component exact, next component exact for
    g <= 2 and modulo (delta^2 + beta) beyond (the inherent ambiguity of the
    sub-leading term; the difference is asserted divisible)."""
    reduce_spec = QuotientSpec()
    eta = EtaChoice({1}, 1)
    mod_count = 0
    for g in range(1, g_max + 1):
        rg, want = r_poly(g), w_skeleton(g, 1, eta, 1)
        if rg.homogeneous_component(2 * g) != want.homogeneous_component(2 * g):
            return CheckResult("A7", False, f"leading component mismatch at g={g}")
        diff = rg.homogeneous_component(2 * g - 2) - want.homogeneous_component(2 * g - 2)
        if g <= 2:
            if not diff.is_zero():
                return CheckResult("A7", False, f"sub-leading not exact at g={g}")
        else:
            if diff.is_zero():
                return CheckResult("A7", False,
                                   f"sub-leading unexpectedly exact at g={g}")
            if not canonical_rep(diff, reduce_spec).is_zero():
                return CheckResult("A7", False,
                                   f"sub-leading not divisible by delta^2+beta at g={g}")
            mod_count += 1
    return CheckResult(
        "A7", True,
        f"top components exact for g<=min({g_max},5); sub-leading exact for g<=2 and "
        f"equal mod (delta^2+beta) for {mod_count} higher g")


def check_a8(g_max: int = 4) -> CheckResult:
    done = []
    for g in range(1, g_max + 1):
        witness = floer.gamma_power_witness(g)  # raises if the identity fails
        model = model_for(g, "+")
        gpow = Poly.variable(model.ring, "gamma") ** g
        if not model.membership(gpow):
            return CheckResult("A8", False, f"gamma^{g} not reduced to zero at g={g}")
        done.append(f"g={g}:{len(witness)} cofactors")
    return CheckResult("A8", True, "gamma power memberships with exact witnesses: "
                                   + "; ".join(done))


def check_a9() -> CheckResult:
    x0 = floer.solve_subleading(0)
    expect = xi(1, 3).change_coordinates(OMEGA) \
        - xi(0, 1, target=ring(3, coordinate=ALPHA)).change_coordinates(OMEGA).flip([1, 2, 3])
    if x0.meta["f_hat"] != expect:
        return CheckResult("A9", False, "g=0 solution is not xi_{1,3} - tau_123(xi_{0,1})")
    try:
        x1 = floer.solve_subleading(1)
    except ValueError as exc:
        return CheckResult("A9", False, f"g=1 system not uniquely solvable: {exc}")
    model1 = model_for(1, "+")
    for name, p in x1.gens:
        if not model1.membership(p.pi_reduce()):
            return CheckResult("A9", False, f"pi image of {name} not in the one-point ideal")
    m13 = marked_model(1, 3)
    expected_dim = sum(expand_rational_fn(ptgn_series(1, 3), 40))
    if m13.dim != expected_dim:
        return CheckResult("A9", False,
                           f"three-point model dim {m13.dim} != series value {expected_dim}")
    return CheckResult("A9", True,
                       f"g=0 exact, g in {{0,1}} unique, pi-images contained; "
                       f"three-point quotient dim {m13.dim} matches the series")


def check_a10(g_max: int = 6) -> CheckResult:
    for g in range(g_max + 1):
        if specialize_u(r_poly(g, local=True), Fraction(1)) != r_poly(g):
            return CheckResult("A10", False, f"u=1 specialization fails at g={g}")
    theta_results = []
    for g in (1, 2):
        for theta in (Fraction(2), Fraction(3, 2)):
            point = local_eigen_point(g, "+", theta)
            gens = jgen_n1(g, "+", local=True)
            for name, p in gens.gens:
                if p.evaluate(point, u_value=theta):
                    return CheckResult(
                        "A10", False, f"tuple fails to annihilate {name} at "
                                      f"g={g}, theta={theta}")
            try:
                rep = eigen_verify(g, "+", theta=theta)
                theta_results.append(f"g={g},theta={theta}:mult={rep.subspace_dim}")
            except AssertionError as exc:
                theta_results.append(f"g={g},theta={theta}:operator-check FAILED ({exc})")
                return CheckResult("A10", False, "; ".join(theta_results))
    return CheckResult("A10", True,
                       f"u=1 specialization for g<={g_max}; local eigen tuples verified by "
                       "evaluation and operators: " + "; ".join(theta_results))


def check_a11(g_max: int = 3, n_max: int = 5) -> CheckResult:
    done = []
    for g in range(g_max + 1):
        for n in (1, 3, 5):
            if n > n_max:
                continue
            if not decomposition_identity_check(g, n, 40):
                return CheckResult("A11", False, f"identity fails at (g,n)=({g},{n})")
            done.append(f"({g},{n})")
    return CheckResult("A11", True,
                       f"degree bookkeeping identity to degree 40 for {len(done)} pairs")


def _a12_flips(n: int, s: int) -> GeneratorSet:
    """The even flips of alpha'^s, alpha' = omega - (delta_1+...+delta_n)/2, built
    in omega-coordinates, where a flip only changes signs."""
    alpha_p = Poly.variable(ring(n), ALPHA).change_coordinates(OMEGA)
    return GeneratorSet.of_orbits(f"alpha'^{s}", alpha_p.ring,
                                  [flip_orbit(alpha_p ** s, f"alpha'^{s}", n)], {})


def check_a12() -> CheckResult:
    """Modulo beta, the flips of alpha'^s (``_a12_flips``) are independent and
    their ideal is full in degree 2s+2, for s = m, m+1."""
    details = []
    for n in (3, 5):
        m = (n - 1) // 2
        for s in (m, m + 1):
            ranks = floer._graded_ranks(_a12_flips(n, s), 2 * s + 2, mod_beta_spec())
            got = ranks[2 * s][1]
            if got != 2 ** (n - 1):
                return CheckResult("A12", False,
                                   f"independence rank {got} != {2 ** (n - 1)} at n={n}, s={s}")
            # degree-(2s+2) fullness of the ideal generated by the flips
            size, rank = ranks[2 * s + 2]
            if rank != size:
                return CheckResult("A12", False,
                                   f"ideal not full in degree {2 * s + 2} at n={n}, s={s}")
            details.append(f"n={n},s={s}")
    return CheckResult("A12", True, "mod-beta independence and fullness: "
                                    + ", ".join(details))


def check_a13() -> CheckResult:
    dets = binom_sqrt_dets(8)  # raises on a zero determinant
    if dets[0] != 1 or dets[1] != Fraction(1, 2):
        return CheckResult("A13", False, f"frozen determinant values drifted: {dets[:2]}")
    return CheckResult("A13", True,
                       f"det(a_ks) nonzero for M<= 8; first values {dets[0]}, {dets[1]}")


# -- suite runner -------------------------------------------------------------------

SUITES: Dict[str, List[str]] = {
    "poincare": ["A1", "A3", "A4", "A11"],
    "eigen": ["A2"],
    "rho": ["A5", "A6", "A12", "A13"],
    "membership": ["A8"],
    "subleading": ["A7", "A9"],
    "local": ["A10"],
}

_CHECKS: Dict[str, Callable[..., CheckResult]] = {
    "A1": check_a1, "A2": check_a2, "A3": check_a3, "A4": check_a4,
    "A5": check_a5, "A6": check_a6, "A7": check_a7, "A8": check_a8,
    "A9": check_a9, "A10": check_a10, "A11": check_a11, "A12": check_a12,
    "A13": check_a13,
}


# the least (g, n) cases of each criterion that g_max limits (and n_max, for
# A3, A4 and A11); the limits must leave it one
_LEAST_CASES = {"A1": [(0, 1)], "A2": [(1, 1)], "A3": _A3_PAIRS, "A4": _A4_PAIRS,
                "A7": [(1, 1)], "A8": [(1, 1)], "A10": [(0, 1)], "A11": [(0, 1)]}


def run_suite(suite: str = "all", g_max: Optional[int] = None,
              n_max: Optional[int] = None, cache=None,
              emit: Callable[[str], None] = print) -> List[CheckResult]:
    """Run the criteria of ``suite`` in order, emitting each line; ValueError,
    before any check runs, if the limits leave a criterion no case."""
    if suite == "all":
        names = [f"A{i}" for i in range(1, 14)]
    else:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        names = SUITES[suite]
    limits: Dict[str, Dict[str, int]] = {}  # the keyword arguments of each limited check
    for name in [name for name in names if name in _LEAST_CASES]:
        given = {"g_max": g_max, "n_max": n_max if name in ("A3", "A4", "A11") else None}
        limits[name] = {k: v for k, v in given.items() if v is not None}
        g, n = limits[name].get("g_max", math.inf), limits[name].get("n_max", math.inf)
        if not any(a <= g and b <= n for a, b in _LEAST_CASES[name]):
            raise ValueError(f"{name} has no case within "
                             + ", ".join(f"{k}={v}" for k, v in limits[name].items()))
    results = []
    for name in names:
        try:
            res = _CHECKS[name](**({"cache": cache} if name == "A6" else limits.get(name, {})))
        except Exception as exc:  # a raised assertion is a failed criterion
            res = CheckResult(name, False, f"exception: {exc}")
        results.append(res)
        emit(res.line())
    return results
