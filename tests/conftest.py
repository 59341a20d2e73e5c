import random
from fractions import Fraction

import pytest
from hypothesis import settings

from instanton.poly import LaurentU, Poly, RingDescriptor


# every property test: no per-example deadline (exact arithmetic varies widely
# in time) and no example database left behind
settings.register_profile("instanton", deadline=None, database=None)
settings.load_profile("instanton")


def random_poly(rng: RingDescriptor, rand: random.Random, terms: int = 5,
                max_exp: int = 2, coeff_bound: int = 9) -> Poly:
    """Small random polynomial with nonzero rational coefficients."""
    out = {}
    for _ in range(terms):
        exps = tuple(rand.randint(0, max_exp) for _ in range(rng.nvars))
        num = rand.randint(-coeff_bound, coeff_bound) or 1
        den = rand.randint(1, 4)
        out[exps] = Fraction(num, den)
    return Poly(rng, out)


def random_laurent_poly(rng: RingDescriptor, rand: random.Random, terms: int = 5,
                        max_exp: int = 2, coeff_bound: int = 9) -> Poly:
    """Small random polynomial whose coefficients are Laurent polynomials in u
    with up to three terms, u-exponents in -3..3."""
    out = {}
    for _ in range(terms):
        exps = tuple(rand.randint(0, max_exp) for _ in range(rng.nvars))
        out[exps] = LaurentU({rand.randint(-3, 3): Fraction(rand.randint(-coeff_bound, coeff_bound) or 1,
                                                            rand.randint(1, 4))
                              for _ in range(rand.randint(1, 3))})
    return Poly(rng, out)


@pytest.fixture
def rand():
    return random.Random(20240817)
