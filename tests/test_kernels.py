import cmath
import math

import numpy as np
import pytest

import apresidues
from apresidues import kernels

P = 241
TAU = 7  # primitive root of 241


def e(t: int) -> complex:
    """exp(2*pi*i*t/P), evaluated per term rather than read from a table."""
    return cmath.exp(2j * math.pi * (t % P) / P)


def csum(terms) -> complex:
    """Correctly rounded sum of complex terms."""
    terms = list(terms)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


@pytest.fixture(scope="module")
def roots():
    return kernels.roots_table(P)


@pytest.fixture(scope="module")
def powers():
    return kernels.pow_table(TAU, P)


@pytest.fixture(scope="module")
def coset(powers):
    return powers[1::2].copy()  # quadratic nonresidues of F_241


def test_pow_table_matches_pow(powers):
    assert powers.tolist() == [pow(TAU, j, P) for j in range(P - 1)]


def test_pow_table_is_permutation(powers):
    assert sorted(powers.tolist()) == list(range(1, P))


def test_inner_complete_sums_match_literal(roots):
    got = kernels.inner_complete_sums(P, roots)
    want = np.array([csum(e(c * s) for s in range(P)) for c in range(P)])
    assert np.abs(got - want).max() < 1e-9


def test_inner_sums_orthogonality(roots):
    inner = kernels.inner_complete_sums(P, roots)
    assert abs(inner[0] - P) < 1e-9
    assert np.abs(inner[1:]).max() < 1e-8 * P


def test_char_sum_matches_literal(roots, coset):
    for a in (1, 2, 7, 100, 240):
        got = kernels.char_sum_one(a, coset, P, roots)
        want = csum(e((int(u) - a) * s) for u in coset for s in range(P)) / P
        assert abs(got - want) < 1e-10


def test_halfsums_match_literal(roots, coset):
    got = kernels.halfsums(coset, P, roots)
    want = np.array([csum(e(b * int(u)) for u in coset) for b in range(P)])
    assert np.abs(got - want).max() < 1e-9


def test_incomplete_sum_matches_literal(roots):
    for b, x in ((1, 20), (5, 100), (240, 240)):
        got = kernels.incomplete_sum(b, x, TAU, P, roots)
        want = csum(e(b * pow(TAU, n, P)) for n in range(1, x + 1))
        assert abs(got - want) < 1e-10


def test_prefix_max_matches_literal(roots, powers):
    got = kernels.prefix_max_abs(powers[1:].copy(), P, roots)
    want = []
    for b in range(1, P):
        partial, best = 0j, 0.0
        for n in range(1, P):
            partial += e(b * pow(TAU, n, P))
            best = max(best, abs(partial))
        want.append(best)
    assert np.abs(got - np.array(want)).max() < 1e-9


def test_uhat_matches_literal(roots, coset):
    for a in (1, 4, 100):
        x = kernels.uhat_literal(a, coset, P, roots)
        want = csum(e(-a * b) * csum(e(b * int(u)) for u in coset) for b in range(1, P))
        assert abs(x - want) < 1e-8
        xs = kernels.uhat_swapped(a, coset, P, roots)
        assert abs(xs - want) < 1e-8
        assert abs(x - xs) < 1e-8


def test_backend_is_numpy():
    assert kernels.kernel_backend() == "numpy"
    assert apresidues.kernel_backend() == "numpy"
