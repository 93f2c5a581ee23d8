"""Cross-checks against sympy, a number-theory library written independently
of this package.  Skipped when sympy is not installed."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apresidues.bigmod import is_prime, jacobi, multiplicative_order
from apresidues.residues import least_primitive_root

sympy = pytest.importorskip("sympy")

# above this is_prime runs one Miller-Rabin round (base 2) and a strong Lucas test
BPSW_FLOOR = 330_000_000_000_000
big = st.integers(BPSW_FLOOR, 10**48)


@settings(max_examples=150, deadline=None)
@given(big)
def test_is_prime_above_bpsw_floor(n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=60, deadline=None)
@given(big)
def test_is_prime_accepts_primes_above_bpsw_floor(n):
    assert is_prime(sympy.nextprime(n))


@settings(max_examples=60, deadline=None)
@given(st.integers(10**7, 10**24), st.integers(10**7, 10**24))
def test_is_prime_rejects_semiprimes_above_bpsw_floor(a, b):
    assert not is_prime(sympy.nextprime(a) * sympy.nextprime(b))


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 10**6))
def test_least_primitive_root_small(n):
    p = sympy.nextprime(n)
    assert least_primitive_root(p) == sympy.primitive_root(p)


@settings(max_examples=60, deadline=None)
@given(st.integers(10**6, 10**12))
def test_least_primitive_root_with_given_factors(n):
    p = sympy.nextprime(n)
    assert least_primitive_root(p, sympy.factorint(p - 1)) == sympy.primitive_root(p)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 10**12), st.integers(1, 10**12))
def test_multiplicative_order(n, u):
    p = sympy.nextprime(n)
    u = u % (p - 1) + 1
    assert multiplicative_order(u, p, sympy.factorint(p - 1)) == sympy.n_order(u, p)


@settings(max_examples=200, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(1, 10**30))
def test_jacobi(n, m):
    m = 2 * m + 1
    assert jacobi(n, m) == int(sympy.jacobi_symbol(n, m))
