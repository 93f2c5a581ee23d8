"""Arbitrary-precision modular arithmetic and prime machinery.

Primality is deterministic below 3.3e14 (fixed Miller-Rabin witness set) and
a Baillie-PSW-class test above: no counterexample exists below 2**64 and none
is known above, which we document as desk-scale deterministic.  Full proving
is out of scope.

All logarithms are natural.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceError

# first seven prime bases are deterministic witnesses for n < 3.4e14
_MR_DETERMINISTIC_BOUND = 330_000_000_000_000
_MR_BASES = (2, 3, 5, 7, 11, 13, 17)
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

_SIEVE_LIMIT = 10**9
_SEGMENT = 1 << 21


def jacobi(n: int, m: int) -> int:
    """Jacobi symbol (n|m) for odd m >= 3; equals the Legendre symbol for prime m."""
    if m < 3 or m % 2 == 0:
        raise DomainError(f"Jacobi symbol needs an odd modulus >= 3, got {m}")
    n %= m
    result = 1
    while n != 0:
        while n % 2 == 0:
            n //= 2
            if m % 8 in (3, 5):
                result = -result
        n, m = m, n
        if n % 4 == 3 and m % 4 == 3:
            result = -result
        n %= m
    return result if m == 1 else 0


def _miller_rabin_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses the compositeness of n (n-1 = d * 2**s, d odd)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _lucas_strong_prp(n: int) -> bool:
    """Strong Lucas probable prime test with Selfridge's parameter choice."""
    d = 5
    while True:
        j = jacobi(d, n)
        if j == 0:
            return abs(d) == n
        if j == -1:
            break
        d = -(d + 2) if d > 0 else -(d - 2)
        if abs(d) > 100:
            r = math.isqrt(n)
            if r * r == n:
                return False
    q = (1 - d) // 4

    # n+1 = t * 2**s with t odd
    t = n + 1
    s = 0
    while t % 2 == 0:
        t //= 2
        s += 1

    # binary ladder for U_t, V_t mod n (P = 1)
    u, v, qk = 1, 1, q
    for bit in bin(t)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = (u + v) % n, (v + d * u) % n
            if u % 2:
                u += n
            if v % 2:
                v += n
            u = (u // 2) % n
            v = (v // 2) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v = (v * v - 2 * qk) % n
        if v == 0:
            return True
        qk = qk * qk % n
    return False


def is_prime(n: int) -> bool:
    """Primality test; deterministic below 3.3e14, Baillie-PSW class above."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_miller_rabin_witness(n, a, d, s) for a in _MR_BASES)
    if _miller_rabin_witness(n, 2, d, s):
        return False
    return _lucas_strong_prp(n)


def next_prime(n: int) -> int:
    """Least prime strictly greater than n."""
    m = n + 1
    if m <= 2:
        return 2
    if m % 2 == 0:
        m += 1
    while not is_prime(m):
        m += 2
    return m


def _simple_sieve(limit: int) -> np.ndarray:
    """mask[n] = n is prime, for n in [0, limit].  Only the odd numbers are
    sieved: odd[i] stands for 2i+1, and q*q is the first odd multiple of an
    odd prime q left to strike, at index q*q // 2, then every q-th index."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[:1] = False
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            q = 2 * i + 1
            odd[q * q // 2 :: q] = False
    mask = np.zeros(limit + 1, dtype=bool)
    mask[1::2] = odd
    mask[2:3] = True
    return mask


def prime_mask(x: int) -> np.ndarray:
    """Boolean array of length x+1 with mask[n] = n is prime."""
    if x > _SIEVE_LIMIT:
        raise ResourceError(f"sieve budget is {_SIEVE_LIMIT}, got {x}")
    if x < 1:
        return np.zeros(max(x + 1, 1), dtype=bool)
    return _simple_sieve(x)


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x, ascending (segmented sieve, budget 1e9)."""
    if x > _SIEVE_LIMIT:
        raise ResourceError(f"sieve budget is {_SIEVE_LIMIT}, got {x}")
    if x < 2:
        return np.array([], dtype=np.int64)
    if x <= _SEGMENT:
        return np.flatnonzero(_simple_sieve(x)).astype(np.int64)
    base = np.flatnonzero(_simple_sieve(math.isqrt(x) + 1)).astype(np.int64)
    chunks = [base[base <= x]]
    lo = int(base[-1]) + 1
    while lo <= x:
        hi = min(lo + _SEGMENT, x + 1)
        mask = np.ones(hi - lo, dtype=bool)
        for q in base:
            q = int(q)
            start = max(q * q, (lo + q - 1) // q * q)
            if start < hi:
                mask[start - lo :: q] = False
        chunks.append((np.flatnonzero(mask) + lo).astype(np.int64))
        lo = hi
    return np.concatenate(chunks)


def _iroot(n: int, k: int) -> int:
    """Floor of the k-th root of n >= 0."""
    if n < 0 or k < 1:
        raise DomainError(f"iroot needs n >= 0, k >= 1, got {n}, {k}")
    if k == 1 or n < 2:
        return n
    if k == 2:
        return math.isqrt(n)
    r = int(round(n ** (1.0 / k)))
    while r > 0 and r**k > n:
        r -= 1
    while (r + 1) ** k <= n:
        r += 1
    return r


def von_mangoldt(n: int) -> float:
    """log q if n = q**j for a prime q, else 0.0; exact prime-power detection."""
    if n < 1:
        raise DomainError(f"von_mangoldt needs n >= 1, got {n}")
    if n == 1:
        return 0.0
    for d in _SMALL_PRIMES:
        if n % d == 0:
            m = n
            while m % d == 0:
                m //= d
            return math.log(d) if m == 1 else 0.0
    if is_prime(n):
        return math.log(n)
    # no prime factor <= 47 remains, so any power q**j has q >= 53
    j = 2
    while 53**j <= n:
        r = _iroot(n, j)
        if r**j == n and is_prime(r):
            return math.log(r)
        j += 1
    return 0.0


def prime_powers_up_to(x: int) -> tuple[np.ndarray, np.ndarray]:
    """Every prime power r**j <= x (j >= 1), ascending, with its prime r: the
    von Mangoldt weight of powers[i] is log(bases[i]), and powers[i] is prime
    exactly when it equals bases[i]."""
    primes = primes_up_to(x)
    powers, bases = [primes], [primes]
    r = power = primes[primes * primes <= x]
    while len(r):
        power = power * r
        keep = power <= x
        r, power = r[keep], power[keep]
        powers.append(power)
        bases.append(r)
    powers, bases = np.concatenate(powers), np.concatenate(bases)
    order = np.argsort(powers, kind="stable")
    return powers[order], bases[order]


def factorize(n: int) -> dict[int, int]:
    """Prime factorisation by trial division (intended for n <= 1e9 scale)."""
    if n < 1:
        raise DomainError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    q = 5
    step = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += step
        step = 6 - step
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


@lru_cache(maxsize=4096)
def euler_totient(q: int) -> int:
    """Count of integers in [1, q] coprime to q."""
    if q < 1:
        raise DomainError(f"euler_totient needs q >= 1, got {q}")
    result = q
    for f in factorize(q):
        result = result // f * (f - 1)
    return result


def _distinct_factors(p_minus_1_factors, p: int) -> tuple[int, ...]:
    """The distinct primes of a factorisation of p-1, given as a {prime:
    exponent} dict, a list of primes, or (prime, exponent) pairs."""
    if isinstance(p_minus_1_factors, dict):
        factors = p_minus_1_factors
    else:
        factors = (f[0] if isinstance(f, (tuple, list)) else f for f in p_minus_1_factors)
    return _checked_factors(tuple(int(q) for q in factors), p)


@lru_cache(maxsize=4096)
def _checked_factors(factors: tuple[int, ...], p: int) -> tuple[int, ...]:
    """factors, once every entry is prime and together they divide out p-1;
    memoised, since searches check the same list once per sieve block."""
    for q in factors:
        if not is_prime(q):
            raise DomainError(f"factor {q} of p-1={p - 1} is not prime")
    check = p - 1
    for q in factors:
        while check % q == 0:
            check //= q
    if check != 1:
        raise DomainError("incomplete factorization of p-1")
    return factors


def multiplicative_order(u: int, p: int, p_minus_1_factors) -> int:
    """Least t > 0 with u**t = 1 mod p, given the prime factors of p-1.

    Accepts a {prime: exponent} dict, a list of primes, or (prime, exponent)
    pairs; only the distinct primes matter.
    """
    if math.gcd(u, p) != 1:
        raise DomainError(f"gcd({u}, {p}) != 1")
    t = p - 1
    for q in _distinct_factors(p_minus_1_factors, p):
        while t % q == 0 and pow(u, t // q, p) == 1:
            t //= q
    return t


# The wide path of euler_flags above the int64 ladder: at least _WIDE_MIN
# entries left (below that the scalar calls are faster), _WIDE_CHUNK
# entries per pass, which holds the Montgomery working set near 4 MB.
_WIDE_MIN = 512
_WIDE_CHUNK = 4096
_LIMB_BITS = 28
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Montgomery powers run for moduli of at most 6 limbs (p < 2**166): against
# pow in one process they measure 2.2-5x faster from 80 to 160 bits, but at 7
# and 8 limbs (167 to 258 bits) 1.3-2.4x, under 2x in most runs, so larger
# moduli keep the scalar pow.
_MAX_LIMBS = 6
_ODD_POWERS_OF_2 = 0x2AAAAAAAAAAAAAAA  # the bits 2**1, 2**3, 2**5, ...
# The prime stage of euler_flags has a fixed cost in numpy calls for each
# index leaf it runs, and one scalar pow grows with p, so it takes its
# entries once (entries taken) * (bits of p) reaches _INDEX_MIN_WORK.
_INDEX_MIN_WORK = 1024
# The stage splits entries 1 <= n <= _FACTOR_LIMIT without a base by a table
# of smallest prime factors of max(n), int32, which with the mask of the
# primes in use and their temporaries peaks at 5.6 MiB at the limit.  The
# table costs about 20 ns an entry, about 1/16 of a pow per bit of p, so it is
# built only while max(n) <= 16 * (entries taken) * (bits of p).
_FACTOR_LIMIT = 2**20


def _limb_count(p: int) -> int:
    """The fewest 28-bit limbs L with R = 2**(28L) > 4p."""
    return -(-(p.bit_length() + 2) // _LIMB_BITS)


def _limb_rows(v: int, limbs: int, n: int) -> np.ndarray:
    """The limbs of v as an (limbs, n) array, the same in every column (numpy
    multiplies by it faster than by a broadcast column)."""
    digits = [(v >> (_LIMB_BITS * j)) & _LIMB_MASK for j in range(limbs)]
    return np.repeat(np.array(digits, dtype=np.uint64)[:, None], n, axis=1)


class _Montgomery:
    """Montgomery arithmetic mod an odd p on n numbers at once (Montgomery,
    Math. Comp. 44, 1985).

    A number is L limbs of 28 bits in column j of a limb-major (L, n) uint64
    array, and R = 2**(28L) > 4p, so every product of two values below 2p
    reduces to a value below 2p again.  Carries are lazy: after each
    reduction two parallel carry rounds leave every limb below 2**28 + 16,
    so a product column and the reduction's additions stay below 2L * 2**56
    + 2**33 < 2**60 for L <= 6.
    """

    def __init__(self, p: int, n: int):
        self.limbs = L = _limb_count(p)
        self.p_inv = -pow(p, -1, 1 << _LIMB_BITS) & _LIMB_MASK
        self.p_rows = _limb_rows(p, L, n)
        self.r2_rows = _limb_rows(pow(2, 2 * _LIMB_BITS * L, p), L, n)
        self.t = np.empty((2 * L, n), dtype=np.uint64)
        self.tmp = np.empty((L, n), dtype=np.uint64)
        self.twice = np.empty((L, n), dtype=np.uint64)
        self.row = np.empty(n, dtype=np.uint64)

    def _redc(self, out: np.ndarray) -> None:
        """out = t / R mod p, word by word: each step adds the multiple of p
        that clears limb i and carries limb i into limb i+1."""
        L, t, tmp, row = self.limbs, self.t, self.tmp, self.row
        for i in range(L):
            np.multiply(t[i], self.p_inv, out=row)  # wraps mod 2**64: the low bits hold
            np.bitwise_and(row, _LIMB_MASK, out=row)
            np.multiply(self.p_rows, row, out=tmp)
            np.add(t[i : i + L], tmp, out=t[i : i + L])
            np.right_shift(t[i], _LIMB_BITS, out=row)
            np.add(t[i + 1], row, out=t[i + 1])
        high, carry = t[L:], tmp[: L - 1]
        for _ in range(2):
            np.right_shift(high[:-1], _LIMB_BITS, out=carry)
            np.bitwise_and(high[:-1], _LIMB_MASK, out=high[:-1])
            np.add(high[1:], carry, out=high[1:])
        np.copyto(out, high)

    def mul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
        """out = a * b / R mod p; out may be a or b."""
        L, t, tmp = self.limbs, self.t, self.tmp
        np.multiply(b, a[0], out=t[:L])
        t[L:] = 0
        for i in range(1, L):
            np.multiply(b, a[i], out=tmp)
            np.add(t[i : i + L], tmp, out=t[i : i + L])
        self._redc(out)

    def sqr(self, a: np.ndarray, out: np.ndarray) -> None:
        """out = a * a / R mod p, forming each cross product a_i a_j once."""
        L, t, tmp, twice = self.limbs, self.t, self.tmp, self.twice
        np.add(a, a, out=twice)
        np.multiply(a, a, out=t[0::2])
        t[1::2] = 0
        for i in range(L - 1):
            w = L - 1 - i
            np.multiply(twice[i + 1 :], a[i], out=tmp[:w])
            np.add(t[2 * i + 1 : i + L], tmp[:w], out=t[2 * i + 1 : i + L])
        self._redc(out)

    def power_is_one(self, r: np.ndarray, e: int) -> np.ndarray:
        """flags[i] = r[i]**e == 1 mod p for int64 0 <= r[i] < p and e >= 1,
        with a fixed 4-bit window: every column reads the same digit of e,
        so a window step multiplies by one (L, n) table entry."""
        L, n = self.limbs, len(r)
        r = r.astype(np.uint64)
        r_rows = np.zeros((L, n), dtype=np.uint64)
        for j in range(min(L, 3)):  # r < 2**63 has at most 3 limbs
            r_rows[j] = (r >> (_LIMB_BITS * j)) & _LIMB_MASK
        table = np.empty((16, L, n), dtype=np.uint64)
        self.mul(r_rows, self.r2_rows, table[1])  # r * R mod p
        for d in range(2, 16):
            self.mul(table[d - 1], table[1], table[d])
        top = (e.bit_length() - 1) // 4 * 4
        acc = table[e >> top].copy()  # the leading digit is never 0
        for shift in range(top - 4, -1, -4):
            for _ in range(4):
                self.sqr(acc, acc)
            if (e >> shift) & 15:
                self.mul(acc, table[(e >> shift) & 15], acc)
        # leave Montgomery form: the output is at most p, and 1 has one limb form
        self.t[:L] = acc
        self.t[L:] = 0
        self._redc(acc)
        return (acc[0] == 1) & ~acc[1:].any(axis=0)


def _residues(v: int, m: np.ndarray) -> np.ndarray:
    """v mod m[i] for an integer v and int64 0 < m[i] < 2**31, by a Horner
    pass over the 31-bit limbs of |v|."""
    u, r = abs(v), np.zeros_like(m)
    for shift in range((u.bit_length() - 1) // 31 * 31, -1, -31):
        r = ((r << 31) | ((u >> shift) & 0x7FFFFFFF)) % m
    return r if v >= 0 else -r % m


def _quadratic_flags(n: np.ndarray, p: int) -> np.ndarray:
    """flags[i] = (n[i] | p) == 1 for int64 0 < n[i] < 2**31 and an odd prime
    p > 2**31: the binary Jacobi symbol of Cohen, Alg. 1.4.10, on arrays.

    The first step strips the twos of n against p and swaps by reciprocity,
    taking p mod n by a Horner pass over the 31-bit limbs of p; every later
    pair (a, m) is below 2**31.
    """
    low = n & -n
    a = n // low
    negative = ((low & _ODD_POWERS_OF_2) != 0) & (p % 8 in (3, 5))
    if p % 4 == 3:
        negative ^= a % 4 == 3
    m, a = a, _residues(p, a)
    flags = np.zeros(len(n), dtype=bool)
    idx = np.arange(len(n))
    while len(idx):
        done = a == 0
        flags[idx[done]] = (m[done] == 1) & ~negative[done]
        live = ~done
        idx, a, m, negative = idx[live], a[live], m[live], negative[live]
        low = a & -a
        a //= low
        m8 = m & 7
        negative ^= ((low & _ODD_POWERS_OF_2) != 0) & ((m8 == 3) | (m8 == 5))
        negative ^= (a & m & 3) == 3
        a, m = m % a, a
    return flags


# The reciprocity rings F_r[x]/(x**m - s) of the quartic (m = 2, s = -1) and
# Eisenstein (m = ell, s = 1) leaves.  Coordinate k of a product sums a[i]
# times row k - i mod m of b at s = 1, or mod 2m of (b, -b) at s = -1.
_GATHER = {(m, s): (np.arange(m) - np.arange(m)[:, None]) % (m if s == 1 else 2 * m)
           for m, s in ((2, -1), (3, 1), (5, 1), (7, 1))}


def _ring_mul(a: np.ndarray, b: np.ndarray, r: np.ndarray, s: int) -> np.ndarray:
    """a*b in F_r[x]/(x**m - s) column by column, for (m, n) int64 rows of
    residues mod r[i] < 2**31 at m = 2 and < 2**30 at m <= 7: each coordinate
    sums m products below 2**62 or 2**60 in size, so below 2**63."""
    if s == -1:
        b = np.concatenate([b, -b])
    return np.einsum("in,ikn->kn", a, b.take(_GATHER[len(a), s], axis=0)) % r


def _ring_power(x: np.ndarray, e: np.ndarray, r: np.ndarray, s: int) -> np.ndarray:
    """x**e[i] in F_r[x]/(x**m - s) column by column, for (m, n) int64 rows
    within _ring_mul's bounds and e[i] >= 0, by 2-bit windows, top digit
    first, each column its own.  Entry d of column i in the flat table of 1,
    x, x**2 and x**3 is at d*m*n + i + (0, n, ..., (m-1)*n)."""
    m, n = x.shape
    square = _ring_mul(x, x, r, s)
    table = np.stack([np.eye(m, 1, dtype=np.int64).repeat(n, axis=1), x, square, _ring_mul(square, x, r, s)])
    top = max(int(e.max(initial=0)).bit_length() - 1, 0)
    digits = ((e >> np.arange(top - top % 2, -1, -2)[:, None]) & 3) * (m * n) + np.arange(n)
    entries = np.arange(m)[:, None] * n
    acc = table.take(digits[0] + entries)
    for digit in digits[1:]:
        acc = _ring_mul(acc, acc, r, s)
        acc = _ring_mul(_ring_mul(acc, acc, r, s), table.take(digit + entries), r, s)
    return acc


# Quartic indices of a prime q by reciprocity (Ireland and Rosen, A Classical
# Introduction to Modern Number Theory, ch. 9): with p = N(pi) for a primary
# Gaussian prime pi, q**((p-1)/4) mod p is read off a power of pi in
# Z[i]/(q) = F_q[x]/(x**2 + 1), by _ring_power: a ladder of about log2(q)
# steps on int64 numbers below q, in place of a power mod p.


def _cornacchia(d: int, p: int, r: int) -> tuple[int, int]:
    """(x, y) with x**2 + d*y**2 = p, for a prime p that has such a form and
    r**2 = -d mod p (Cornacchia's algorithm, Cohen Alg. 1.5.2)."""
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    return b, math.isqrt((p - b * b) // d)


@lru_cache(maxsize=64)
def _gaussian_prime(p: int) -> tuple[int, int]:
    """(a, b) with a + b*i primary (b even, a + b = 1 mod 4) and of norm
    a**2 + b**2 = p, for a prime p = 1 mod 4: sqrt(-1) = c**((p-1)/4) for a
    quadratic nonresidue c, then Cornacchia gives p = x**2 + y**2."""
    c = 2
    while jacobi(c, p) != -1:
        c += 1
    x, y = _cornacchia(1, p, pow(c, (p - 1) // 4, p))
    a, b = (x, y) if x % 2 else (y, x)
    return (a, b) if (a + b) % 4 == 1 else (-a, -b)


def _quartic_index(q: np.ndarray, p: int) -> np.ndarray:
    """t[i] in Z/4 with q[i]**((p-1)/4) = c**t[i] mod p, for odd primes
    q[i] < 2**31 and a prime p = 1 mod 4 other than q[i], where pi = a + b*i
    is _gaussian_prime(p) and c = -a/b mod p (so c = i mod pi).

    By reciprocity c**t = (q/pi) = (pi/q), read off u + v*i, a power of pi
    mod q by _ring_power in F_q[x]/(x**2 + 1).  For q = 1 mod 4, q splits
    into two primes and u + v*i = pi**((q-1)/4) is i**s mod one and i**s' mod
    the other, t = s + s': with N = u**2 + v**2 and M = u**2 - v**2, t = 0 or
    2 as N*M = 1 or not when M != 0, and 1 or 3 as 2*u*v*N = -1 or not when
    M = 0.  For q = 3 mod 4, u + v*i = pi**((q+1)/4) and (pi/q) =
    (u - v*i)/(u + v*i): t = 0, 2, 1 or 3 as v = 0, u = 0, u = -v or u = v,
    plus 2 when p = 5 mod 8 (-q is the primary one, and -1 is a 4th power mod
    p only when p = 1 mod 8)."""
    a, b = _gaussian_prime(p)
    up = q % 4 == 1
    u, v = _ring_power(np.stack([_residues(a, q), _residues(b, q)]), (q - np.where(up, 1, -1)) // 4, q, -1)
    n, m = (u * u + v * v) % q, (u * u - v * v) % q
    split = np.where(m != 0, np.where(n * m % q == 1, 0, 2), np.where(2 * u * v % q * n % q == q - 1, 1, 3))
    inert = np.select([v == 0, u == 0, (u + v) % q == 0], [0, 2, 1], 3) + 2 * (p % 8 == 5)
    return np.where(up, split, inert) % 4


# Cubic, quintic and septic indices by Eisenstein reciprocity (Ireland and
# Rosen, ch. 14): for ell in {3, 5, 7}, with c a primitive ell-th root of
# unity mod p and pi = gcd(p, z - c) primary in Z[z], z**ell = 1, a prime r
# other than ell and p has r**((p-1)/ell) = c**E mod p exactly when
# (pi/r) = z**E, a product of powers of pi's conjugates mod r.  Z[z] is
# norm-Euclidean for these ell (Lenstra, "Euclid's algorithm in cyclotomic
# fields", 1975).  An element of Z[z] is a tuple of ell - 1 integers, the
# coefficients of 1, z, ..., z**(ell-2), and (pi/r) comes from _ring_power
# and _ring_mul in F_r[x]/(x**ell - 1), a column of ell residues there.


def _zeta_mul(a, b) -> list:
    """a*b in Z[z]/(1 + z + ... + z**(ell-1))."""
    ell = len(a) + 1
    out = [0] * ell
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % ell] += x * y
    return [v - out[-1] for v in out[:-1]]


def _zeta_conj(a, s: int) -> list:
    """sigma_s(a), the conjugate of a under z -> z**s."""
    ell = len(a) + 1
    out = [0] * ell
    for i, x in enumerate(a):
        out[i * s % ell] += x
    return [v - out[-1] for v in out[:-1]]


def _zeta_others(a) -> list:
    """The product of a's conjugates other than a: a times it is N(a)."""
    acc = [1] + [0] * (len(a) - 1)
    for s in range(2, len(a) + 1):
        acc = _zeta_mul(acc, _zeta_conj(a, s))
    return acc


@lru_cache(maxsize=64)
def _cyclotomic_prime(ell: int, p: int) -> tuple[int, tuple[int, ...]]:
    """(c, pi) for ell in {3, 5, 7} and a prime p = 1 mod ell: c is the least
    power c = g**((p-1)/ell) != 1 over g = 2, 3, ..., and pi = gcd(p, z - c)
    in Z[z] by Euclid, of norm p, times the z**s that makes it primary
    (congruent to an integer mod (1 - z)**2): z**i = 1 - i*(1 - z) there, so
    with A = sum(a_i) and B = sum(i*a_i), s = -B/A mod ell."""
    g = 2
    while (c := pow(g, (p - 1) // ell, p)) == 1:
        g += 1
    a, b = [p] + [0] * (ell - 2), [-c, 1] + [0] * (ell - 3)
    rest = _zeta_others(b)
    norm = _zeta_mul(b, rest)[0]
    while norm:
        # a - q*b with q = a*rest/N(b) rounded coefficientwise, or, where that
        # falls short of N(b) (about one step in a thousand at ell = 7), the
        # floor or ceiling of each coefficient
        t = _zeta_mul(a, rest)
        corners = ([v // norm + e for v, e in zip(t, corner)] for corner in itertools.product((0, 1), repeat=ell - 1))
        for q in itertools.chain([[(2 * v + norm) // (2 * norm) for v in t]], corners):
            r = [x - y for x, y in zip(a, _zeta_mul(q, b))]
            r_rest = _zeta_others(r)
            if (r_norm := _zeta_mul(r, r_rest)[0]) < norm:
                break
        else:
            raise ArithmeticError(f"no Euclidean step below N = {norm} in Z[z], z**{ell} = 1")
        a, b, rest, norm = b, r, r_rest, r_norm
    s = -sum(i * x for i, x in enumerate(a)) * pow(sum(a), -1, ell) % ell
    v = a + [0]
    v = v[-s:] + v[:-s] if s else v  # z**s * pi: its coefficients rotated mod x**ell - 1
    return c, tuple(x - v[-1] for x in v[:-1])


@lru_cache(maxsize=64)
def _stickelberger_tables(ell: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, lam) for _eisenstein_index, from pi of _cyclotomic_prime, as
    31-bit limbs, most significant first, of ell coefficients mod x**ell - 1
    made nonnegative by adding a multiple of 1 + x + ... + x**(ell-1), which
    is 0 in Z[z].  With u(a) = a^-1 mod ell in [1, ell-1]: theta[j] holds
    limb j of prod over a of sigma_a(pi)**(u(a) - 1), and lam[j, t] limb j
    of prod sigma_a(pi)**(floor(u(a)*e/ell) - low) for the e = t mod ell in
    (-ell/2, ell/2), low the least of those exponents."""
    _, pi = _cyclotomic_prime(ell, p)
    u = [pow(a, -1, ell) for a in range(1, ell)]

    def product(exponents):
        # the least exponent is a power of p = N(pi), a unit mod every r
        acc = [1] + [0] * (ell - 2)
        for a, count in enumerate(exponents, start=1):
            conj = _zeta_conj(pi, a)
            for _ in range(count - min(exponents)):
                acc = _zeta_mul(acc, conj)
        low = min(acc + [0])
        return [x - low for x in acc + [0]]

    def limbs(rows):
        top = max(x.bit_length() for row in rows for x in row)
        return np.array([[[(x >> shift) & 0x7FFFFFFF for x in row] for row in rows]
                         for shift in range((top - 1) // 31 * 31, -1, -31)], dtype=np.int64)

    lams = [product([v * e // ell for v in u]) for e in (t if 2 * t < ell else t - ell for t in range(ell))]
    return limbs([product(u)])[:, 0], limbs(lams)


def _eisenstein_index(r: np.ndarray, ell: int, p: int) -> np.ndarray:
    """t[i] in Z/ell with r[i]**((p-1)/ell) = c**t[i] mod p, c and pi as in
    _cyclotomic_prime, for ell in {3, 5, 7}, primes r[i] < 2**30 other than ell
    and a prime p = 1 mod ell other than r[i]; r[i] is an ell-th power iff
    t[i] = 0.

    By Eisenstein reciprocity z**t = (pi/r), the product over the primes
    P | r of pi**((r**f - 1)/ell) mod P, f the order of r mod ell.  The f
    base-r digits of (r**f - 1)/ell are floor(w*r/ell), w = r**(f-1-i) mod
    ell, and pi**r = sigma_r(pi) mod r (Frobenius); with P = sigma_a(P0) for
    a over the cosets of <r>, the product is prod over every b of
    sigma_b(pi)**floor(v*r/ell), v = (b*r)^-1 mod ell.  So, with M = r/ell
    rounded, e = r - ell*M and rho = r mod ell, it is
    sigma_rho^-1(theta**M * lam_e) times a power of p, a unit mod r (theta
    and lam_e as in _stickelberger_tables): theta**M by _ring_power, about
    log2(r/ell) steps in F_r[x]/(x**ell - 1), times lam_e by _ring_mul, in
    place of a power mod p.  A value s*x**t' + u*(1 + x + ... + x**(ell-1))
    with s != 0 is z**t' there, so t' is the coordinate unlike the others,
    and t = t'/rho = t'*rho**(ell-2) mod ell.
    """
    theta, lam = _stickelberger_tables(ell, p)
    rho = r % ell
    # theta and lam_e mod r by int64 Horner passes over their limbs
    x, y = np.zeros((2, ell, len(r)), dtype=np.int64)
    for limbs in theta:
        x = ((x << 31) | limbs[:, None]) % r
    for limbs in lam:
        y = ((y << 31) | limbs[rho].T) % r
    acc = _ring_mul(_ring_power(x, (r + ell // 2) // ell, r, 1), y, r, 1)
    unlike = acc != np.where(acc[0] == acc[1], acc[0], acc[2])
    return np.argmax(unlike, axis=0) * rho ** (ell - 2) % ell


@lru_cache(maxsize=64)
def _paid_index(r: int, m: int, p: int) -> int:
    """t in Z/m with r**((p-1)/m) = c**t mod p, for the one prime r that no
    index leaf of part m in {4, 3, 5, 7} takes (2 at m = 4, ell at m = ell),
    by one pow memoised per p.  c is part m's root of unity: -a/b mod p for
    the Gaussian prime a + b*i of _gaussian_prime at m = 4 (c = i mod
    a + b*i), and c of _cyclotomic_prime at m = ell."""
    if m == 4:
        a, b = _gaussian_prime(p)
        c = -a * pow(b, -1, p) % p
    else:
        c = _cyclotomic_prime(m, p)[0]
    roots = list(itertools.accumulate([c] * (m - 1), lambda x, y: x * y % p, initial=1))
    return roots.index(pow(r, (p - 1) // m, p))


def _part_index(r: np.ndarray, m: int, p: int) -> np.ndarray:
    """t[i] in Z/m with r[i]**((p-1)/m) = c**t[i] mod p, for a part m in
    {2, 4, 3, 5, 7} with m | p-1 and primes r[i] < 2**30 other than p, c
    the part's root of unity (-1 for m = 2, as in _paid_index otherwise):
    the Jacobi symbol takes every r at m = 2, the quartic index every odd r
    at 4 and the Eisenstein index every r other than ell at ell."""
    if m == 2:
        return np.where(_quadratic_flags(r, p), 0, 1)
    paid = 2 if m == 4 else m
    leaf = r != paid
    t = np.empty(len(r), dtype=np.int64)
    t[leaf] = _quartic_index(r[leaf], p) if m == 4 else _eisenstein_index(r[leaf], m, p)
    if not leaf.all():
        t[~leaf] = _paid_index(paid, m, p)
    return t


def _prime_indices(r: np.ndarray, d: int, p: int) -> np.ndarray:
    """t[i] in Z/d for d | 420 with d | p-1 and primes r[i] < 2**30 other than
    p: t[i] = _part_index(r, m, p)[i] mod m for each part m of d (its 2-part,
    3, 5 and 7), joined by the Chinese remainder theorem.  Arrays go
    _WIDE_CHUNK entries at a time (about 4 MB of scratch)."""
    if len(r) > _WIDE_CHUNK:
        return np.concatenate([_prime_indices(r[i : i + _WIDE_CHUNK], d, p) for i in range(0, len(r), _WIDE_CHUNK)])
    t = np.zeros(len(r), dtype=np.int64)
    for m in (math.gcd(d, 4), 3, 5, 7):
        if m > 1 and d % m == 0:
            t += _part_index(r, m, p) * (d // m * pow(d // m, -1, m))
    return t % d


def _smallest_prime_factors(x: int) -> np.ndarray:
    """spf[n] = the least prime factor of n for 2 <= n <= x, and n itself for
    n < 2, as int32: each prime q up to sqrt(x) claims the multiples from q*q
    on that no smaller prime has claimed, and what is left is prime."""
    spf = np.zeros(x + 1, dtype=np.int32)
    for q in np.flatnonzero(_simple_sieve(math.isqrt(x))).tolist():
        multiples = spf[q * q :: q]
        multiples[multiples == 0] = q
    unclaimed = np.flatnonzero(spf == 0)
    spf[unclaimed] = unclaimed
    return spf


def _walk(n: np.ndarray, spf: np.ndarray):
    """(live, r) for each step of the walk that divides the entries
    n[live] > 1 by their least prime factors r = spf[n[live]] until every
    entry is 1, for 1 <= n[i] < len(spf)."""
    m, live = n.copy(), np.flatnonzero(n > 1)
    while len(live):
        r = spf[m[live]]
        yield live, r
        m[live] //= r
        live = live[m[live] > 1]


def _distinct_primes(n: np.ndarray, spf: np.ndarray) -> np.ndarray:
    """The primes that divide some n[i], ascending, for 1 <= n[i] < len(spf)."""
    used = np.zeros(len(spf), dtype=bool)
    for _, r in _walk(n, spf):
        used[r] = True
    return np.flatnonzero(used)


def _exponents(ns: np.ndarray, bases: np.ndarray, take: np.ndarray) -> np.ndarray:
    """j[i] >= 1 with bases[t]**j[i] == ns[t] for t = take[i], _WIDE_CHUNK
    entries at a time; a DomainError for the first t with no such j."""
    j = np.empty(len(take), dtype=np.int64)
    for start in range(0, len(take), _WIDE_CHUNK):
        chunk = take[start : start + _WIDE_CHUNK]
        r, n = bases[chunk], ns[chunk]
        e = np.rint(np.log(np.maximum(n, 1)) / np.log(r)).astype(np.int64)
        # a power r**e below 2**64 fits int64 or wraps to a negative number
        fits = (e >= 1) & (e * np.log2(r) < 63.5)
        wrong = np.flatnonzero(~fits | (r ** np.where(fits, e, 0) != n))
        if len(wrong):
            i = chunk[wrong[0]]
            raise DomainError(f"bases[{i}] = {bases[i]} is not the prime of ns[{i}] = {ns[i]}")
        j[start : start + len(chunk)] = e
    return j


def _entry_indices(n: np.ndarray, bases: np.ndarray | None, j: np.ndarray | None, spf: np.ndarray | None,
                   d: int, p: int) -> np.ndarray:
    """t[i] in Z/d for d | 420 with d | p-1: the sum of e * _prime_indices(r)
    over the (entry, prime, exponent) triples (i, r, e) of n[i], so that
    t[i] mod m is the index of n[i] in each part m of d.  The triple is
    (i, bases[i], j[i]) for n[i] = bases[i]**j[i] with primes
    bases[i] < 2**30 other than p; without bases, 1 <= n[i] < len(spf), and
    each step of its walk through the table spf of smallest prime factors
    gives one triple (i, r, 1)."""
    if bases is not None:
        primes, inverse = np.unique(bases, return_inverse=True)
        return j * _prime_indices(primes, d, p)[inverse] % d
    primes = _distinct_primes(n, spf)
    index, t = _prime_indices(primes, d, p), np.zeros(len(n), dtype=np.int64)
    for live, r in _walk(n, spf):
        t[live] += index[np.searchsorted(primes, r)]
    return t % d


def _prime_stage(n: np.ndarray, bases: np.ndarray | None, j: np.ndarray | None, k: int,
                 p: int) -> tuple[np.ndarray, np.ndarray]:
    """(flags, done) for the entries n: done[i] when the stage decides n[i],
    and then flags[i] = n[i]**((p-1)/k) == 1 mod p.  n[i] = bases[i]**j[i]
    for primes bases[i] < 2**30 other than p, or without bases
    1 <= n[i] <= _FACTOR_LIMIT, split into primes by a table of smallest
    prime factors.

    An entry is a dth power, d = gcd(k, 420), iff its index from
    _entry_indices is 0, which for d = k is the verdict.  For d < k the
    factored survivors take n**((p-1)/k) as the product of one witness
    pow(r, (p-1)/k, p) per distinct prime among them, when they have fewer
    such primes than entries; other survivors stay undecided."""
    d = math.gcd(k, 420)
    spf = None if bases is not None else _smallest_prime_factors(int(n.max(initial=1)))
    flags = _entry_indices(n, bases, j, spf, d, p) == 0 if d > 1 else np.ones(len(n), dtype=bool)
    done = np.ones(len(n), dtype=bool) if d == k else ~flags
    if d < k and spf is not None:
        alive = np.flatnonzero(flags)
        primes = _distinct_primes(n[alive], spf)
        if len(primes) < len(alive):
            witness = np.array([pow(r, (p - 1) // k, p) for r in primes.tolist()], dtype=object)
            for start in range(0, len(alive), _WIDE_CHUNK):
                chunk = alive[start : start + _WIDE_CHUNK]
                acc = np.ones(len(chunk), dtype=object)
                for live, r in _walk(n[chunk], spf):
                    acc[live] = acc[live] * witness[np.searchsorted(primes, r)] % p
                flags[chunk] = acc == 1
            done[alive] = True
    return flags, done


def _entries(ns, bases) -> tuple[np.ndarray, np.ndarray | None]:
    """ns, and bases unless it is None, as 1-D int64 arrays of one shape; a
    DomainError for anything else (a scalar, 2-D input, entries outside
    int64, or bases of another length)."""
    arrays = [np.asarray(a) for a in ([ns] if bases is None else [ns, bases])]
    for a in arrays:
        integers = a.dtype == np.int64 or a.size == 0 or np.can_cast(a.dtype, np.int64)
        if a.ndim != 1 or a.shape != arrays[0].shape or not integers:
            raise DomainError(f"ns must be a 1-D int64 array and bases one of its shape, got {a.dtype} {a.shape}")
    ns = arrays[0].astype(np.int64, copy=False)
    return ns, None if bases is None else arrays[1].astype(np.int64, copy=False)


def euler_flags(ns, k: int, p: int, bases=None) -> np.ndarray:
    """flags[i] = ns[i]**((p-1)/k) == 1 mod p: the Euler criterion, True
    exactly for the kth power residues (multiples of p are never flagged).

    Contract: p is a prime with k | p-1; ns is a 1-D array of int64
    integers; bases, when given, has the shape of ns and bases[i] is the
    prime r with ns[i] = r**j, j >= 1.  The shapes and the int64 range are
    checked before any work, and r**j == ns[i] on every entry the prime
    stage takes (DomainError otherwise); that r is prime is trusted.

    Square-and-multiply runs over the whole int64 array while (p-1)**2 < 2**63,
    i.e. for p <= 3_037_000_500.  Above that one pass takes the entries
    through three stages in this order, and an entry a stage decides goes no
    further:
    1. The prime stage, for k >= 3, on (entry, prime, exponent) triples:
       with bases, (i, r, j) for the entries with 2 <= r < 2**30 (the index
       ladders overflow int64 from 2**30 on); without bases, for entries
       1 <= n <= 2**20, a triple (i, r, 1) for each step of a walk through a
       table of smallest prime factors of their maximum.  Each distinct
       prime r takes its index t in Z/m for each part m of d = gcd(k, 420)
       (the 2-part of k, 3, 5 and 7 as they divide k), with
       r**((p-1)/m) = c**t for the part's root of unity c (_paid_index): the
       Jacobi symbol gives it for m = 2, quartic reciprocity for 4 (odd r),
       the Eisenstein index for ell (r != ell), and a prime no leaf takes (2
       at 4, ell at ell) pays one pow(r, (p-1)/m, p) per p, read as a power
       of c.
       An entry's part index is the sum of e*t over its triples mod m, and
       the entry is a dth power iff every part index is 0.  When d = k that
       is the verdict.  Otherwise the survivors (every entry for d = 1) need
       the full exponent (p-1)/k: the factored ones take the product of one
       witness pow(r, (p-1)/k, p) per distinct prime among them, when they
       have fewer such primes than entries, and the rest go on to stage 2.
       The stage runs once (entries taken) * (bits of p) reaches 1024
       (below that one pow each is faster) and, without bases, 16 times
       that reaches the largest entry (the table costs about 20 ns an
       entry); the table peaks under 6 MiB.  Its indices stay inside it:
       stages 2 and 3 give flags only.
    2. The wide path on what is left, once at least 512 entries remain: for
       k = 2 a binary Jacobi loop on int64 arrays (entries with residue mod p
       in (0, 2**31)), for k >= 3 Montgomery powers on 28-bit limbs while
       p < 2**166, 4096 entries at a time (about 4 MB of scratch).
    3. One scalar jacobi (k = 2) or pow per entry still left.
    """
    ns, bases = _entries(ns, bases)
    if k < 1 or (p - 1) % k != 0:
        raise DomainError(f"k={k} does not divide p-1={p - 1}")
    e = (p - 1) // k
    if (p - 1) ** 2 < 2**63:
        base = ns % p
        result = np.ones_like(base)
        while e:
            if e & 1:
                result *= base
                result %= p
            e >>= 1
            if e:
                base *= base
                base %= p
        return result == 1
    flags = np.zeros(len(ns), dtype=bool)
    left = np.arange(len(ns))
    if k >= 3 and (bases is None or math.gcd(k, 420) > 1):
        take = np.flatnonzero((ns >= 1) & (ns <= _FACTOR_LIMIT) if bases is None else (bases >= 2) & (bases < 2**30))
        work = len(take) * p.bit_length()
        if work >= _INDEX_MIN_WORK and (bases is not None or ns[take].max(initial=0) <= 16 * work):
            j = None if bases is None else _exponents(ns, bases, take)
            flags[take], done = _prime_stage(ns[take], None if bases is None else bases[take], j, k, p)
            rest = np.ones(len(ns), dtype=bool)
            rest[take[done]] = False
            left = np.flatnonzero(rest)
    if len(left) >= _WIDE_MIN and (k == 2 or _limb_count(p) <= _MAX_LIMBS):
        r = ns[left] % p if p < 2**63 else ns[left]  # every int64 in [0, 2**63) is below p
        wide = (r > 0) & (r < 2**31) if k == 2 else r > 0
        todo = np.flatnonzero(wide)
        for start in range(0, len(todo), _WIDE_CHUNK):
            chunk = todo[start : start + _WIDE_CHUNK]
            flags[left[chunk]] = (_quadratic_flags(r[chunk], p) if k == 2
                                  else _Montgomery(p, len(chunk)).power_is_one(r[chunk], e))
        left = left[~wide]
    flags[left] = _scalar_flags(ns[left], k, e, p)
    return flags


def _scalar_flags(ns: np.ndarray, k: int, e: int, p: int) -> np.ndarray:
    """euler_flags by one jacobi (k = 2) or one pow per element."""
    if k == 2:
        return np.fromiter((jacobi(int(n), p) == 1 for n in ns), dtype=bool, count=len(ns))
    return np.fromiter((pow(int(n), e, p) == 1 for n in ns), dtype=bool, count=len(ns))


def has_exact_order(ns, p: int, k: int, p_minus_1_factors, bases=None) -> np.ndarray:
    """flags[i] = ns[i] has multiplicative order exactly (p-1)/k mod p.

    The Euler witness n**((p-1)/k) == 1 goes first and rejects about (k-1)/k
    of all n; a survivor then must not be a (k*f)th power for any prime f
    dividing (p-1)/k.  For f dividing k that stage tests
    n**((p-1)/(k*f)) == 1.  For f not dividing k it is euler_flags with f
    in place of k*f: F_p* is cyclic, so for gcd(k, f) = 1 its (k*f)th powers
    are its kth powers that are fth powers.  Every stage goes through
    euler_flags' prime stage, which decides the part gcd(degree, 420) of its
    degree by character indices, so only the primes no index leaf takes pay
    a power there (at 10^48+217 with k = 7, the first stage pays one, for
    the prime 7); f = 2 is a Jacobi symbol.  bases, as in euler_flags, goes
    to every stage, which takes the survivors' bases alone.  A flagged entry
    has order (p-1)/k, so a caller that needs the order of one need not
    compute it again.
    """
    ns, bases = _entries(ns, bases)
    flags = euler_flags(ns, k, p, bases)
    e = (p - 1) // k
    for f in _distinct_factors(p_minus_1_factors, p):
        if e % f == 0:
            alive = np.flatnonzero(flags)
            flags[alive] = ~euler_flags(ns[alive], k * f if k % f == 0 else f, p,
                                        None if bases is None else bases[alive])
    return flags


@dataclass(frozen=True)
class OddPrimeContext:
    """A validated odd prime with its cached logarithms.

    bound_x(e) = log(p) * log(log(p))**e is the search radius every headline
    computation is measured against; it is monotone increasing in e because
    loglog_p > 1 for p >= 17 (the only regime allowed outside test mode).
    """

    p: int
    log_p: float
    loglog_p: float

    @classmethod
    def for_prime(cls, p: int, allow_small: bool = False) -> "OddPrimeContext":
        if p < 3 or p % 2 == 0 or not is_prime(p):
            raise DomainError(f"{p} is not an odd prime")
        if p < 17 and not allow_small:
            raise DomainError(f"p={p} < 17 needs allow_small=True (test/oracle mode)")
        log_p = math.log(p)
        return cls(p=p, log_p=log_p, loglog_p=math.log(log_p))

    def bound_x(self, e: float) -> float:
        return self.log_p * self.loglog_p**e


@dataclass(frozen=True)
class ResidueClass:
    """The arithmetic progression a + q*m; requires gcd(a, q) = 1.

    (a=0, q=1) is the trivial class containing every integer.
    """

    a: int
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise DomainError(f"q must be >= 1, got {self.q}")
        if self.q == 1:
            if self.a != 0:
                raise DomainError("the trivial class q=1 requires a=0")
            return
        if not 1 <= self.a < self.q:
            raise DomainError(f"need 1 <= a < q, got a={self.a}, q={self.q}")
        if math.gcd(self.a, self.q) != 1:
            raise DomainError(f"gcd({self.a}, {self.q}) != 1")

    def contains(self, n):
        """n in the class; on an integer array, the elementwise mask."""
        return n % self.q == self.a
