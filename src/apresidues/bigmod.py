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
from functools import lru_cache, reduce

import numpy as np

from .errors import DomainError, IntegrityError, ResourceError

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


def _odd_segments(lo: int, hi: int):
    """The one sieve.  Yield (start, odd) for each segment of at most _SEGMENT
    numbers over the odd numbers in [max(lo, 3), hi]: start is odd, and odd[i]
    says whether start + 2i is prime.  Each odd prime q <= sqrt(hi) strikes
    its odd multiples from q*q on, every q-th entry; those sieving primes come
    from this walk itself, which bottoms out in _SMALL_PRIMES below 48**2."""
    if hi < 48 * 48:
        base = [q for q in _SMALL_PRIMES[1:] if q * q <= hi]
    else:
        base = [q for s, odd in _odd_segments(3, math.isqrt(hi)) for q in (2 * np.flatnonzero(odd) + s).tolist()]
    start = max(lo, 3) | 1
    while start <= hi:
        odd = np.ones(min(_SEGMENT // 2, (hi - start) // 2 + 1), dtype=bool)
        for q in base:
            m = max(q, -(-start // q)) | 1  # m*q: the first odd multiple to strike
            odd[(m * q - start) // 2 :: q] = False
        yield start, odd
        start += 2 * len(odd)


def prime_mask(x: int) -> np.ndarray:
    """Boolean array of length max(x+1, 1) with mask[n] = n is prime; the odd
    numbers are copied in one sieve segment at a time."""
    if x > _SIEVE_LIMIT:
        raise ResourceError(f"sieve budget is {_SIEVE_LIMIT}, got {x}")
    mask = np.zeros(max(x + 1, 1), dtype=bool)
    mask[2:3] = True
    for start, odd in _odd_segments(3, x):
        mask[start : start + 2 * len(odd) : 2] = odd
    return mask


def primes_up_to(x: int) -> np.ndarray:
    """All primes <= x, ascending (segmented sieve, budget 1e9)."""
    if x > _SIEVE_LIMIT:
        raise ResourceError(f"sieve budget is {_SIEVE_LIMIT}, got {x}")
    return np.concatenate(list(_prime_segments(2, x)))


def _prime_segments(lo: int, hi: int):
    """Yield the primes in [lo, hi] as ascending int64 arrays: [2] when 2 is
    in range (else an empty array), then the odd primes of each segment."""
    yield np.array([2], dtype=np.int64)[: int(lo <= 2 <= hi)]
    for start, odd in _odd_segments(lo, hi):
        yield 2 * np.flatnonzero(odd) + start


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


# The reciprocity rings F_r[x]/(x**m - s) of the index leaves: the quartic
# leaf's (2, -1), the octic leaf's (4, -1) and the (m, 1) of the leaves of
# order m = 3, 5, 7 and 9.  Coordinate k of a product sums a[i] times row
# k - i mod m of b at s = 1, or mod 2m of (b, -b) at s = -1.
_GATHER = {(m, s): (np.arange(m) - np.arange(m)[:, None]) % (m if s == 1 else 2 * m)
           for m, s in ((2, -1), (4, -1), (3, 1), (5, 1), (7, 1), (9, 1))}


def _ring_mul(a: np.ndarray, b: np.ndarray, r: np.ndarray, s: int) -> np.ndarray:
    """a*b in F_r[x]/(x**m - s) column by column, for (m, n) int64 rows of
    residues mod r[i] < 2**31 at m = 2, < 2**30 at m <= 7 and < 2**29 at
    m = 9: each coordinate sums m products below 2**62, 2**60 or 2**58 in
    size, so below 2**63."""
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


# Indices of order m in {3, 5, 7, 8, 9} by the power reciprocity law (Ireland
# and Rosen, ch. 14; Lemmermeyer, Reciprocity Laws, 2000): with c a primitive
# mth root of unity mod p and pi = gcd(p, z - c) in Z[z], z**m = 1 primitive,
# a prime r prime to m*p has r**((p-1)/m) = c**t mod p exactly when
# (r/pi) = z**t.  The leaf reads (pi/r) = z**s, a product of powers of pi's
# conjugates mod r, and t = s + chi(r).  For prime m and primary pi, chi = 0
# (Eisenstein reciprocity); for m = 8 and 9, chi is the product of the Hilbert
# symbols at the prime over 2 or 3, a character of r mod 16 or 27, learned once
# per p.  Z[z] is norm-Euclidean for these m (Lenstra, "Euclid's algorithm in
# cyclotomic fields", 1975).  An element of Z[z] is a list of phi(m) integers,
# the coefficients of 1, z, ..., z**(phi(m)-1), reduced mod the cyclotomic
# polynomial Phi_m, and (pi/r) comes from _ring_power and _ring_mul in the
# ring _RINGS[m] over F_r: F_r[x]/(x**m - 1) for odd m, which Phi_m divides,
# and Z[z]/(r) = F_r[x]/(x**4 + 1) itself at m = 8.
_RINGS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 8: (4, -1), 9: (9, 1)}
_INVERSES = {m: np.array([pow(a, -1, m) if math.gcd(a, m) == 1 else 0 for a in range(m)]) for m in _RINGS}
# At m = 8 and 9, chi is a character of r mod _CONDUCTOR[m], learned from its
# value at each generator g of that group by the index of a prime r = g mod
# the conductor (31 = -1 mod 16): (prime, g) in _LEARNED[m]
_CONDUCTOR = {8: 16, 9: 27}
_LEARNED = {8: ((31, 15), (5, 5)), 9: ((2, 2),)}
# the leaf's indices at these primes are checked against pow once per state
_CERTIFICATE_PRIMES = (7, 11, 13, 17, 19, 23, 29, 37, 41, 43, 47, 53, 59, 61, 67, 71)


def _prime_of(m: int) -> int:
    """The prime q of which m > 1 is a power, for m | 2520."""
    return next(q for q in (2, 3, 5, 7) if m % q == 0)


def _units(m: int) -> list[int]:
    """The a in [1, m) prime to m, 1 first."""
    return [a for a in range(1, m) if math.gcd(a, m) == 1]


def _zeta_reduce(v: list, m: int) -> list:
    """v, m coefficients mod x**m - 1, reduced mod Phi_m, which for m a power
    of the prime q is the sum of x**(j*m/q) over j < q: phi(m) coefficients."""
    step = m // _prime_of(m)
    phi = m - step
    for i in range(m - 1, phi - 1, -1):
        for j in range(i - phi, i, step):
            v[j] -= v[i]
    return v[:phi]


def _zeta_mul(a, b, m: int) -> list:
    """a*b in Z[z]/Phi_m."""
    out = [0] * m
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[(i + j) % m] += x * y
    return _zeta_reduce(out, m)


def _zeta_conj(a, s: int, m: int) -> list:
    """sigma_s(a), the conjugate of a under z -> z**s."""
    out = [0] * m
    for i, x in enumerate(a):
        out[i * s % m] += x
    return _zeta_reduce(out, m)


def _zeta_others(a, m: int) -> list:
    """The product of a's conjugates other than a: a times it is N(a)."""
    acc = [1] + [0] * (len(a) - 1)
    for s in _units(m)[1:]:
        acc = _zeta_mul(acc, _zeta_conj(a, s, m), m)
    return acc


@lru_cache(maxsize=64)
def _cyclotomic_prime(m: int, p: int) -> tuple[int, tuple[int, ...]]:
    """(c, pi) for m in {3, 5, 7, 8, 9} and a prime p = 1 mod m: c is the
    least power c = g**((p-1)/m) of order m over g = 2, 3, ..., and
    pi = gcd(p, z - c) in Z[z] by Euclid, of norm p.  For prime m = ell, pi
    is times the z**s that makes it primary (congruent to an integer mod
    (1 - z)**2): z**i = 1 - i*(1 - z) there, so with A = sum(a_i) and
    B = sum(i*a_i), s = -B/A mod ell.  At m = 8 and 9 any pi of norm p
    serves, since _correction learns chi for the pi it is given."""
    q = _prime_of(m)
    g = 2
    while (c := pow(g, (p - 1) // m, p)) ** (m // q) % p == 1:
        g += 1
    phi = m - m // q
    a, b = [p] + [0] * (phi - 1), [-c, 1] + [0] * (phi - 2)
    rest = _zeta_others(b, m)
    norm = _zeta_mul(b, rest, m)[0]
    while norm:
        # a - quo*b with quo = a*rest/N(b) rounded coefficientwise, or, where
        # that falls short of N(b) (about one step in a thousand at m = 7),
        # the floor or ceiling of each coefficient
        t = _zeta_mul(a, rest, m)
        corners = ([v // norm + e for v, e in zip(t, corner)] for corner in itertools.product((0, 1), repeat=phi))
        for quo in itertools.chain([[(2 * v + norm) // (2 * norm) for v in t]], corners):
            r = [x - y for x, y in zip(a, _zeta_mul(quo, b, m))]
            r_rest = _zeta_others(r, m)
            if (r_norm := _zeta_mul(r, r_rest, m)[0]) < norm:
                break
        else:
            raise ArithmeticError(f"no Euclidean step below N = {norm} in Z[z], z of order {m}")
        a, b, rest, norm = b, r, r_rest, r_norm
    if m == q:
        s = -sum(i * x for i, x in enumerate(a)) * pow(sum(a), -1, m) % m
        a = _zeta_mul(a, _zeta_reduce([int(i == s) for i in range(m)], m), m)
    return c, tuple(a)


@lru_cache(maxsize=64)
def _stickelberger_tables(m: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(theta, lam) for _power_symbol, from pi of _cyclotomic_prime, as
    read-only signed 31-bit limbs, most significant first, of the phi(m)
    coefficients of elements of Z[z]: theta[j] holds limb j of one element,
    and lam[j, :, rho] limb j of lam_e for the r with rho = r mod m.  With
    u(a) = a^-1 mod m in [1, m) for a prime to m, and e = r - m*((r + h) // m)
    in [-h, m - h), e = rho mod m: theta is prod over a of sigma_a(pi)**u(a),
    and lam_e is prod sigma_a(pi)**floor(u(a)*e/m) (zero for rho not prime
    to m).  At m = 8, h = 0 and the tables are exact, since its ring reads
    signs.  The (m, 1) rings read z**t up to a unit scalar, so there
    h = m // 2 keeps e near 0 and each element drops its least exponent, a
    power of p = N(pi): theta the first, and each lam_e its own."""
    pi = list(_cyclotomic_prime(m, p)[1])
    s, units = _RINGS[m][1], _units(m)
    h = m // 2 if s == 1 else 0
    conjugates = {a: _zeta_conj(pi, a, m) for a in units}

    def product(exponent):
        # prod over a of sigma_a(pi)**exponent(u(a))
        exponents = {a: exponent(pow(a, -1, m)) for a in units}
        low = min(exponents.values()) if s == 1 else 0
        acc = [1] + [0] * (len(pi) - 1)
        for a in units:
            for _ in range(exponents[a] - low):
                acc = _zeta_mul(acc, conjugates[a], m)
        return acc

    def limbs(rows):
        top = max(abs(x).bit_length() for row in rows for x in row)
        out = np.array([[[(abs(x) >> shift & 0x7FFFFFFF) * (-1 if x < 0 else 1) for x in row] for row in rows]
                        for shift in range((top - 1) // 31 * 31, -1, -31)], dtype=np.int64)
        out.flags.writeable = False
        return out

    lam = [product(lambda u: u * ((rho + h) % m - h) // m) if rho in units else [0] * len(pi) for rho in range(m)]
    return limbs([product(lambda u: u)])[:, 0], limbs(list(zip(*lam)))


def _power_symbol(r: np.ndarray, m: int, p: int) -> np.ndarray:
    """s[i] in Z/m with (pi/r[i]) = z**s[i], pi as in _cyclotomic_prime, for
    m in {3, 5, 7, 8, 9}, primes r[i] prime to m*p, below 2**30 (2**29 at
    m = 9).

    (pi/r) is the product over the primes P | r of pi**((r**f - 1)/m) mod P,
    f the order of r mod m.  The f base-r digits of w*(r**f - 1)/m, for
    0 < w < m, are floor(r*v/m), v = w*r**(f-1-i) mod m, and pi**r =
    sigma_r(pi) mod r (Frobenius); with P = sigma_a(P0) for a over the
    cosets of <r> and w = u(a), (pi/r) = z**s mod r is the product over
    every b prime to m of sigma_b(pi)**floor(r*u(b*r)/m), u(v) = v^-1 mod m.
    With M = (r + h) // m, e and rho = r mod m as in _stickelberger_tables,
    that is sigma_rho^-1(theta**M * lam_e), times a power of p where the
    tables drop one: theta**M by _ring_power, about log2(r/m) steps, times
    lam_e by _ring_mul, in place of a power mod p, gives z**(rho*s), and
    s = (rho*s)/rho mod m.  In F_r[x]/(x**m - 1), m odd, u*z**t is u*x**t
    plus a multiple of Phi_m, whose coordinates repeat with period m/q, so
    t is the coordinate unlike the others of its class mod m/q (of which
    there are q >= 3); in F_r[x]/(x**4 + 1) at m = 8, z**t is x**t for t < 4
    and -x**(t-4) above.
    """
    theta, lam = _stickelberger_tables(m, p)
    width, s = _RINGS[m]
    rho = r % m

    def horner(acc, limbs):
        # an element mod r by an int64 Horner pass over its limbs
        for limb in limbs:
            np.left_shift(acc, 31, out=acc)
            acc += limb
            np.remainder(acc, r, out=acc)

    # theta and lam_e mod r in the first phi(m) coordinates of the ring
    x, y = np.zeros((2, width, len(r)), dtype=np.int64)
    horner(x[: theta.shape[1]], theta[:, :, None])
    horner(y[: theta.shape[1]], (limbs.take(rho, axis=1) for limbs in lam))
    acc = _ring_mul(_ring_power(x, (r + (m // 2 if s == 1 else 0)) // m, r, s), y, r, s)
    if s == -1:
        t = np.argmax(acc != 0, axis=0)
        t += width * (acc[t, np.arange(len(r))] != 1)
    else:
        q = _prime_of(m)
        rows = acc.reshape(q, m // q, len(r))  # rows[i, j] is coordinate i*m/q + j
        common = np.where(rows[0] == rows[1], rows[0], rows[2])
        t = np.argmax((rows != common).reshape(m, len(r)), axis=0)
    return t * _INVERSES[m][rho] % m


def _eisenstein_index(r: np.ndarray, m: int, p: int) -> np.ndarray:
    """t[i] in Z/m with r[i]**((p-1)/m) = c**t[i] mod p, c and pi as in
    _cyclotomic_prime, for m in {3, 5, 7, 8, 9}, primes r[i] prime to m*p,
    below 2**30 (2**29 at m = 9), and a prime p = 1 mod m; r[i] is an mth
    power iff t[i] = 0.  By reciprocity t = s + chi(r), s from _power_symbol
    and chi from _correction."""
    s = _power_symbol(r, m, p)
    return s if m not in _CONDUCTOR else (s + _correction(m, p)[r % _CONDUCTOR[m]]) % m


@lru_cache(maxsize=64)
def _correction(m: int, p: int) -> np.ndarray:
    """chi for m in {8, 9}, as a read-only table of its values at r mod
    _CONDUCTOR[m]: chi(g) = t - s at a prime r = g mod the conductor for each
    generator g in _LEARNED[m], t from _paid_index and s from _power_symbol,
    and chi(g**i * h) = i*chi(g) + chi(h).  _certify checks the state before
    any verdict reads it."""
    conductor = _CONDUCTOR[m]
    chi = {1: 0}
    for prime, g in _LEARNED[m]:
        v = _paid_index(prime, m, p) - int(_power_symbol(np.array([prime]), m, p)[0])
        for x, t in list(chi.items()):
            while (x := x * g % conductor) not in chi:
                t += v
                chi[x] = t % m
    table = np.zeros(conductor, dtype=np.int64)
    table[list(chi)] = list(chi.values())
    _certify(m, p, table)
    table.flags.writeable = False
    return table


def _certify(m: int, p: int, chi: np.ndarray) -> None:
    """An IntegrityError unless the octic or nonic state of p holds: N(pi) = p
    by exact integer arithmetic, pi(c) = 0 mod p, and the leaf's indices with
    the correction chi match one pow and a lookup among the powers of c on
    each of _CERTIFICATE_PRIMES."""
    c, pi = _cyclotomic_prime(m, p)
    if _zeta_mul(pi, _zeta_others(pi, m), m) != [p] + [0] * (len(pi) - 1):
        raise IntegrityError(f"order-{m} state of p={p}: pi = {pi} is not of norm p")
    if reduce(lambda acc, x: (acc * c + x) % p, reversed(pi), 0):
        raise IntegrityError(f"order-{m} state of p={p}: pi(c) != 0 mod p for c = {c}")
    r = np.array(_CERTIFICATE_PRIMES)
    got = ((_power_symbol(r, m, p) + chi[r % len(chi)]) % m).tolist()
    want = [_pow_index(q, m, p) for q in _CERTIFICATE_PRIMES]
    if got != want:
        raise IntegrityError(f"order-{m} state of p={p}: indices {got} at {_CERTIFICATE_PRIMES}, pow gives {want}")


@lru_cache(maxsize=64)
def _roots(m: int, p: int) -> tuple[int, ...]:
    """1, c, ..., c**(m-1) for part m's root of unity c: -a/b mod p for the
    Gaussian prime a + b*i of _gaussian_prime at m = 4 (c = i mod a + b*i),
    and c of _cyclotomic_prime otherwise."""
    if m == 4:
        a, b = _gaussian_prime(p)
        c = -a * pow(b, -1, p) % p
    else:
        c = _cyclotomic_prime(m, p)[0]
    return tuple(itertools.accumulate([c] * (m - 1), lambda x, y: x * y % p, initial=1))


def _pow_index(r: int, m: int, p: int) -> int:
    """t in Z/m with r**((p-1)/m) = c**t mod p, c as in _roots, by one pow."""
    return _roots(m, p).index(pow(r, (p - 1) // m, p))


@lru_cache(maxsize=64)
def _paid_index(r: int, m: int, p: int) -> int:
    """_pow_index memoised per p, for the primes no index leaf of part m in
    {4, 8, 3, 9, 5, 7} takes (2 at m = 4 and 8, 3 at 3 and 9, ell at ell)
    and the primes _correction learns chi from."""
    return _pow_index(r, m, p)


def _part_index(r: np.ndarray, m: int, p: int) -> np.ndarray:
    """t[i] in Z/m with r[i]**((p-1)/m) = c**t[i] mod p, for a part m in
    {2, 4, 8, 3, 9, 5, 7} with m | p-1 and primes r[i] < 2**30 other than p,
    c the part's root of unity (-1 for m = 2, as in _roots otherwise): the
    Jacobi symbol takes every r at m = 2, the quartic index every odd r at
    4, and _eisenstein_index every r prime to m at 8, 3, 5 and 7 and every
    such r below 2**29 at 9.  The prime of m pays one pow per p
    (_paid_index), and at m = 9 each r of 2**29 or more pays one pow."""
    if m == 2:
        return np.where(_quadratic_flags(r, p), 0, 1)
    paid = _prime_of(m)
    leaf = (r != paid) & (r < (2**29 if m == 9 else 2**30))
    t = np.empty(len(r), dtype=np.int64)
    if leaf.any():
        t[leaf] = _quartic_index(r[leaf], p) if m == 4 else _eisenstein_index(r[leaf], m, p)
    t[~leaf] = [_paid_index(q, m, p) if q == paid else _pow_index(q, m, p) for q in r[~leaf].tolist()]
    return t


def _prime_indices(r: np.ndarray, d: int, p: int) -> np.ndarray:
    """t[i] in Z/d for d | 2520 with d | p-1 and primes r[i] < 2**30 other than
    p: t[i] = _part_index(r, m, p)[i] mod m for each part m of d (its 2-part
    2, 4 or 8, its 3-part 3 or 9, and 5 and 7), joined by the Chinese
    remainder theorem.  Arrays go _WIDE_CHUNK entries at a time, and half
    as many where 9 | d, whose ring gathers 81 numbers a column: at most
    about 4.4 MB of scratch either way."""
    chunk = _WIDE_CHUNK // 2 if d % 9 == 0 else _WIDE_CHUNK
    if len(r) > chunk:
        return np.concatenate([_prime_indices(r[i : i + chunk], d, p) for i in range(0, len(r), chunk)])
    t = np.zeros(len(r), dtype=np.int64)
    for m in (math.gcd(d, 8), math.gcd(d, 9), 5, 7):
        if m > 1 and d % m == 0:
            t += _part_index(r, m, p) * (d // m * pow(d // m, -1, m))
    return t % d


def _smallest_prime_factors(x: int) -> np.ndarray:
    """spf[n] = the least prime factor of n for 2 <= n <= x, and n itself for
    n < 2, as int32: each prime q up to sqrt(x) claims the multiples from q*q
    on that no smaller prime has claimed, and what is left is prime."""
    spf = np.zeros(x + 1, dtype=np.int32)
    for q in primes_up_to(math.isqrt(x)).tolist():
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
    """t[i] in Z/d for d | 2520 with d | p-1: the sum of e * _prime_indices(r)
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


def _prime_stage(n: np.ndarray, bases: np.ndarray | None, j: np.ndarray | None, k: int, p: int,
                 known: int) -> tuple[np.ndarray, np.ndarray]:
    """(flags, done) for the entries n: done[i] when the stage decides n[i],
    and then flags[i] = n[i]**((p-1)/k) == 1 mod p.  n[i] = bases[i]**j[i]
    for primes bases[i] < 2**30 other than p, or without bases
    1 <= n[i] <= _FACTOR_LIMIT, split into primes by a table of smallest
    prime factors.

    With d = gcd(k, 2520), an entry is a dth power iff its index from
    _entry_indices is 0, which for d = k is the verdict.  Where 8 or 9
    divides d, a first pass tests the part with 4 and 3 in their place, whose
    leaves cost a third to a half of theirs, and only the entries it passes
    take the parts 8 and 9.  A pass on a part that divides known, a part of k
    every entry is known to be a power of (1 for none), is skipped: it could
    decide nothing.  For d < k the factored survivors take n**((p-1)/k) as
    the product of one witness pow(r, (p-1)/k, p) per distinct prime among
    them, when they have fewer such primes than entries; other survivors
    stay undecided."""
    d = math.gcd(k, 2520)
    spf = None if bases is not None else _smallest_prime_factors(int(n.max(initial=1)))
    flags = np.ones(len(n), dtype=bool)
    high = math.prod(m for m in (8, 9) if d % m == 0)
    for part in (d,) if high == 1 else (d // math.gcd(high, 6), high):
        if known % part:
            alive = np.flatnonzero(flags)
            flags[alive] = _entry_indices(n[alive], None if bases is None else bases[alive],
                                          None if j is None else j[alive], spf, part, p) == 0
    done = np.ones(len(n), dtype=bool) if d == k else ~flags
    if d < k and spf is not None:
        alive = np.flatnonzero(flags)
        primes = _distinct_primes(n[alive], spf)
        if len(primes) < len(alive):
            witness = {r: pow(r, (p - 1) // k, p) for r in primes.tolist()}
            acc = [1] * len(alive)
            for live, r in _walk(n[alive], spf):
                for i, q in zip(live.tolist(), r.tolist()):
                    acc[i] = acc[i] * witness[q] % p
            flags[alive] = [a == 1 for a in acc]
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
       prime r takes its index t in Z/m for each part m of d = gcd(k, 2520)
       (the 2-part of k up to 8, its 3-part up to 9, and 5 and 7 as they
       divide k), with r**((p-1)/m) = c**t for the part's root of unity c
       (_roots): the Jacobi symbol gives it for m = 2, quartic reciprocity
       for 4 (odd r), and the index leaf of m for 8 (odd r), 3, 9, 5 and 7
       (r prime to m; at 9, r < 2**29).  Each prime no leaf takes (2 at 4
       and 8, 3 at 3 and 9, ell at ell) pays one pow(r, (p-1)/m, p) per p,
       read as a power of c, and so does each r of 2**29 or more at 9.
       An entry's part index is the sum of e*t over its triples mod m, and
       the entry is a dth power iff every part index is 0.  The parts 8 and
       9 run only on the primes of the entries that pass 4 and 3 in their
       place, since their leaves cost two to three times as much.  When
       d = k, which holds for every k dividing 2520, that is the verdict.
       Otherwise (16 | k, 27 | k, or k has a prime factor of 11 or more)
       the survivors (every entry for d = 1) need the full exponent
       (p-1)/k: the factored ones take the product of one witness
       pow(r, (p-1)/k, p) per distinct prime among them, when they have
       fewer such primes than entries, and the rest go on to stage 2.
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
    return _euler_flags(ns, bases, k, p, 1)


def _euler_flags(ns: np.ndarray, bases: np.ndarray | None, k: int, p: int, known: int) -> np.ndarray:
    """euler_flags on checked entries, every one of them known to be a
    power of known, a divisor of k: the prime stage skips the index passes
    that could decide nothing."""
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
    if k >= 3 and (bases is None or known % math.gcd(k, 2520)):
        take = np.flatnonzero((ns >= 1) & (ns <= _FACTOR_LIMIT) if bases is None else (bases >= 2) & (bases < 2**30))
        work = len(take) * p.bit_length()
        if work >= _INDEX_MIN_WORK and (bases is not None or ns[take].max(initial=0) <= 16 * work):
            j = None if bases is None else _exponents(ns, bases, take)
            flags[take], done = _prime_stage(ns[take], None if bases is None else bases[take], j, k, p, known)
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
    euler_flags' prime stage, which decides the part gcd(degree, 2520) of
    its degree by character indices, so only the primes no index leaf takes
    pay a power there (at 10^48+217 with k = 7, the first stage pays one,
    for the prime 7); f = 2 is a Jacobi symbol.  A stage's entries are kth
    powers, so it runs no index pass on a part of k: none at all where
    gcd(k*f, 2520) = gcd(k, 2520), and at k = 3, f = 3 only the nonic one.
    bases, as in euler_flags, goes to every stage, which takes the
    survivors' bases alone.  A flagged entry has order (p-1)/k, so a caller
    that needs the order of one need not compute it again.
    """
    ns, bases = _entries(ns, bases)
    flags = _euler_flags(ns, bases, k, p, 1)
    e = (p - 1) // k
    for f in _distinct_factors(p_minus_1_factors, p):
        if e % f == 0:
            alive = np.flatnonzero(flags)
            degree = k * f if k % f == 0 else f
            flags[alive] = ~_euler_flags(ns[alive], None if bases is None else bases[alive], degree, p,
                                         math.gcd(k, degree))
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
