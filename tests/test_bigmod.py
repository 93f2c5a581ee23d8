import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apresidues import bigmod
from apresidues.apsearch import Target, weighted_count
from apresidues.bigmod import (
    OddPrimeContext,
    ResidueClass,
    euler_flags,
    euler_totient,
    factorize,
    has_exact_order,
    is_prime,
    jacobi,
    multiplicative_order,
    next_prime,
    prime_mask,
    prime_powers_up_to,
    primes_up_to,
    von_mangoldt,
)
from apresidues.errors import DomainError, ResourceError

from conftest import (
    P24,
    P24_FACTORS,
    P48,
    P48_FACTORS,
    P128,
    P128_FACTORS,
    divisors,
    loop_sieve,
    naive_is_prime,
    naive_von_mangoldt,
)


class TestJacobi:
    def test_published_f41_nonresidue(self):
        assert jacobi(3, 41) == -1

    def test_perfect_squares_are_residues(self):
        for k in range(1, 20):
            assert jacobi(k * k, 41) == 1 or k % 41 == 0

    def test_brute_force_squares_mod_41(self):
        squares = {x * x % 41 for x in range(1, 41)}
        for n in range(1, 41):
            assert jacobi(n, 41) == (1 if n in squares else -1)

    def test_completely_multiplicative_in_numerator(self):
        rng = random.Random(20250809)
        primes = [int(p) for p in primes_up_to(10**6) if p > 100]
        for _ in range(10**4):
            p = rng.choice(primes)
            m = rng.randrange(1, p)
            n = rng.randrange(1, p)
            assert jacobi(m * n, p) == jacobi(m, p) * jacobi(n, p)

    def test_shares_zero_on_common_factor(self):
        assert jacobi(15, 45) == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            jacobi(3, 40)
        with pytest.raises(DomainError):
            jacobi(3, -7)
        with pytest.raises(DomainError):
            jacobi(3, 1)


class TestIsPrime:
    def test_example_primes(self):
        assert is_prime(P24)
        assert is_prime(P128)
        assert is_prime(P48)

    def test_small_cases(self):
        assert not is_prime(1)
        assert not is_prime(0)
        assert is_prime(2)
        assert not is_prime(P24 + 2)  # 3 | 10^24+9

    def test_matches_sieve_up_to_1e6(self):
        mask = prime_mask(10**6)
        mismatches = [n for n in range(10**6 + 1) if is_prime(n) != bool(mask[n])]
        assert mismatches == []

    def test_large_composites(self):
        # squares of large primes exercise the Lucas path's square guard
        q = next_prime(10**8)
        assert not is_prime(q * q)
        assert not is_prime(P128 * P48)


class TestVonMangoldt:
    def test_prime_power_values(self):
        assert von_mangoldt(8) == pytest.approx(math.log(2))
        assert von_mangoldt(6) == 0.0
        assert von_mangoldt(1) == 0.0
        assert von_mangoldt(9409) == pytest.approx(math.log(97))  # 97^2

    def test_chebyshev_psi_1000(self):
        # psi(1000) oracle: sum over primes q <= 1000 of floor(log 1000/log q)*log q
        psi = 0.0
        for q in primes_up_to(1000):
            q = int(q)
            psi += math.floor(math.log(1000) / math.log(q)) * math.log(q)
        total = sum(von_mangoldt(n) for n in range(1, 1001))
        assert total == pytest.approx(psi, abs=1e-9)

    def test_positive_iff_prime_power_up_to_1e6(self):
        mask = prime_mask(10**6)
        is_pp = np.zeros(10**6 + 1, dtype=bool)
        for q in np.flatnonzero(mask):
            q = int(q)
            v = q
            while v <= 10**6:
                is_pp[v] = True
                v *= q
        for n in range(1, 10**6 + 1):
            assert (von_mangoldt(n) > 0) == bool(is_pp[n])

    def test_domain_error(self):
        with pytest.raises(DomainError):
            von_mangoldt(0)


class TestTotientAndFactorization:
    def test_examples(self):
        assert euler_totient(4) == 2
        assert euler_totient(1) == 1
        assert euler_totient(8) == 4

    @pytest.mark.parametrize("q", [2, 3, 12, 30, 97, 360, 1024])
    def test_matches_gcd_count(self, q):
        assert euler_totient(q) == sum(1 for i in range(1, q + 1) if math.gcd(i, q) == 1)

    def test_factorize_roundtrip(self):
        for n in (2, 12, 97, 2**10 * 3**4, 999983, 10**9 + 7):
            fac = factorize(n)
            prod = 1
            for q, e in fac.items():
                assert is_prime(q)
                prod *= q**e
            assert prod == n

    def test_divisors(self):
        assert divisors(12) == [1, 2, 3, 4, 6, 12]
        assert divisors(40) == [1, 2, 4, 5, 8, 10, 20, 40]


class TestPrimesUpTo:
    @pytest.mark.parametrize("limits", [range(2001), (999_983, 1_000_000)], ids=["0..2000", "near 1e6"])
    def test_odd_only_sieve_matches_the_loop(self, limits):
        for x in limits:
            got, want = prime_mask(x), loop_sieve(x)
            assert got.dtype == want.dtype and np.array_equal(got, want), x

    def test_first_primes(self):
        assert primes_up_to(10).tolist() == [2, 3, 5, 7]

    def test_prime_count_at_3568(self):
        assert len(primes_up_to(3568)) == 499

    def test_boundary_property(self):
        ps = primes_up_to(100)
        assert ps[-1] <= 100
        assert next_prime(100) > 100
        assert next_prime(int(ps[-1]) - 1) == ps[-1]

    def test_segmented_matches_simple(self):
        # limit straddling a segment boundary exercises the segmented path
        limit = (1 << 21) + 1500
        got = primes_up_to(limit)
        mask = np.ones(limit + 1, dtype=bool)
        mask[:2] = False
        for q in range(2, math.isqrt(limit) + 1):
            if mask[q]:
                mask[q * q :: q] = False
        assert np.array_equal(got, np.flatnonzero(mask))

    def test_resource_budget(self):
        with pytest.raises(ResourceError):
            primes_up_to(10**9 + 1)

    @pytest.mark.parametrize("lo,hi", [(2, 10**4), (3, 2), (50, 97), (97, 97), (101, 5000), (4000, 10**4),
                                       (2, 2300), (3, 2303), (2, 2304), (1, 2305), (5, 2310),
                                       (0, 5), (2, 2), (98, 1000), (1000, 3001), (2000, 2306)])
    def test_prime_segments_list_the_range_in_order(self, monkeypatch, lo, hi):
        # 1000-number segments: the range runs over many of them, from an
        # odd or an even lo; the sieving primes of hi >= 48**2 = 2304 come
        # from the walk itself, those below from the small-prime table
        monkeypatch.setattr(bigmod, "_SEGMENT", 1000)
        segments = list(bigmod._prime_segments(lo, hi))
        assert all(len(seg) <= 1000 and seg.dtype == np.int64 for seg in segments)
        want = np.flatnonzero(loop_sieve(hi))
        assert np.array_equal(np.concatenate(segments), want[want >= lo])

    @pytest.mark.parametrize("segment", [2, 64, 1000, 4096])
    def test_every_segment_size_lists_the_same_primes(self, monkeypatch, segment):
        # segments of a few odd numbers, as many as 5000 of them per call,
        # and limits that end on a segment edge, one past it and between
        monkeypatch.setattr(bigmod, "_SEGMENT", segment)
        for x in [0, 1, 2, 3, 47, 2303, 2304, 2305, 9999, 10**4, 3 * segment, 3 * segment + 1, 3 * segment + 2]:
            want = loop_sieve(x)
            got = prime_mask(x)
            assert got.dtype == want.dtype and np.array_equal(got, want), x
            got = primes_up_to(x)
            assert got.dtype == np.int64 and np.array_equal(got, np.flatnonzero(want)), x


class TestMultiplicativeOrder:
    def test_primitive_root_of_41(self):
        # brute-force oracle: first repeat of 1 among the powers of 6
        u, t = 6, 1
        while u != 1:
            u = u * 6 % 41
            t += 1
        assert t == 40
        assert multiplicative_order(6, 41, {2: 3, 5: 1}) == 40

    def test_trivial_orders(self):
        assert multiplicative_order(1, 97, {2: 5, 3: 1}) == 1
        assert multiplicative_order(40, 41, [2, 5]) == 2

    def test_order_divides_group_order(self):
        rng = random.Random(7)
        for p in (101, 1009, 65537):
            fac = factorize(p - 1)
            for _ in range(25):
                u = rng.randrange(2, p)
                t = multiplicative_order(u, p, fac)
                assert (p - 1) % t == 0
                assert pow(u, t, p) == 1

    def test_incomplete_factorization_rejected(self):
        with pytest.raises(DomainError):
            multiplicative_order(6, 41, {2: 3})
        with pytest.raises(DomainError):
            multiplicative_order(41, 41, {2: 3, 5: 1})

    def test_pair_list_form(self):
        assert multiplicative_order(6, 41, [(2, 3), (5, 1)]) == 40

    @pytest.mark.parametrize("factors", [[2, 15], {2: 1, 15: 1}, [(2, 1), (15, 1)], [1, 2, 3, 5]])
    def test_factor_that_is_not_prime_rejected(self, factors):
        # 2 and 15 divide out 30, but read as a prime 15 gives 2 the order 15, not 5;
        # 1 divides out nothing and would never leave the completeness loop
        with pytest.raises(DomainError, match="not prime"):
            multiplicative_order(2, 31, factors)
        with pytest.raises(DomainError, match="not prime"):
            has_exact_order(np.arange(1, 31), 31, 2, factors)

    def test_complete_prime_factors_at_31(self):
        assert multiplicative_order(2, 31, [2, 3, 5]) == 5
        assert multiplicative_order(3, 31, {2: 1, 3: 1, 5: 1}) == 30
        assert has_exact_order(np.array([2, 5, 7, 9]), 31, 2, [2, 3, 5]).tolist() == [False, False, True, True]


class TestEulerFlags:
    # (p-1)**2 < 2**63 exactly for p <= 3_037_000_500: the int64 path ends at
    # the first prime below that edge and the per-element path starts above it
    EDGE_BELOW, EDGE_ABOVE = 3_037_000_493, 3_037_000_507

    def test_matches_pow_and_jacobi_at_random_small_primes(self):
        rng = random.Random(11)
        primes = [int(p) for p in primes_up_to(2000) if p > 2]
        for p in rng.sample(primes, 12) + [3, 5, 41]:
            ns = np.arange(0, 2 * p)
            quadratic = euler_flags(ns, 2, p)
            assert quadratic.tolist() == [jacobi(int(n), p) == 1 for n in ns]
            for k in divisors(p - 1):
                want = [pow(int(n), (p - 1) // k, p) == 1 for n in ns]
                assert euler_flags(ns, k, p).tolist() == want

    def test_int64_edge(self):
        assert is_prime(self.EDGE_BELOW) and is_prime(self.EDGE_ABOVE)
        assert (self.EDGE_BELOW - 1) ** 2 < 2**63 <= (self.EDGE_ABOVE - 1) ** 2
        rng = random.Random(5)
        for p in (self.EDGE_BELOW, self.EDGE_ABOVE):
            ns = np.array([1, 2, 3, p - 1, p - 2, p, p + 1] + [rng.randrange(1, p) for _ in range(200)])
            for k in [d for d in divisors(p - 1) if d <= 30]:
                want = [pow(int(n), (p - 1) // k, p) == 1 for n in ns]
                assert euler_flags(ns, k, p).tolist() == want, (p, k)

    def test_big_prime_per_element_path(self):
        ns = np.arange(1, 300)
        assert euler_flags(ns, 2, P24).tolist() == [jacobi(int(n), P24) == 1 for n in ns]
        e = (P48 - 1) // 7
        assert euler_flags(ns, 7, P48).tolist() == [pow(int(n), e, P48) == 1 for n in ns]

    def test_k_must_divide_p_minus_1(self):
        with pytest.raises(DomainError):
            euler_flags(np.arange(5), 3, 41)


def scalar_flags(ns, k, p):
    """The reference the wide path replaces: one pow per element."""
    e = (p - 1) // k
    return [pow(int(n), e, p) == 1 for n in ns]


def wide_calls(monkeypatch):
    """Record the length of every chunk the wide path evaluates."""
    sizes = []
    quadratic, power = bigmod._quadratic_flags, bigmod._Montgomery.power_is_one

    def quadratic_spy(n, p):
        sizes.append(len(n))
        return quadratic(n, p)

    def power_spy(self, r, e):
        sizes.append(len(r))
        return power(self, r, e)

    monkeypatch.setattr(bigmod, "_quadratic_flags", quadratic_spy)
    monkeypatch.setattr(bigmod._Montgomery, "power_is_one", power_spy)
    return sizes


class TestWideEulerFlags:
    # the int64 edge and the three published moduli (80, 129 and 160 bits),
    # with every k <= 12 dividing p-1
    MODULI = {TestEulerFlags.EDGE_ABOVE: (2, 3, 6), P24: (2, 7), P128: (2, 3, 9), P48: (2, 4, 7, 8)}

    @staticmethod
    def entries(p, count, seed):
        """count int64 entries: the edge cases of the wide path (0, 2**31
        and above, negatives, multiples of p), then random ones in
        [-10**6, 10**8)."""
        rng = random.Random(seed)
        special = [0, 1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**62, 2**63 - 1, -1, -2, -(2**31), -(2**63)]
        if p < 2**62:
            special += [p, 2 * p, p + 1, p - 1, -p, 2**62 // p * p, 2**62 // p * p + 5]
        body = [rng.randrange(-(10**6), 10**8) for _ in range(count - len(special))]
        return np.array(special + body, dtype=np.int64)

    @pytest.mark.parametrize("p", list(MODULI))
    def test_matches_scalar_pow_and_jacobi(self, p, monkeypatch):
        ns = self.entries(p, 1100, p % 997)
        sizes = wide_calls(monkeypatch)
        for k in self.MODULI[p]:
            got = euler_flags(ns, k, p).tolist()
            assert got == scalar_flags(ns, k, p), (p, k)
            if k == 2:
                assert got == [jacobi(int(n), p) == 1 for n in ns]
        assert sizes, "the wide path never ran"

    @pytest.mark.parametrize("k", [2, 7])
    def test_chunk_edges(self, monkeypatch, k):
        monkeypatch.setattr(bigmod, "_WIDE_MIN", 1)
        monkeypatch.setattr(bigmod, "_WIDE_CHUNK", 64)
        sizes = wide_calls(monkeypatch)
        # kth powers, every one flagged, so an entry a chunk misses shows
        powers = np.arange(1, 66, dtype=np.int64) ** k
        mixed = self.entries(P24, 65, 3)
        for n in (63, 64, 65):
            assert euler_flags(powers[:n], k, P24).all(), n
            assert euler_flags(mixed[:n], k, P24).tolist() == scalar_flags(mixed[:n], k, P24), n
        assert max(sizes) == 64

    def test_what_takes_the_wide_path(self, monkeypatch):
        calls = leaf_calls(monkeypatch)

        def sizes(*leaves):
            return [len(entries) for leaf, entries in calls if leaf in leaves]

        ns = np.arange(1, 1001)
        primes = primes_up_to(7919)  # the first 1000 primes
        euler_flags(ns, 2, P24)
        # for k >= 3 the prime stage takes 1..1000, and primes without a base
        # (k = 8: the quartic index decides the 4th powers, and the survivors,
        # with as many primes as entries, take one pow each), but not entries
        # above its table limit
        euler_flags(ns, 7, P48)
        euler_flags(primes, 8, P48)
        survivors = [n for n, flag in zip(primes.tolist(), scalar_flags(primes, 4, P48)) if flag]
        assert calls[-1] == ("scalar", survivors)
        euler_flags(ns + bigmod._FACTOR_LIMIT, 7, P48)
        assert sizes("quadratic", "montgomery") == [1000, 1000]
        assert sizes("prime") == [1000, 1000]
        # 2**31 and above stay scalar for k = 2, 0 everywhere; for k = 29
        # (d = 1) the stage passes on primes, whose witnesses save no pow
        mixed = np.concatenate([ns, [0, 2**31, 2**40]])
        assert euler_flags(mixed, 2, P24).tolist() == scalar_flags(mixed, 2, P24)
        mixed = np.concatenate([primes, [0, 2**31, 2**40]])
        assert euler_flags(mixed, 29, P24).tolist() == scalar_flags(mixed, 29, P24)
        assert sizes("quadratic", "montgomery")[2:] == [1000, 1002]
        assert sizes("prime")[2:] == [1000]
        # short arrays, and moduli of more than 6 limbs for k >= 3, stay
        # scalar; for k = 9 the cubic index leaves its survivors one pow each
        p170 = next(q for q in range(2**170 + 1, 2**170 + 10**5, 2) if q % 9 == 1 and is_prime(q))
        euler_flags(ns[: bigmod._WIDE_MIN - 1], 2, P24)
        euler_flags(primes, 9, p170)
        assert len(sizes("quadratic", "montgomery")) == 4 and len(sizes("prime")) == 4
        cubes = [n for n, flag in zip(primes.tolist(), scalar_flags(primes, 3, p170)) if flag]
        assert calls[-2:] == [("prime", primes.tolist()), ("scalar", cubes)]
        euler_flags(ns, 2, p170)
        assert sizes("quadratic", "montgomery")[4:] == [1000]
        # for k = 3 the same primes take their cubic indices, at any size of p
        euler_flags(primes, 3, p170)
        assert sizes("prime")[4:] == [1000] and len(sizes("quadratic", "montgomery")) == 5
        assert calls[-2:] == [("prime", primes.tolist()), ("scalar", [])]

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3_037_000_501, 2**180), st.sampled_from([2, 3, 4, 5, 6, 7, 8, 12]),
           st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40))
    def test_hypothesis_pairs(self, start, k, ns):
        p = next_prime(start)
        while (p - 1) % k:
            p = next_prime(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bigmod, "_WIDE_MIN", 1)
            mp.setattr(bigmod, "_WIDE_CHUNK", 16)
            assert euler_flags(ns, k, p).tolist() == scalar_flags(ns, k, p)

    @pytest.mark.parametrize("k", [2, 7])
    def test_memory_is_bounded_by_the_chunk(self, k):
        ns = np.arange(1, 2**16 + 1)
        tracemalloc.start()
        try:
            euler_flags(ns, k, P24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


def scalar_flags_by_k(ns, ks, p):
    """scalar_flags for several k at once: one pow per element, t = n**((p-1)/m)
    with m = lcm(ks), then n**((p-1)/k) = t**(m/k) for each k."""
    m = math.lcm(*ks)
    ts = [pow(int(n), (p - 1) // m, p) for n in ns]
    return {k: [pow(t, m // k, p) == 1 for t in ts] for k in ks}


def seeded_prime(digits, residue, seed, modulus=24):
    """A random prime of the given number of digits with p = residue mod
    modulus."""
    rng = random.Random(seed)
    while True:
        p = rng.randrange(10 ** (digits - 1), 10**digits) // modulus * modulus + residue
        if is_prime(p):
            return p


# p = 1 mod 12 at 24 and 48 digits, in both classes mod 8 (p = 1 and 13 mod 24)
SEEDED = [seeded_prime(digits, residue, 1400 + digits + residue) for digits in (24, 48) for residue in (1, 13)]


def smooth_prime(size, cofactor, seed):
    """A random prime p with p - 1 = cofactor * m, m a product of size primes
    in [5, 10**4]: (p, factorisation of p - 1)."""
    rng = random.Random(seed)
    small = primes_up_to(10**4)[2:].tolist()
    while True:
        m = [rng.choice(small) for _ in range(size)]
        p = cofactor * math.prod(m) + 1
        if is_prime(p):
            factors = dict(factorize(cofactor))
            for q in m:
                factors[q] = factors.get(q, 0) + 1
            return p, factors


def stage_calls(monkeypatch):
    """Record the entries of every call of the prime stage with bases."""
    calls = []
    original = bigmod._prime_stage

    def spy(n, bases, j, k, p):
        if bases is not None:
            calls.append(n.tolist())
        return original(n, bases, j, k, p)

    monkeypatch.setattr(bigmod, "_prime_stage", spy)
    return calls


def leaf_calls(monkeypatch):
    """Record (leaf, entries) for every call of a verdict leaf from
    euler_flags: the prime stage (all the entries it takes, with or without
    bases), the binary Jacobi loop, the Montgomery power and the scalar
    jacobi/pow.  The Jacobi loop inside the prime stage is part of that
    stage, so it is not recorded.  The wide leaves see residues mod p, which
    are the entries themselves for 0 < n < p."""
    calls, inside = [], []
    stage, quadratic = bigmod._prime_stage, bigmod._quadratic_flags
    power, scalar = bigmod._Montgomery.power_is_one, bigmod._scalar_flags

    def stage_spy(n, bases, j, k, p):
        calls.append(("prime", n.tolist()))
        inside.append(True)
        try:
            return stage(n, bases, j, k, p)
        finally:
            inside.pop()

    def quadratic_spy(n, p):
        if not inside:
            calls.append(("quadratic", n.tolist()))
        return quadratic(n, p)

    def power_spy(self, r, e):
        calls.append(("montgomery", r.tolist()))
        return power(self, r, e)

    def scalar_spy(ns, k, e, p):
        calls.append(("scalar", ns.tolist()))
        return scalar(ns, k, e, p)

    monkeypatch.setattr(bigmod, "_prime_stage", stage_spy)
    monkeypatch.setattr(bigmod, "_quadratic_flags", quadratic_spy)
    monkeypatch.setattr(bigmod._Montgomery, "power_is_one", power_spy)
    monkeypatch.setattr(bigmod, "_scalar_flags", scalar_spy)
    return calls


class TestReciprocityFlags:
    # the published moduli with every k <= 12 dividing p-1 that shares a factor
    # with 12, and the seeded primes with every such k <= 24
    MODULI = {P128: (3, 6, 9), P48: (4, 8),
              **{p: tuple(k for k in (3, 4, 6, 8, 9, 12, 24) if (p - 1) % k == 0) for p in SEEDED}}

    @pytest.fixture(scope="class")
    def entries(self):
        """Every prime below 10**5 with its powers below 10**5, and r**j below
        2**63 for j <= 12 and every 37th such prime r: (powers, bases)."""
        powers, bases = prime_powers_up_to(10**5)
        more = [(r**j, r) for r in primes_up_to(10**5)[::37].tolist() for j in range(2, 13) if r**j < 2**63]
        extra_powers, extra_bases = np.array(more, dtype=np.int64).T
        return np.concatenate([powers, extra_powers]), np.concatenate([bases, extra_bases])

    def test_seeded_primes(self):
        assert [len(str(p)) for p in SEEDED] == [24, 24, 48, 48]
        assert [p % 24 for p in SEEDED] == [1, 13, 1, 13]

    @pytest.mark.parametrize("p", list(MODULI), ids=["2^128+51", "10^48+217", "24d-1mod8", "24d-5mod8",
                                                    "48d-1mod8", "48d-5mod8"])
    def test_matches_scalar_pow(self, p, entries, monkeypatch):
        ns, bases = entries
        chunks = stage_calls(monkeypatch)
        want = scalar_flags_by_k(ns, self.MODULI[p], p)
        assert want[self.MODULI[p][0]][:300] == scalar_flags(ns[:300], self.MODULI[p][0], p)
        for k in self.MODULI[p]:
            assert euler_flags(ns, k, p, bases=bases).tolist() == want[k], k
        assert len(chunks) >= len(self.MODULI[p]), "the prime stage never ran"

    @pytest.mark.parametrize("p,k", [(P128, 3), (P128, 9), (P48, 4), (P48, 8), (SEEDED[1], 12), (SEEDED[2], 24)])
    def test_chunk_edges(self, p, k, entries, monkeypatch):
        """The leaves take the stage's distinct primes _WIDE_CHUNK at a time."""
        monkeypatch.setattr(bigmod, "_WIDE_CHUNK", 64)
        chunks, part_index = [], bigmod._part_index

        def spy(r, m, p):
            chunks.append(r.tolist())
            return part_index(r, m, p)

        monkeypatch.setattr(bigmod, "_part_index", spy)
        ns, bases = entries
        # a spread of primes and powers whose last three are kth power
        # residues, so an entry a chunk misses shows
        spread = np.linspace(0, len(ns) - 1, 200).astype(np.int64)
        last = spread[scalar_flags(ns[spread], k, p)][-3:]
        pick = np.concatenate([spread[~np.isin(spread, last)][:62], last])
        want = scalar_flags(ns[pick], k, p)
        for n in (63, 64, 65):
            assert want[n - 1]
            assert euler_flags(ns[pick[:n]], k, p, bases=bases[pick[:n]]).tolist() == want[:n], n
        assert max(map(len, chunks)) == 64

    def test_primary_primes(self):
        # the sign of pi changes no verdict, so only this test sees it
        more = [seeded_prime(digits, 13, digits) for digits in range(12, 52, 2)]
        for p in [P128, P48] + SEEDED + more:
            if p % 4 == 1:
                a, b = bigmod._gaussian_prime(p)
                assert a * a + b * b == p and b % 2 == 0 and (a + b) % 4 == 1, p

    def test_what_takes_the_path(self, monkeypatch):
        calls = leaf_calls(monkeypatch)
        big = next_prime(2**31)
        r = primes_up_to(200)[2:]  # 5 .. 199
        other = [2, 4, 8, 3, 9, 27, big]
        ns = np.concatenate([other, r, r**2])
        bases = np.concatenate([[2, 2, 2, 3, 3, 3, big], r, r])
        for p, k in ((P128, 3), (P48, 4), (SEEDED[0], 12)):
            calls.clear()
            got = euler_flags(ns, k, p, bases=bases)
            assert got.tolist() == scalar_flags(ns, k, p)
            # the bases 2 and 3 take the stage too; those of 2**30 or more keep
            # the other paths
            below = ns[ns != big].tolist()
            assert calls == [("prime", below), ("scalar", [big])]
            # without bases the entries below 2**20 are split into their 46
            # primes, and the prime 2**31 + 11 takes one pow
            calls.clear()
            assert euler_flags(ns, k, p).tolist() == got.tolist()
            assert calls == [("prime", below), ("scalar", [big])]
        # for k > gcd(k, 420) only the survivors go on, with the full exponent
        calls.clear()
        got = euler_flags(ns, 9, P128, bases=bases)
        assert got.tolist() == scalar_flags(ns, 9, P128)
        cubes = [n for n, cube in zip(ns.tolist(), scalar_flags(ns, 3, P128)) if cube or n == big]
        assert calls == [("prime", below), ("scalar", cubes)]
        # k = 2 is the Jacobi path with or without bases
        calls.clear()
        euler_flags(ns, 2, P128, bases=bases)
        assert calls == [("scalar", ns.tolist())]
        # short arrays: (entries taken) * (bits of p) below the work threshold
        calls.clear()
        euler_flags(r[:7], 3, P128, bases=r[:7])
        assert calls == [("scalar", r[:7].tolist())]

    @pytest.mark.parametrize("p,k,x", [(P128, 9, 5000), (P128, 9, 40000), (P48, 8, 5000), (P48, 8, 40000),
                                       (P128, 3, 5000), (P48, 2, 40000), (P24, 7, 5000), (P24, 29, 5000),
                                       (P48, 14, 5000), (P48, 56, 40000)],
                             ids=["2^128+51-9-short", "2^128+51-9", "10^48+217-8-short", "10^48+217-8",
                                  "2^128+51-3", "10^48+217-2", "10^24+7-7", "10^24+7-29", "10^48+217-14",
                                  "10^48+217-56"])
    def test_each_entry_reaches_one_leaf(self, p, k, x, monkeypatch):
        """Every entry reaches one leaf, or two (the prime stage, then the
        wide path or one pow) when it survives the dth-power test and d < k,
        d = gcd(k, 420); the wide path takes what is left once that is at
        least _WIDE_MIN entries, whatever the length of the whole array.
        Every array is past the stage's work threshold, which takes every
        base below 2**30 (2, 3, 5 and 7 included) for k >= 3 and d > 1; the
        bases from 2**30 on keep the other paths."""
        calls = leaf_calls(monkeypatch)
        big = next_prime(2**31)
        ns, bases = prime_powers_up_to(x)
        ns, bases = np.append(ns, big), np.append(bases, big)
        d = math.gcd(k, 420)
        want = scalar_flags_by_k(ns, (d, k), p)
        assert euler_flags(ns, k, p, bases=bases).tolist() == want[k]
        taken = (bases >= 2) & (bases < 2**30) & (k >= 3 and d > 1)
        left = ~taken | (taken & np.array(want[d]) & (d < k))
        wide = (left.sum() >= bigmod._WIDE_MIN) & ((ns < 2**31) | (k > 2))
        last = np.where(wide, "quadratic" if k == 2 else "montgomery", "scalar")
        reached = {}
        for leaf, entries in calls:
            for n in entries:
                reached.setdefault(n, []).append(leaf)
        assert reached == {n: ["prime"] * t + [leaf] * g
                           for n, t, g, leaf in zip(ns.tolist(), taken.tolist(), left.tolist(), last.tolist())}

    def test_short_arrays_keep_scalar_pow(self, monkeypatch):
        chunks = stage_calls(monkeypatch)
        r = np.array([5, 7, 11, 13, 17, 19, 23, 29, 31], dtype=np.int64)
        # 7 entries times 129 bits (903) is below the work threshold; 8 (1032)
        # reach it
        euler_flags(r[:7], 3, P128, bases=r[:7])
        assert chunks == []
        euler_flags(r[:8], 3, P128, bases=r[:8])
        assert chunks == [r[:8].tolist()]

    # p = 1 mod 12 with p - 1 factored, in both classes mod 8
    SMOOTH = [smooth_prime(8, 24, 1401), smooth_prime(8, 12, 1402)]

    def test_smooth_primes(self):
        for p, factors in self.SMOOTH:
            assert p % 12 == 1 and p > 2**64
            assert math.prod(q**e for q, e in factors.items()) == p - 1
        assert [p % 8 for p, _ in self.SMOOTH] == [1, 5]

    @pytest.mark.parametrize("case", ["P128-3", "P128-6", "P48-2", "P48-4", "smooth1-2", "smooth1-6",
                                      "smooth5-2", "smooth5-6"])
    def test_has_exact_order_with_bases(self, case, monkeypatch):
        chunks = stage_calls(monkeypatch)
        name, k = case.rsplit("-", 1)
        p, factors = {"P128": (P128, P128_FACTORS), "P48": (P48, P48_FACTORS),
                      "smooth1": self.SMOOTH[0], "smooth5": self.SMOOTH[1]}[name]
        ns, bases = prime_powers_up_to(3000)
        got = has_exact_order(ns, p, int(k), factors, bases=bases)
        assert got.tolist() == has_exact_order(ns, p, int(k), factors).tolist()
        assert chunks, "the prime stage never ran"
        # with k = 2 the stage k*f = 4 needs a Jacobi test on r for r**j with
        # j = 2 mod 4: r**2 has order (p-1)/2 exactly when r is a primitive root
        squares = (ns == bases**2) & (bases >= 5)
        assert int(k) != 2 or got[squares].any()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3_037_000_501, 2**200), st.sampled_from([3, 4, 6, 8, 9, 12]),
           st.lists(st.tuples(st.integers(4, 2**31 - 2**20), st.integers(1, 12)), min_size=1, max_size=20))
    # a base in [2**30, 2**31) at k = 3, which overflows the index ladder
    @example(start=264_046_743_061, k=3, pairs=[(2_104_655_057, 1)])
    def test_hypothesis_pairs(self, start, k, pairs):
        p = next_prime(start)
        while (p - 1) % k:
            p = next_prime(p)
        bases = [next_prime(x) for x, _ in pairs]
        ns = [r**j if r**j < 2**63 else r for r, (_, j) in zip(bases, pairs)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bigmod, "_INDEX_MIN_WORK", 0)
            assert euler_flags(ns, k, p, bases=bases).tolist() == scalar_flags(ns, k, p)


class TestSharedPrimes:
    """The prime stage without bases: entries split into primes by a table
    of smallest prime factors, each distinct prime takes its index, and the
    survivors of a partial degree pay one witness pow per distinct prime."""

    # the published moduli with the k of the exact-order tables and their
    # k*f stages
    MODULI = {P128: (3, 6, 9), P48: (4, 7, 8, 14), P24: (7, 14)}

    @pytest.mark.parametrize("p", list(MODULI), ids=["2^128+51", "10^48+217", "10^24+7"])
    def test_matches_scalar_pow_up_to_10_4(self, p, monkeypatch):
        calls = leaf_calls(monkeypatch)
        ns = np.arange(1, 10**4 + 1)
        want = scalar_flags_by_k(ns, self.MODULI[p], p)
        for k in self.MODULI[p]:
            assert euler_flags(ns, k, p).tolist() == want[k], k
        assert [call for call in calls if call[1]] == [("prime", ns.tolist())] * len(self.MODULI[p])

    @pytest.mark.parametrize("wide", [False, True])
    def test_other_entries_fall_through(self, wide, monkeypatch):
        calls = leaf_calls(monkeypatch)
        limit = bigmod._FACTOR_LIMIT
        others = [0, -1, -6, -(2**40), limit + 1, limit + 6, 2**40]
        body = np.arange(1, 2001 if wide else 301)
        ns = np.concatenate([others[:4], body, others[4:]])
        for p, k in ((P128, 9), (P48, 7), (P24, 14), (P24, 58), (P128, 3), (SEEDED[2], 6)):
            calls.clear()
            assert euler_flags(ns, k, p).tolist() == scalar_flags(ns, k, p), (p, k)
            assert calls == [("prime", body.tolist()), ("scalar", others)]
            if wide:
                # once the rest are _WIDE_MIN entries, those above 0 take the
                # Montgomery power, and the body keeps the stage at every k
                # (at 10^24+7 with k = 58 it joined that pass while a
                # Montgomery-weighted budget chose the route)
                calls.clear()
                with pytest.MonkeyPatch.context() as mp:
                    mp.setattr(bigmod, "_WIDE_MIN", len(others))
                    assert euler_flags(ns, k, p).tolist() == scalar_flags(ns, k, p), (p, k)
                assert calls == [("prime", body.tolist()), ("montgomery", others[4:]), ("scalar", others[:4])]

    def test_declines_when_it_saves_no_power(self, monkeypatch):
        calls = leaf_calls(monkeypatch)
        tables, build = [], bigmod._smallest_prime_factors
        monkeypatch.setattr(bigmod, "_smallest_prime_factors", lambda x: tables.append(x) or build(x))
        # below (entries) * (bits of p) = 1024 one pow each is faster: up to
        # 7 entries at 129 bits keep it, whether or not they share a prime
        for ns in ([5, 7, 11, 13], [4, 9, 25, 49], [2**20], [4, 8], [4, 8, 2**20]):
            for k in (9, 3):
                calls.clear()
                euler_flags(ns, k, P128)
                assert calls == [("scalar", ns)], (ns, k)
        # past it the table is built only while max(n) <= 16 * (entries) *
        # (bits of p): 16 * 8 * 129 = 16512
        ns = [2, 4, 8, 16, 32, 64, 128]
        calls.clear()
        euler_flags(ns + [16512], 9, P128)
        assert calls[0] == ("prime", ns + [16512]) and tables == [16512]
        calls.clear()
        euler_flags(ns + [16513], 9, P128)
        assert calls == [("scalar", ns + [16513])] and tables == [16512]
        # survivors with as many primes as entries (primes at k = 17, whose
        # degree has no part) take no witnesses and go on; powers of one
        # prime share its witness
        primes = primes_up_to(100)
        calls.clear()
        euler_flags(primes, 17, P128)
        assert calls == [("prime", primes.tolist()), ("scalar", primes.tolist())]
        calls.clear()
        euler_flags(ns + [256, 512, 1024], 17, P128)
        assert calls == [("prime", ns + [256, 512, 1024]), ("scalar", [])]
        # k = 2 keeps the Jacobi symbol, and entries with bases build no table
        calls.clear()
        tables.clear()
        euler_flags(np.arange(1, 101), 2, P128)
        euler_flags(np.arange(5, 101, 2) ** 2, 3, P128, bases=np.arange(5, 101, 2))
        assert tables == [] and [leaf for leaf, _ in calls] == ["scalar", "prime", "scalar"]

    CUBIC = [P128] + SEEDED
    CUBIC_IDS = ["2^128+51", "24d-1mod8", "24d-5mod8", "48d-1mod8", "48d-5mod8"]

    @pytest.mark.parametrize("p", CUBIC, ids=CUBIC_IDS)
    def test_cubic_route_pays_only_for_3(self, p, monkeypatch):
        """k = 3 and 6 on every n <= 3000, among them every 2**i * 3**j * r,
        match one pow per entry, and the stage's only power with exponent
        (p-1)/3 is that of the prime 3, paid once per p."""
        calls = leaf_calls(monkeypatch)
        ns = np.arange(1, 3001)
        want = scalar_flags_by_k(ns, (3, 6), p)
        bigmod._cyclotomic_prime(3, p)  # memoised per p, with pi, before counting
        bigmod._paid_index.cache_clear()
        counted = []

        def counting_pow(*args):
            if args[1:] == ((p - 1) // 3, p):
                counted.append(args[0])
            return pow(*args)

        monkeypatch.setattr(bigmod, "pow", counting_pow, raising=False)
        for k in (3, 6):
            assert euler_flags(ns, k, p).tolist() == want[k], k
        assert counted == [3]
        assert [call for call in calls if call[1]] == [("prime", ns.tolist())] * 2

    def test_witnesses_take_entries_that_share_primes(self, monkeypatch):
        """At 10^24+7 with k = 29, whose degree has no part, entries with
        fewer distinct primes than entries take one witness pow per prime,
        however many they are: 4096 consecutive entries with about 4.5 per
        distinct prime (which went to Montgomery while a Montgomery-weighted
        budget chose the route), 512 with 2.5 and 1024 with 3.4.  With k = 7
        the septic index decides them."""
        calls = leaf_calls(monkeypatch)
        for start, count, ratio in ((3000, 4096, 4.5), (1000, 512, 2.5), (1000, 1024, 3.35)):
            ns = np.arange(start, start + count)
            primes = set().union(*map(factorize, ns.tolist()))
            assert count / len(primes) == pytest.approx(ratio, abs=0.05)
            for k in (29, 7):
                calls.clear()
                assert euler_flags(ns, k, P24).tolist() == scalar_flags(ns, k, P24)
                assert [leaf for leaf, entries in calls if entries] == ["prime"], (k, count)

    def test_witness_products_past_4096_survivors(self, monkeypatch):
        """At 2^128+51 with k = 9 the cubes among 1..20000, more than 4096
        of them, all take the witness product in the stage, in euler_flags
        and in has_exact_order's first stage."""
        calls = leaf_calls(monkeypatch)
        ns = np.arange(1, 20001)
        witnesses = [pow(n, (P128 - 1) // 9, P128) for n in ns.tolist()]
        assert sum(pow(w, 3, P128) == 1 for w in witnesses) > 4096
        assert euler_flags(ns, 9, P128).tolist() == [w == 1 for w in witnesses]
        assert [call for call in calls if call[1]] == [("prime", ns.tolist())]
        order = exact_order_by_pow(ns, P128, 9, P128_FACTORS, witnesses)
        assert has_exact_order(ns, P128, 9, P128_FACTORS).tolist() == order

    def test_keeps_its_entries_beside_a_montgomery_pass(self, monkeypatch):
        """At 10^24+7 with k = 29, 100 entries from 1000 take the stage,
        alone, next to 600 entries from 2**21 that run a Montgomery pass, and
        next to 300 that are too few for the pass (the first two joined that
        pass while a Montgomery-weighted budget chose the route)."""
        calls = leaf_calls(monkeypatch)
        small, big = np.arange(1000, 1100), np.arange(2**21, 2**21 + 600)
        for ns, route in ((small, [("prime", small.tolist()), ("scalar", [])]),
                          (np.concatenate((small, big)), [("prime", small.tolist()),
                                                          ("montgomery", big.tolist()), ("scalar", [])]),
                          (np.concatenate((small, big[:300])), [("prime", small.tolist()),
                                                               ("scalar", big[:300].tolist())])):
            calls.clear()
            assert euler_flags(ns, 29, P24).tolist() == scalar_flags(ns, 29, P24)
            assert calls == route, len(ns)

    def test_smallest_prime_factors(self):
        spf = bigmod._smallest_prime_factors(5000)
        assert spf.dtype == np.int32 and spf[:2].tolist() == [0, 1]
        assert spf[2:].tolist() == [min(factorize(n)) for n in range(2, 5001)]
        for x in range(4):
            assert bigmod._smallest_prime_factors(x).tolist() == list(range(x + 1))

    def test_table_memory_at_the_budget(self):
        # 4096 entries up to 2**20 build the whole table, then go on to the
        # Montgomery power (consecutive entries share few primes)
        ns = np.arange(bigmod._FACTOR_LIMIT - 4095, bigmod._FACTOR_LIMIT + 1)
        tracemalloc.start()
        try:
            euler_flags(ns, 7, P24)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


def pow_indices(rs, ell, p):
    """The t with r**((p-1)/ell) = c**t mod p for each r, by one pow each,
    where c is the least power g**((p-1)/ell) != 1 over g = 2, 3, ..."""
    c = next(w for g in itertools.count(2) if (w := pow(g, (p - 1) // ell, p)) != 1)
    index = {pow(c, t, p): t for t in range(ell)}
    return [index[pow(int(r), (p - 1) // ell, p)] for r in rs]


def weighted_count_by_pow(p, k, cls, x):
    """(weighted, unweighted) count of the kth power residues n <= x in the
    class, p not dividing n, by one pow per n."""
    hits = [n for n in range(2, x + 1) if cls.contains(n) and n % p and naive_von_mangoldt(n)
            and pow(n, (p - 1) // k, p) == 1]
    return math.fsum(naive_von_mangoldt(n) for n in hits), sum(map(naive_is_prime, hits))


def index_calls(monkeypatch):
    """Record the primes of every call of the Eisenstein index leaf."""
    calls, original = [], bigmod._eisenstein_index

    def spy(r, ell, p):
        calls.append((ell, r.tolist()))
        return original(r, ell, p)

    monkeypatch.setattr(bigmod, "_eisenstein_index", spy)
    return calls


class TestEisensteinIndex:
    """The cubic, quintic and septic index leaf: pi = gcd(p, z - c) in Z[z],
    made primary, and the index of r from one ladder mod r."""

    # p = 1 mod 70 at 24 and 48 digits, so that 5 and 7 divide p - 1
    SEEDED = [seeded_prime(digits, 1, 2100 + digits + i, modulus=70) for digits in (24, 48) for i in (0, 1)]
    CASES = [(P24, 7), (P48, 7)] + [(p, ell) for p in SEEDED for ell in (5, 7)] + [(p, 3) for p in TestSharedPrimes.CUBIC]
    IDS = (["10^24+7-7", "10^48+217-7"] + [f"{d}d{i}-{ell}" for d in (24, 48) for i in (0, 1) for ell in (5, 7)]
           + [f"{name}-3" for name in TestSharedPrimes.CUBIC_IDS])

    def test_seeded_primes(self):
        assert [len(str(p)) for p in self.SEEDED] == [24, 24, 48, 48]
        assert all(p % 70 == 1 and is_prime(p) for p in self.SEEDED)

    @pytest.mark.parametrize("p,ell", CASES, ids=IDS)
    def test_pi_is_primary_of_norm_p_dividing_z_minus_c(self, p, ell):
        sympy = pytest.importorskip("sympy")
        c, pi = bigmod._cyclotomic_prime(ell, p)
        x, y = sympy.symbols("x y")
        poly = sum(a * x**i for i, a in enumerate(pi))
        # N(pi), the resultant with the cyclotomic polynomial, is p
        assert sympy.resultant(poly, sympy.cyclotomic_poly(ell, x), x) == p
        # c is the least g**((p-1)/ell) != 1, and pi(c) = 0 mod p: the prime
        # (pi) of degree 1 is (p, z - c)
        assert c == next(w for g in itertools.count(2) if (w := pow(g, (p - 1) // ell, p)) != 1)
        assert c != 1 and pow(c, ell, p) == 1
        assert sum(a * pow(c, i, p) for i, a in enumerate(pi)) % p == 0
        # primary: pi(1 - y) = A - B*y + O(y**2) with ell | B and ell not | A
        series = sympy.Poly(sympy.expand(poly.subs(x, 1 - y)), y).all_coeffs()[::-1]
        assert series[0] % ell != 0 and series[1] % ell == 0

    @pytest.mark.parametrize("p,ell,limit", [(P24, 7, 5000), (P48, 7, 10**5)]
                             + [(p, ell, 5000) for p, ell in CASES[2:]], ids=IDS)
    def test_index_matches_pow(self, p, ell, limit):
        r = primes_up_to(limit)
        r = np.concatenate([r[r != ell], [next_prime(2**30 - 200 * i) for i in range(1, 4)]])
        assert r.max() < 2**30
        got = bigmod._eisenstein_index(r, ell, p)
        assert got.tolist() == pow_indices(r, ell, p)
        # every index occurs at split primes r = 1 mod ell, which a lost sign
        # or a wrong inverse exponent would misread
        assert set(got[r % ell == 1].tolist()) == set(range(ell))

    def test_chunks(self, monkeypatch):
        monkeypatch.setattr(bigmod, "_WIDE_CHUNK", 64)
        r = primes_up_to(1000)[4:]  # 11 .. 997, 164 primes
        assert bigmod._prime_indices(r, 7, P48).tolist() == pow_indices(r, 7, P48)
        assert bigmod._prime_indices(r[:0], 3, P128).tolist() == []
        assert bigmod._eisenstein_index(r[:0], 3, P128).tolist() == []

    @pytest.mark.parametrize("k", [7, 14, 28])
    def test_counts_at_10_48_take_the_leaf(self, k, monkeypatch):
        """A count's entries at 10^48+217 with k in {7, 14, 28}: every
        distinct base other than 7 takes the septic leaf, beside Jacobi
        (k = 14) or quartic reciprocity (k = 28), which decide the verdict;
        the base 7 pays one pow for its septic index, and no Montgomery power
        runs."""
        calls = leaf_calls(monkeypatch)
        leaf = index_calls(monkeypatch)
        ns, bases = prime_powers_up_to(20000)
        got = euler_flags(ns, k, P48, bases=bases)
        assert got.tolist() == scalar_flags_by_k(ns, (k,), P48)[k]
        assert calls == [("prime", ns.tolist()), ("scalar", [])]
        distinct = np.unique(bases)
        assert leaf == [(7, distinct[distinct != 7].tolist())]

    def test_weighted_count_takes_the_leaf(self, monkeypatch):
        leaf = index_calls(monkeypatch)
        calls = leaf_calls(monkeypatch)
        for p, q in ((P48, 6), (P24, 3)):
            ctx = OddPrimeContext.for_prime(p)
            want = weighted_count_by_pow(p, 7, ResidueClass(1, q), 5000)
            report = weighted_count(Target.RESIDUE, 7, ResidueClass(1, q), 5000.0, ctx)
            assert (report.weighted_count, report.unweighted_count) == pytest.approx(want, abs=1e-9)
        assert [ell for ell, _ in leaf] == [7, 7]
        assert all(name != "montgomery" for name, _ in calls)

    def test_short_arrays_keep_pow(self, monkeypatch):
        """Below (entries taken) * (bits of p) = 1024 one pow each is faster:
        6 entries at 160 bits (960) and 12 at 80 bits (960) keep it, 7 (1120)
        and 13 (1040) take the leaf."""
        leaf = index_calls(monkeypatch)
        r = primes_up_to(100)[4:]  # 11, 13, ...
        # with bases, and without (the stage counts the entries it takes)
        for p, below in ((P48, 6), (P24, 12)):
            for n, with_bases in itertools.product((below, below + 1), (True, False)):
                leaf.clear()
                got = euler_flags(r[:n], 7, p, bases=r[:n] if with_bases else None)
                assert got.tolist() == scalar_flags(r[:n], 7, p)
                assert leaf == ([] if n == below else [(7, r[:n].tolist())]), (p, n, with_bases)

    @pytest.mark.parametrize("p,ks", [(P48, (7, 14)), (P24, (7, 14))] + [(p, (5, 10)) for p in SEEDED],
                             ids=["10^48+217", "10^24+7", "24d0", "24d1", "48d0", "48d1"])
    def test_index_route_pays_only_for_ell(self, p, ks, monkeypatch):
        """Every n <= 3000 without a base: the prime stage sums its primes'
        indices mod ell, and its only power is that of ell, paid once per
        p."""
        calls = leaf_calls(monkeypatch)
        ns = np.arange(1, 3001)
        want = scalar_flags_by_k(ns, ks, p)
        ell = ks[0]
        bigmod._cyclotomic_prime(ell, p)  # memoised per p, with pi, before counting
        bigmod._stickelberger_tables(ell, p)
        bigmod._paid_index.cache_clear()
        counted = []

        def counting_pow(*args):
            if args[2:] == (p,):
                counted.append(args[0])
            return pow(*args)

        monkeypatch.setattr(bigmod, "pow", counting_pow, raising=False)
        for k in ks:
            assert euler_flags(ns, k, p).tolist() == want[k], k
        assert counted == [ell]
        assert [call for call in calls if call[1]] == [("prime", ns.tolist())] * 2

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3_037_000_501, 2**200), st.sampled_from([5, 7, 10, 14, 15, 21, 28, 35]),
           st.lists(st.tuples(st.integers(2, 2**30 + 2**20), st.integers(1, 8)), min_size=1, max_size=20))
    def test_hypothesis_pairs(self, start, k, pairs):
        p = next_prime(start)
        while (p - 1) % k:
            p = next_prime(p)
        bases = [next_prime(x) for x, _ in pairs]
        ns = [r**j if r**j < 2**63 else r for r, (_, j) in zip(bases, pairs)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bigmod, "_INDEX_MIN_WORK", 0)
            assert euler_flags(ns, k, p, bases=bases).tolist() == scalar_flags(ns, k, p)
            assert euler_flags(ns, k, p).tolist() == scalar_flags(ns, k, p)


def ring_power_by_python_ints(x, e, r, s):
    """x**e in F_r[x]/(x**m - s) for one column x of m residues: binary
    powering over literal polynomial products in Python ints, each product
    reduced mod x**m - s (x**(m+j) = s*x**j) and then mod r."""
    m = len(x)

    def mul(a, b):
        full = [0] * (2 * m - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                full[i + j] += u * v
        for k in range(2 * m - 2, m - 1, -1):
            full[k - m] += s * full.pop()
        return [c % r for c in full]

    acc, x = [1] + [0] * (m - 1), list(x)
    while e:
        if e & 1:
            acc = mul(acc, x)
        x, e = mul(x, x), e >> 1
    return acc


class TestRingPower:
    """The one ladder of the quartic and Eisenstein leaves, in
    F_r[x]/(x**m - s), against Python-int polynomial arithmetic.  numpy
    int64 products wrap silently, so the moduli reach the docstring's
    bounds with every residue r - 1: at m = 2 a coordinate then sums two
    products near 2**62, and at m = 7 seven products near 2**60."""

    @pytest.mark.parametrize("m,s", [(2, -1), (3, 1), (5, 1), (7, 1)])
    def test_matches_python_ints(self, m, s):
        rng = random.Random(100 * m + s)
        top = 2**31 - 1 if m == 2 else 2**30 - 1
        moduli = [3, 7, 65537, 1000003, next_prime(2**29), top - 2**20, top]
        exponents = [0, 1, 2, 3, 4, 5, 2**24 - 1, 2**24] + [rng.randrange(2**24) for _ in range(6)]
        columns = [(r, e, [rng.randrange(r) for _ in range(m)]) for r in moduli for e in exponents]
        columns += [(top, e, [top - 1] * m) for e in exponents]
        rng.shuffle(columns)  # every call mixes moduli and exponents
        r, e, x = (np.array(v, dtype=np.int64) for v in zip(*columns))
        got = bigmod._ring_power(x.T, e, r, s)
        assert got.T.tolist() == [ring_power_by_python_ints(xs, ee, rr, s) for rr, ee, xs in columns]

    @pytest.mark.parametrize("m,s", [(2, -1), (7, 1)])
    def test_exponents_below_4_and_no_columns(self, m, s):
        # below 4 the top digit is the whole exponent and no step runs
        r = np.full(4, 2**31 - 1 if m == 2 else 2**30 - 1, dtype=np.int64)
        x = r - 1 - np.arange(m)[:, None]
        for small in ([0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 2, 3], [3, 2, 1, 0]):
            got = bigmod._ring_power(x, np.array(small), r, s)
            want = [ring_power_by_python_ints(x[:, i].tolist(), small[i], int(r[i]), s) for i in range(4)]
            assert got.T.tolist() == want
        assert bigmod._ring_power(x[:, :0], r[:0], r[:0], s).shape == (m, 0)


def smooth_digits_prime(digits, cofactor, seed):
    """A random prime of the given number of digits with p - 1 = cofactor * m,
    m a product of primes in [5, 10**4]: (p, factorisation of p - 1)."""
    rng = random.Random(seed)
    small = primes_up_to(10**4)[2:].tolist()
    while True:
        m = [rng.choice(small)]
        while cofactor * math.prod(m) < 10 ** (digits - 1):
            m.append(rng.choice(small))
        p = cofactor * math.prod(m) + 1
        if p < 10**digits and is_prime(p):
            factors = dict(factorize(cofactor))
            for q in m:
                factors[q] = factors.get(q, 0) + 1
            return p, factors


def exact_order_by_pow(ns, p, k, factors, witnesses):
    """has_exact_order by pow: witnesses[i] = ns[i]**((p-1)/k) mod p is 1, and
    ns[i]**((p-1)/(k*f)) is not for any prime f dividing (p-1)/k."""
    e = (p - 1) // k
    return [w == 1 and all(pow(n, e // f, p) != 1 for f in factors if e % f == 0)
            for n, w in zip(ns.tolist(), witnesses)]


class TestPrimeStage:
    """The prime stage's index contract: an entry's index t in Z/d,
    d = gcd(k, 420), read mod each part m of d (the 2-part of k, 3, 5, 7),
    against a scalar oracle: one pow, then a lookup among the powers of the
    part's root of unity."""

    # p = 1 mod 420 of 24 and 48 digits in both classes mod 8, p - 1 factored
    SMOOTH = [smooth_digits_prime(digits, cofactor, 2300 + digits) for digits in (24, 48) for cofactor in (840, 420)]
    MODULI = ([(P24, P24_FACTORS, (7,)), (P128, P128_FACTORS, (3, 6, 9)), (P48, P48_FACTORS, (4, 7, 8))]
              + [(p, factors, (12, 420)) for p, factors in SMOOTH])
    IDS = ["10^24+7", "2^128+51", "10^48+217", "24d-1mod8", "24d-5mod8", "48d-1mod8", "48d-5mod8"]

    def test_smooth_primes(self):
        assert [len(str(p)) for p, _ in self.SMOOTH] == [24, 24, 48, 48]
        assert [p % 840 for p, _ in self.SMOOTH] == [1, 421, 1, 421]
        for p, factors in self.SMOOTH:
            assert math.prod(q**e for q, e in factors.items()) == p - 1

    @staticmethod
    def root(m, p):
        """The part's root of unity: -1, i = -a/b mod a + b*i for the Gaussian
        prime of p, or the c of pi = gcd(p, z - c) in Z[z], z**ell = 1."""
        if m == 2:
            return p - 1
        if m == 4:
            a, b = bigmod._gaussian_prime(p)
            return -a * pow(b, -1, p) % p
        return bigmod._cyclotomic_prime(m, p)[0]

    @pytest.mark.parametrize("p,factors,ks", MODULI, ids=IDS)
    def test_part_indices_match_pow(self, p, factors, ks):
        """Every n <= 10**4 without a base, and every prime power below it with
        its base; then euler_flags and has_exact_order on the same entries."""
        ns = np.arange(1, 10**4 + 1)
        powers, bases = prime_powers_up_to(10**4)
        # one pow per entry: x = n**((p-1)/top), and n**((p-1)/m) = x**(top/m)
        top = math.lcm(420, *ks) if (p - 1) % math.lcm(420, *ks) == 0 else math.lcm(*ks)
        x = [pow(n, (p - 1) // top, p) for n in ns.tolist()]
        spf = bigmod._smallest_prime_factors(10**4)
        j = bigmod._exponents(powers, bases, np.arange(len(powers)))
        for d in sorted({math.gcd(k, 420) for k in ks}):
            got = bigmod._entry_indices(ns, None, None, spf, d, p)
            assert bigmod._entry_indices(powers, bases, j, None, d, p).tolist() == got[powers - 1].tolist()
            for m in [m for m in (math.gcd(d, 4), 3, 5, 7) if m > 1 and d % m == 0]:
                c = self.root(m, p)
                roots = {pow(c, t, p): t for t in range(m)}
                assert len(roots) == m and pow(c, m, p) == 1, (d, m)
                want = [roots[pow(w, top // m, p)] for w in x]
                assert (got % m).tolist() == want, (d, m)
                # every index occurs, so a lost sign or a swapped root shows
                assert set(want) == set(range(m))
        for k in ks:
            witnesses = [pow(w, top // k, p) for w in x]
            want = [w == 1 for w in witnesses]
            assert euler_flags(ns, k, p).tolist() == want, k
            assert euler_flags(powers, k, p, bases=bases).tolist() == [want[n - 1] for n in powers.tolist()], k
            order = exact_order_by_pow(ns, p, k, factors, witnesses)
            assert has_exact_order(ns, p, k, factors).tolist() == order, k
            assert has_exact_order(powers, p, k, factors, bases=bases).tolist() == [order[n - 1] for n in powers.tolist()]


class TestInputContract:
    """One input contract on every path: 1-D int64 ns, and bases of its shape."""

    FIVE_UP = primes_up_to(2000)[2:]  # 5, 7, 11, ...
    BAD = {
        "scalar": (5, None),
        "2-D": ([[5, 7], [11, 13]], None),
        "2**63": ([5, 2**63], None),
        "2**64": ([2**64], None),
        "float": ([5.0, 7.5], None),
        "str": (["5"], None),
        "longer bases": (FIVE_UP[:296], FIVE_UP[:301]),
        "shorter bases": (FIVE_UP[:296], FIVE_UP[:291]),
        "2-D bases": ([5, 7], [[5, 7]]),
        "scalar bases": ([5], 5),
        "bases of 2**64": ([5], [2**64]),
    }
    # (p, k, factors of p-1): the int64 ladder, then above it Jacobi (k = 2)
    # and the reciprocity path (k = 3)
    MODULI = [(1009, 3, factorize(1008)), (P24, 2, P24_FACTORS), (P128, 3, P128_FACTORS)]

    @pytest.mark.parametrize("modulus", MODULI, ids=["1009", "10^24+7", "2^128+51"])
    @pytest.mark.parametrize("case", list(BAD))
    def test_bad_input_is_domain_error(self, modulus, case):
        p, k, factors = modulus
        ns, bases = self.BAD[case]
        with pytest.raises(DomainError, match="1-D int64"):
            euler_flags(ns, k, p, bases)
        with pytest.raises(DomainError, match="1-D int64"):
            has_exact_order(ns, p, k, factors, bases)

    @pytest.mark.parametrize("modulus", MODULI, ids=["1009", "10^24+7", "2^128+51"])
    def test_good_input_on_every_path(self, modulus):
        p, k, factors = modulus
        ns = self.FIVE_UP[:296]
        want = scalar_flags(ns, k, p)
        # a list of ints, a narrower integer dtype and an empty list are int64 entries
        assert euler_flags(ns.tolist(), k, p, bases=ns.tolist()).tolist() == want
        assert euler_flags(ns.astype(np.int32), k, p, bases=ns.astype(np.uint16)).tolist() == want
        assert euler_flags([], k, p).tolist() == euler_flags([], k, p, bases=[]).tolist() == []
        assert has_exact_order(ns, p, k, factors, bases=ns).tolist() == has_exact_order(ns, p, k, factors).tolist()


    def test_wrong_bases_are_domain_errors(self):
        ns = self.FIVE_UP[:296]
        sevens = np.full(len(ns), 7)
        # the reciprocity stage read these 296 entries as powers of 7, and
        # gave 194 verdicts wrong without a word
        with pytest.raises(DomainError, match=r"bases\[0\] = 7 is not the prime of ns\[0\] = 5"):
            euler_flags(ns, 3, P128, bases=sevens)
        with pytest.raises(DomainError, match="is not the prime of"):
            has_exact_order(ns, P128, 3, P128_FACTORS, bases=sevens)
        # a power of another prime, j = 0, n <= 0, and r**j past 2**63 (it
        # wraps to a negative int64 at r = 2228243, j = 3)
        for n, r in ((25, 7), (7**3, 5), (1, 5), (0, 5), (-25, 5), (2**63 - 1, 2**30 - 35), (2**63 - 1, 2228243)):
            with pytest.raises(DomainError, match=rf"bases\[296\] = {r} is not the prime of ns\[296\] = {n}$"):
                euler_flags(np.append(ns, n), 3, P128, bases=np.append(ns, r))
        # right bases of high powers pass
        ns, bases = np.append(ns, [5**27, 7**22]), np.append(ns, [5, 7])
        assert euler_flags(ns, 3, P128, bases=bases).tolist() == scalar_flags(ns, 3, P128)


class TestHasExactOrder:
    def test_matches_multiplicative_order_for_every_n(self):
        for p in (41, 97, 101, 241, 1009):
            fac = factorize(p - 1)
            ns = np.arange(1, p)
            orders = [multiplicative_order(int(n), p, fac) for n in ns]
            for k in divisors(p - 1):
                want = [t == (p - 1) // k for t in orders]
                assert has_exact_order(ns, p, k, fac).tolist() == want, (p, k)
                assert has_exact_order(ns, p, k, list(fac)).tolist() == want

    def test_big_prime_table_heads(self):
        # 19 and 83 head the published seventh-power tables mod 10^48+217
        flags = has_exact_order(np.array([2, 7, 19, 83]), P48, 7, P48_FACTORS)
        assert flags.tolist() == [False, False, True, True]

    def test_incomplete_factorization_rejected(self):
        with pytest.raises(DomainError):
            has_exact_order(np.arange(1, 41), 41, 2, {2: 3})

    @pytest.mark.parametrize("p,factors", [(P128, P128_FACTORS), (P48, P48_FACTORS), (P24, P24_FACTORS)],
                             ids=["2^128+51", "10^48+217", "10^24+7"])
    def test_big_moduli_match_multiplicative_order(self, p, factors):
        """Every n <= 3000, and every prime power below it with its base, at
        every k in 2..30 that divides p-1."""
        ns = np.arange(1, 3001)
        orders = [multiplicative_order(n, p, factors) for n in ns.tolist()]
        powers, bases = prime_powers_up_to(3000)
        ks = [k for k in range(2, 31) if (p - 1) % k == 0]
        assert len(ks) >= 4
        for k in ks:
            want = np.array([t == (p - 1) // k for t in orders])
            assert has_exact_order(ns, p, k, factors).tolist() == want.tolist(), k
            assert has_exact_order(powers, p, k, factors, bases=bases).tolist() == want[powers - 1].tolist(), k

    def test_a_stage_k_f_with_f_not_dividing_k_is_an_fth_power_test(self, monkeypatch):
        stages = []
        original = bigmod.euler_flags

        def spy(ns, k, p, bases=None):
            stages.append(k)
            return original(ns, k, p, bases)

        monkeypatch.setattr(bigmod, "euler_flags", spy)
        ns, bases = prime_powers_up_to(3000)
        # p - 1 = 2 * 3**5 * 17 * 89 * 6481 * 5816689 * q
        q = 12275703273579557140363
        has_exact_order(ns, P128, 3, P128_FACTORS, bases=bases)
        assert stages == [3, 2, 9, 17, 89, 6481, 5816689, q]
        # (p - 1)/6 is odd, and 3 divides 6
        stages.clear()
        has_exact_order(ns, P128, 6, P128_FACTORS)
        assert stages == [6, 18, 17, 89, 6481, 5816689, q]


class TestPrimePowers:
    def test_weights_match_naive_von_mangoldt(self):
        for x in (1, 2, 3, 4, 100, 1024, 10**4):
            powers, bases = prime_powers_up_to(x)
            assert np.all(np.diff(powers) > 0)
            got = dict(zip(powers.tolist(), np.log(bases).tolist()))
            for n in range(1, x + 1):
                assert got.get(n, 0.0) == pytest.approx(naive_von_mangoldt(n), abs=1e-12), n

    def test_primes_are_their_own_bases(self):
        powers, bases = prime_powers_up_to(5000)
        assert powers[powers == bases].tolist() == primes_up_to(5000).tolist()


class TestOddPrimeContext:
    def test_validation(self):
        with pytest.raises(DomainError):
            OddPrimeContext.for_prime(4)
        with pytest.raises(DomainError):
            OddPrimeContext.for_prime(2)
        with pytest.raises(DomainError):
            OddPrimeContext.for_prime(13)  # below the large-prime regime
        ctx = OddPrimeContext.for_prime(13, allow_small=True)
        assert ctx.p == 13

    def test_logs(self):
        ctx = OddPrimeContext.for_prime(P24)
        assert ctx.log_p == pytest.approx(24 * math.log(10), rel=1e-12)
        assert ctx.loglog_p > 1

    def test_bound_monotone_in_exponent(self):
        ctx = OddPrimeContext.for_prime(P24)
        values = [ctx.bound_x(e) for e in (0, 1, 2, 3, 3.5, 4)]
        assert values == sorted(values)
        assert all(v > 0 for v in values)


class TestResidueClass:
    def test_valid(self):
        cls = ResidueClass(a=3, q=4)
        assert cls.contains(7)
        assert not cls.contains(9)

    def test_trivial_class(self):
        cls = ResidueClass(a=0, q=1)
        assert cls.contains(17)

    def test_invalid(self):
        with pytest.raises(DomainError):
            ResidueClass(a=2, q=4)
        with pytest.raises(DomainError):
            ResidueClass(a=4, q=4)
        with pytest.raises(DomainError):
            ResidueClass(a=0, q=4)
        with pytest.raises(DomainError):
            ResidueClass(a=1, q=1)

    @pytest.mark.parametrize("a,q", [(0, 1), (3, 4), (5, 12), (1, 7)])
    def test_array_form_matches_scalar_form(self, a, q):
        cls = ResidueClass(a=a, q=q)
        ns = primes_up_to(500)
        mask = cls.contains(ns)
        assert mask.dtype == bool
        assert mask.tolist() == [cls.contains(int(n)) for n in ns]
        assert mask.any()
