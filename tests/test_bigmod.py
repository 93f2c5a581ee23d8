import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apresidues import bigmod
from apresidues.bigmod import (
    OddPrimeContext,
    ResidueClass,
    divisors,
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

from conftest import P24, P48, P48_FACTORS, P128, loop_sieve, naive_von_mangoldt


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
            got, want = bigmod._simple_sieve(x), loop_sieve(x)
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
        sizes = wide_calls(monkeypatch)
        ns = np.arange(1, 1001)
        euler_flags(ns, 2, P24)
        euler_flags(ns, 7, P48)
        assert sizes == [1000, 1000]
        # 2**31 and above stay scalar for k = 2, 0 everywhere
        mixed = np.concatenate([ns, [0, 2**31, 2**40]])
        assert euler_flags(mixed, 2, P24).tolist() == scalar_flags(mixed, 2, P24)
        assert euler_flags(mixed, 7, P24).tolist() == scalar_flags(mixed, 7, P24)
        assert sizes[2:] == [1000, 1002]
        # short arrays, and moduli of more than 6 limbs for k >= 3, stay scalar
        p170 = next(q for q in range(2**170 + 1, 2**170 + 10**5, 2) if q % 3 == 1 and is_prime(q))
        euler_flags(ns[: bigmod._WIDE_MIN - 1], 2, P24)
        euler_flags(ns, 3, p170)
        assert len(sizes) == 4
        euler_flags(ns, 2, p170)
        assert sizes[4:] == [1000]

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
