import math

import pytest

from apresidues import apsearch, bigmod
from apresidues.apsearch import (
    Target,
    bound_x,
    density_sweep,
    first_primes_with_verdict,
    least_prime_with_verdict,
    main_term_prediction,
    unweighted_prediction,
    weighted_count,
)
from apresidues.bigmod import OddPrimeContext, ResidueClass, factorize, multiplicative_order, primes_up_to
from apresidues.errors import DomainError, ResourceError

from conftest import P24, P48, P128, P48_FACTORS, P128_FACTORS, euler_sign, naive_is_prime, naive_von_mangoldt


class TestBoundX:
    def test_published_values(self):
        assert bound_x(OddPrimeContext.for_prime(P24), 2) == pytest.approx(3568.93, abs=0.01)
        assert bound_x(OddPrimeContext.for_prime(P128), 3) == pytest.approx(35915.80, abs=0.5)
        assert bound_x(OddPrimeContext.for_prime(P48), 7) == pytest.approx(54172.84, abs=0.5)

    def test_epsilon_monotone(self):
        ctx = OddPrimeContext.for_prime(P24)
        assert bound_x(ctx, 2, 0.5) > bound_x(ctx, 2, 0.0)
        with pytest.raises(DomainError):
            bound_x(ctx, 2, -0.1)

    @pytest.mark.parametrize("epsilon", [-0.1, math.nan, math.inf, 1000.0])
    def test_epsilon_must_be_finite_and_nonnegative(self, epsilon):
        ctx = OddPrimeContext.for_prime(P24)
        with pytest.raises(DomainError, match="epsilon"):
            bound_x(ctx, 2, epsilon)

    def test_exponent_switch_at_k3(self):
        ctx = OddPrimeContext.for_prime(P24)
        assert bound_x(ctx, 3) == pytest.approx(ctx.bound_x(4))
        assert bound_x(ctx, 2) == pytest.approx(ctx.bound_x(3))


class TestMainTerm:
    def test_published_values(self):
        assert main_term_prediction(2, 4, 3568.93) == pytest.approx(892.23, abs=0.01)
        assert main_term_prediction(3, 8, 35915.80) == pytest.approx(2992.98, abs=0.01)
        assert main_term_prediction(7, 3, 54172.84) == pytest.approx(3869.49, abs=0.01)

    def test_unweighted_conventions(self):
        up24 = unweighted_prediction(OddPrimeContext.for_prime(P24), 2, 4)
        assert up24.by_loglog == pytest.approx(222.39, abs=0.05)
        up128 = unweighted_prediction(OddPrimeContext.for_prime(P128), 3, 8)
        assert up128.by_loglog == pytest.approx(667.0, abs=1.0)
        up48 = unweighted_prediction(OddPrimeContext.for_prime(P48), 7, 3)
        assert up48.by_loglog == pytest.approx(822.0, abs=1.0)
        # the log-x convention is reported alongside and differs materially
        assert up128.by_logx == pytest.approx(up128.main_term / math.log(35915.8039), rel=1e-6)
        assert up128.by_logx < up128.by_loglog


class TestLeastPrimeSearch:
    def test_published_quadratic_leads(self, ctx24):
        got = least_prime_with_verdict(Target.NONRESIDUE, 2, ResidueClass(1, 4), ctx24, 10**4)
        assert got.found_n == 5 and got.within_bound
        got = least_prime_with_verdict(Target.RESIDUE, 2, ResidueClass(1, 4), ctx24, 10**4)
        assert got.found_n == 29 and got.within_bound

    def test_least_nonresidue_3mod4_is_7(self, ctx24):
        # the published table head is 59, but 7 is prime, 3 mod 4, and has
        # symbol -1; the reproduce scenario flags the table omission
        got = least_prime_with_verdict(Target.NONRESIDUE, 2, ResidueClass(3, 4), ctx24, 10**4)
        assert got.found_n == 7

    def test_generator_targets_match_published_tables(self):
        ctx48 = OddPrimeContext.for_prime(P48)
        got = least_prime_with_verdict(Target.GENERATOR, 7, ResidueClass(1, 3), ctx48, 10**4,
                                       p_minus_1_factors=P48_FACTORS)
        assert got.found_n == 19
        got = least_prime_with_verdict(Target.GENERATOR, 7, ResidueClass(2, 3), ctx48, 10**4,
                                       p_minus_1_factors=P48_FACTORS)
        assert got.found_n == 83
        ctx128 = OddPrimeContext.for_prime(P128)
        got = least_prime_with_verdict(Target.GENERATOR, 3, ResidueClass(7, 8), ctx128, 10**4,
                                       p_minus_1_factors=P128_FACTORS)
        assert got.found_n == 23

    def test_euler_nonresidue_leads_for_k_above_2(self):
        ctx48 = OddPrimeContext.for_prime(P48)
        got = least_prime_with_verdict(Target.NONRESIDUE, 7, ResidueClass(1, 3), ctx48, 10**4)
        assert got.found_n == 7
        got = least_prime_with_verdict(Target.NONRESIDUE, 7, ResidueClass(2, 3), ctx48, 10**4)
        assert got.found_n == 2

    def test_minimality_by_exhaustive_rescan(self, ctx24):
        # the int64 edge prime 3037000493 has answers past the first sieve blocks;
        # 257, the first prime after a block edge, is a nonresidue mod 10^24+7
        edge = OddPrimeContext.for_prime(3_037_000_493)
        edge_factors = factorize(edge.p - 1)
        cases = [(ctx24, Target.RESIDUE, 2, ResidueClass(3, 4), None),
                 (ctx24, Target.NONRESIDUE, 2, ResidueClass(257, 1000), None),
                 (edge, Target.RESIDUE, 2, ResidueClass(5, 11), None),
                 (edge, Target.NONRESIDUE, 4, ResidueClass(1, 7), None),
                 (edge, Target.GENERATOR, 2, ResidueClass(5, 11), edge_factors),
                 (edge, Target.GENERATOR, 4, ResidueClass(1, 7), edge_factors),
                 (OddPrimeContext.for_prime(P48), Target.GENERATOR, 7, ResidueClass(2, 3), P48_FACTORS),
                 # cubic and quartic reciprocity, and their prefilters for k = 9 and 8
                 (OddPrimeContext.for_prime(P128), Target.RESIDUE, 3, ResidueClass(1, 4), None),
                 (OddPrimeContext.for_prime(P128), Target.NONRESIDUE, 9, ResidueClass(3, 4), None),
                 (OddPrimeContext.for_prime(P128), Target.GENERATOR, 3, ResidueClass(2, 5), P128_FACTORS),
                 (OddPrimeContext.for_prime(P48), Target.RESIDUE, 4, ResidueClass(1, 3), None),
                 (OddPrimeContext.for_prime(P48), Target.RESIDUE, 8, ResidueClass(0, 1), None)]
        for ctx, target, k, cls, factors in cases:
            outcome = least_prime_with_verdict(target, k, cls, ctx, 10**4, p_minus_1_factors=factors)
            n = outcome.found_n
            p = ctx.p
            for m in range(2, n + 1):
                if target is Target.GENERATOR:
                    verdict = multiplicative_order(m, p, factors) == (p - 1) // k
                else:
                    verdict = (pow(m, (p - 1) // k, p) == 1) == (target is Target.RESIDUE)
                qualifies = cls.contains(m) and naive_is_prime(m) and verdict
                assert qualifies == (m == n), (p, target, k, cls, m)

    def test_absent_outcome_carries_cap(self, ctx41):
        # primes = 3 mod 4 up to 20 are 3, 7, 11, 19, all nonresidues mod 41;
        # the least qualifying residue is 23, beyond this cap
        got = least_prime_with_verdict(Target.RESIDUE, 2, ResidueClass(3, 4), ctx41, 20)
        assert got.found_n is None
        assert not got.within_bound
        assert got.scan_limit == 20

    def test_the_class_residue_is_the_first_candidate(self, ctx24):
        # 3 and 2 are the least residues 3 mod 4 and 2 mod 3 mod 10^24+7, so a
        # scan that stops at them finds them; in 1 mod 4 the first is 5
        got = least_prime_with_verdict(Target.RESIDUE, 2, ResidueClass(3, 4), ctx24, 3)
        assert got.found_n == 3
        got = least_prime_with_verdict(Target.RESIDUE, 2, ResidueClass(2, 3), ctx24, 2)
        assert got.found_n == 2
        with pytest.raises(DomainError, match="below first candidate 5"):
            least_prime_with_verdict(Target.RESIDUE, 2, ResidueClass(1, 4), ctx24, 4)
        with pytest.raises(DomainError, match="below first candidate 2"):
            least_prime_with_verdict(Target.RESIDUE, 2, ResidueClass(0, 1), ctx24, 1)

    def test_validation(self, ctx41):
        with pytest.raises(DomainError):
            least_prime_with_verdict(Target.NONRESIDUE, 7, ResidueClass(1, 4), ctx41, 100)
        with pytest.raises(DomainError):
            least_prime_with_verdict(Target.NONRESIDUE, 2, ResidueClass(1, 4), ctx41, 3)
        with pytest.raises(DomainError):
            least_prime_with_verdict(Target.GENERATOR, 2, ResidueClass(1, 4), ctx41, 100)

    @pytest.mark.parametrize("k", [0, 1, -2])
    def test_k_below_two_is_a_domain_error(self, ctx41, k):
        # checked before (p - 1) % k, so k = 0 is no ZeroDivisionError
        with pytest.raises(DomainError, match="k must be >= 2"):
            first_primes_with_verdict(Target.NONRESIDUE, k, ResidueClass(1, 4), ctx41, 1, 100)


class TestWeightedCount:
    def test_brute_force_oracle_p41(self, ctx41, ctx24):
        # p = 43 <= x puts p and p**2 in range; the big primes take the
        # per-element Jacobi and modular-power paths
        ctx43 = OddPrimeContext.for_prime(43)
        cases = [(ctx41, Target.NONRESIDUE, 2, ResidueClass(1, 4), 300, None),
                 (ctx43, Target.RESIDUE, 3, ResidueClass(2, 5), 2000, None),
                 (ctx43, Target.NONRESIDUE, 7, ResidueClass(0, 1), 2000, None),
                 (ctx43, Target.GENERATOR, 7, ResidueClass(1, 3), 1000, {2: 1, 3: 1, 7: 1}),
                 (ctx24, Target.NONRESIDUE, 2, ResidueClass(1, 4), 3000, None),
                 (OddPrimeContext.for_prime(P48), Target.RESIDUE, 7, ResidueClass(2, 3), 1500, None),
                 # the reciprocity path, on primes and prime powers
                 (OddPrimeContext.for_prime(P128), Target.RESIDUE, 3, ResidueClass(0, 1), 1500, None),
                 (OddPrimeContext.for_prime(P128), Target.NONRESIDUE, 6, ResidueClass(1, 4), 1500, None),
                 (OddPrimeContext.for_prime(P128), Target.RESIDUE, 9, ResidueClass(0, 1), 1500, None),
                 (OddPrimeContext.for_prime(P128), Target.GENERATOR, 3, ResidueClass(0, 1), 600, P128_FACTORS),
                 (OddPrimeContext.for_prime(P48), Target.RESIDUE, 4, ResidueClass(0, 1), 1500, None),
                 (OddPrimeContext.for_prime(P48), Target.NONRESIDUE, 8, ResidueClass(2, 3), 1500, None),
                 # the stage k*f = 4 of an order test, on squares of primitive roots
                 (OddPrimeContext.for_prime(P48), Target.GENERATOR, 2, ResidueClass(0, 1), 1500, P48_FACTORS),
                 # the septic index leaf, alone and beside Jacobi and quartic reciprocity
                 (ctx24, Target.RESIDUE, 7, ResidueClass(1, 3), 3000, None),
                 (OddPrimeContext.for_prime(P48), Target.NONRESIDUE, 14, ResidueClass(0, 1), 1500, None),
                 (OddPrimeContext.for_prime(P48), Target.RESIDUE, 28, ResidueClass(1, 4), 1500, None),
                 (OddPrimeContext.for_prime(P48), Target.GENERATOR, 7, ResidueClass(1, 3), 1000, P48_FACTORS)]
        for ctx, target, k, cls, x, factors in cases:
            p = ctx.p
            report = weighted_count(target, k, cls, float(x), ctx, p_minus_1_factors=factors)
            weighted = 0.0
            unweighted = 0
            skipped = 0
            for n in range(2, x + 1):
                if not cls.contains(n):
                    continue
                if n % p == 0:
                    skipped += 1
                    continue
                lam = naive_von_mangoldt(n)
                if lam == 0.0:
                    continue
                if target is Target.GENERATOR:
                    hit = multiplicative_order(n, p, factors) == (p - 1) // k
                elif k == 2:
                    hit = euler_sign(n, p) == (1 if target is Target.RESIDUE else -1)
                else:
                    hit = (pow(n, (p - 1) // k, p) == 1) == (target is Target.RESIDUE)
                if hit:
                    weighted += lam
                    if naive_is_prime(n):
                        unweighted += 1
            assert report.weighted_count == pytest.approx(weighted, abs=1e-9), (p, k, target)
            assert report.unweighted_count == unweighted
            assert report.skipped_multiples_of_p == skipped
            assert report.error_term == pytest.approx(report.weighted_count - report.main_term)

    def test_nonresidue_main_term_covers_its_cosets(self):
        """At p = 1009 with k = 3, q = 4, a = 1 and x = 5000, a literal loop
        over n gives both weighted counts.  The nonresidue target's main term
        is 2x/(3*phi(4)), twice the residue one, so the two error terms add
        up to the class's own error psi(x; 4, 1) - x/phi(4) (p excluded) and
        each is of that size; with the residue main term the nonresidue
        error read about +x/6."""
        ctx = OddPrimeContext.for_prime(1009)
        x, cls = 5000, ResidueClass(1, 4)
        res = weighted_count(Target.RESIDUE, 3, cls, float(x), ctx)
        non = weighted_count(Target.NONRESIDUE, 3, cls, float(x), ctx)
        terms = [(naive_von_mangoldt(n), pow(n, 336, 1009) == 1) for n in range(2, x + 1)
                 if cls.contains(n) and n % 1009]
        assert res.weighted_count == pytest.approx(math.fsum(lam for lam, cube in terms if cube), abs=1e-9)
        assert non.weighted_count == pytest.approx(math.fsum(lam for lam, cube in terms if not cube), abs=1e-9)
        assert (res.main_term, non.main_term) == (x / 6, 2 * x / 6)
        class_error = math.fsum(lam for lam, _ in terms) - x / 2
        assert res.error_term + non.error_term == pytest.approx(class_error, abs=1e-9)
        scale = max(abs(res.error_term), abs(class_error))
        assert abs(non.error_term) <= 2 * scale < x / 60
        # k = 2 keeps x/(2*phi(q)) for both targets, bit for bit
        half = weighted_count(Target.NONRESIDUE, 2, cls, float(x), ctx)
        assert half.main_term == main_term_prediction(2, 4, float(x))

    def test_published_main_term(self, ctx24):
        x = bound_x(ctx24, 2)
        report = weighted_count(Target.NONRESIDUE, 2, ResidueClass(1, 4), x, ctx24)
        assert report.main_term == pytest.approx(892.23, abs=0.01)
        assert report.weighted_count > 0
        assert report.unweighted_count <= len(primes_up_to(math.floor(x)))

    @pytest.mark.parametrize("x", [1.5, -math.inf, math.nan])
    def test_x_below_two_or_nan_rejected(self, ctx24, x):
        with pytest.raises(DomainError, match="x must be >= 2"):
            weighted_count(Target.NONRESIDUE, 2, ResidueClass(1, 4), x, ctx24)

    @pytest.mark.parametrize("k", [0, 1])
    def test_k_below_two_rejected_before_sieving(self, ctx41, monkeypatch, k):
        def refuse(*args):
            raise AssertionError("sieved before validating k")

        monkeypatch.setattr(apsearch, "prime_powers_up_to", refuse)
        with pytest.raises(DomainError, match="k must be >= 2"):
            weighted_count(Target.NONRESIDUE, k, ResidueClass(1, 4), 100.0, ctx41)

    def test_dichotomy_conservation(self, ctx41):
        x = 500.0
        cls = ResidueClass(1, 4)
        res = weighted_count(Target.RESIDUE, 2, cls, x, ctx41)
        non = weighted_count(Target.NONRESIDUE, 2, cls, x, ctx41)
        total = sum(
            naive_von_mangoldt(n)
            for n in range(2, 501)
            if n % 4 == 1 and n % 41 != 0
        )
        assert res.weighted_count + non.weighted_count == pytest.approx(total, abs=1e-9)

    def test_trivial_class_partition(self, ctx41):
        x = 200.0
        cls = ResidueClass(0, 1)
        res = weighted_count(Target.RESIDUE, 2, cls, x, ctx41)
        non = weighted_count(Target.NONRESIDUE, 2, cls, x, ctx41)
        psi = sum(naive_von_mangoldt(n) for n in range(2, 201) if n % 41 != 0)
        assert res.weighted_count + non.weighted_count == pytest.approx(psi, abs=1e-9)

    def test_density_estimate_denominator(self, ctx41):
        report = weighted_count(Target.NONRESIDUE, 2, ResidueClass(1, 4), 300.0, ctx41)
        denom = sum(1 for n in range(2, 301) if n % 4 == 1 and naive_is_prime(n) and n % 41 != 0)
        assert report.progression_prime_count == denom
        assert report.density_estimate == pytest.approx(report.unweighted_count / denom)


class TestDensitySweep:
    def test_quadratic_fraction_near_half(self):
        result = density_sweep(2, ResidueClass(0, 1), (10**5, 10**5 + 2000),
                               x_rule="prime", max_primes=25)
        assert result.skipped_primes == 0
        assert len(result.samples) >= 3
        for s in result.samples:
            sigma = 0.5 / math.sqrt(s.total)
            assert abs(s.observed_fraction - 0.5) <= 3 * sigma
            assert s.correction_estimate == pytest.approx(2 * s.observed_fraction)

    def test_cubic_fraction_near_two_thirds(self):
        result = density_sweep(3, ResidueClass(0, 1), (10**4, 10**4 + 600), x_rule="prime")
        assert result.skipped_primes > 0  # primes = 2 mod 3 do not conform
        assert len(result.samples) >= 1
        for s in result.samples:
            sigma = math.sqrt(2.0 / 9.0 / s.total)
            assert abs(s.observed_fraction - 2 / 3) <= 3 * sigma

    def test_nonresidue_correction_near_one(self):
        # the k-1 nonresidue cosets hold (k-1)/k of the primes: the estimate
        # divides by k-1 and reads about 1, not k-1
        result = density_sweep(3, ResidueClass(0, 1), (10**4, 10**4 + 600), x_rule="prime")
        assert len(result.samples) >= 1
        for s in result.samples:
            sigma = math.sqrt(2.0 / 9.0 / s.total)
            assert s.correction_estimate == pytest.approx(s.observed_fraction * 3 / 2)
            assert abs(s.correction_estimate - 1) <= 3 * sigma * 3 / 2

    def test_progression_correction_recorded(self):
        result = density_sweep(2, ResidueClass(1, 4), (10**5, 10**5 + 1500),
                               x_rule="prime", max_primes=3)
        for s in result.samples:
            # naive independence predicts fraction 1/(2*phi(4)) = 1/4, c = 1
            assert 0.5 < s.correction_estimate < 1.5

    def test_counts_match_direct_rescan(self):
        for k, cls, x_rule in ((2, ResidueClass(1, 4), "prime"), (3, ResidueClass(2, 5), "fixed:3000"),
                               (2, ResidueClass(0, 1), "bound")):
            result = density_sweep(k, cls, (2000, 2400), x_rule=x_rule, target=Target.RESIDUE)
            assert result.samples
            for s in result.samples:
                primes = [n for n in range(2, math.floor(s.x) + 1) if naive_is_prime(n) and n != s.p]
                hits = [n for n in primes if cls.contains(n) and pow(n, (s.p - 1) // k, s.p) == 1]
                assert (s.qualifying, s.total) == (len(hits), len(primes)), (k, s.p)
            skipped = [p for p in primes_up_to(2400) if p >= 2000 and (p - 1) % k]
            assert result.skipped_primes == len(skipped)

    def test_x_rules(self):
        fixed = density_sweep(2, ResidueClass(0, 1), (10**4, 10**4 + 200),
                              x_rule="fixed:5000", max_primes=1)
        assert fixed.samples[0].x == 5000.0
        bound = density_sweep(2, ResidueClass(0, 1), (10**4, 10**4 + 200),
                              x_rule="bound", max_primes=1)
        p = bound.samples[0].p
        ctx = OddPrimeContext.for_prime(p)
        assert bound.samples[0].x == pytest.approx(bound_x(ctx, 2))
        with pytest.raises(DomainError):
            density_sweep(2, ResidueClass(0, 1), (10**4, 10**4 + 200), x_rule="nope")

    @pytest.mark.parametrize("rule", ["fixed:nan", "fixed:inf", "fixed:-inf", "fixed:"])
    def test_fixed_x_must_be_a_finite_number(self, rule):
        with pytest.raises(DomainError, match="finite number"):
            density_sweep(2, ResidueClass(0, 1), (10**4, 10**4 + 200), x_rule=rule)

    @pytest.mark.parametrize("k,prime_range,message", [
        (0, (1000, 1100), "k must be >= 2"),
        (1, (1000, 1100), "k must be >= 2"),
        (-2, (1000, 1100), "k must be >= 2"),
        (2, (2000, 1000), "empty prime range"),
    ])
    def test_bad_k_or_inverted_range_rejected_before_sieving(self, monkeypatch, k, prime_range, message):
        def refuse(*args):
            raise AssertionError("sieved before validating the sweep")

        monkeypatch.setattr(apsearch, "primes_up_to", refuse)
        monkeypatch.setattr(apsearch, "_prime_segments", refuse)
        with pytest.raises(DomainError, match=message):
            density_sweep(k, ResidueClass(0, 1), prime_range)

    @pytest.mark.parametrize("max_primes", [0, -3])
    def test_max_primes_below_one_rejected_before_sieving(self, monkeypatch, max_primes):
        def refuse(*args):
            raise AssertionError("sieved before validating the sweep")

        monkeypatch.setattr(apsearch, "primes_up_to", refuse)
        monkeypatch.setattr(apsearch, "_prime_segments", refuse)
        with pytest.raises(DomainError, match="max_primes must be >= 1"):
            density_sweep(2, ResidueClass(1, 4), (100000, 110000), max_primes=max_primes)

    @pytest.mark.parametrize("x_rule", ["fixed:-5", "fixed:0", "fixed:1.5"])
    def test_fixed_x_below_2_rejected_before_sieving(self, monkeypatch, x_rule):
        # fixed:-5 wrote rows with x = -5 and NaN fractions
        def refuse(*args):
            raise AssertionError("sieved before validating the sweep")

        monkeypatch.setattr(apsearch, "primes_up_to", refuse)
        monkeypatch.setattr(apsearch, "_prime_segments", refuse)
        with pytest.raises(DomainError, match="x must be >= 2"):
            density_sweep(2, ResidueClass(1, 4), (1000, 1100), x_rule=x_rule)

    def test_bound_x_below_2_at_a_chosen_prime_rejected_before_the_count_sieve(self, monkeypatch):
        # the bound is 0.0009, 0.17, 0.57 and 1.60 at p = 3, 5, 7 and 11, which
        # wrote rows with NaN fractions; from p = 13 on it is at least 2.14
        sieved, original = [], apsearch.primes_up_to

        def spy(x):
            sieved.append(x)
            return original(x)

        monkeypatch.setattr(apsearch, "primes_up_to", spy)
        with pytest.raises(DomainError, match=r"x rule 'bound' gives x = 0.0009139 < 2 at p=3"):
            density_sweep(2, ResidueClass(0, 1), (3, 20), x_rule="bound")
        with pytest.raises(DomainError, match=r"gives x = 1.604 < 2 at p=11"):
            density_sweep(2, ResidueClass(0, 1), (11, 20), x_rule="bound")
        assert sieved == []  # the primes are walked, and nothing is sieved before the error
        result = density_sweep(2, ResidueClass(0, 1), (12, 20), x_rule="bound")
        assert [s.p for s in result.samples] == [13, 17, 19]
        assert all(s.x >= 2 and s.total for s in result.samples)

    @pytest.mark.parametrize("prime_range,x_rule", [((1000, 10**9), "prime"), ((1000, 10**8 + 1), "bound"),
                                                    ((1000, 1100), "fixed:100000001")])
    def test_sieve_past_the_count_budget_rejected_before_sieving(self, monkeypatch, prime_range, x_rule):
        # prime_max = 10**9 sieved 50.8M primes (about 400 MB) first
        def refuse(*args):
            raise AssertionError("sieved before validating the sweep")

        monkeypatch.setattr(apsearch, "primes_up_to", refuse)
        monkeypatch.setattr(apsearch, "_prime_segments", refuse)
        with pytest.raises(ResourceError, match="count budget is 100000000"):
            density_sweep(2, ResidueClass(1, 4), prime_range, x_rule=x_rule)

    def test_walks_sieve_segments_not_next_prime(self, monkeypatch):
        # k = 100000 conforms at few primes: the walk passes 146,211 others
        # on its way to the third
        def refuse(n):
            raise AssertionError("walked the primes one next_prime at a time")

        monkeypatch.setattr(bigmod, "next_prime", refuse)
        monkeypatch.setattr(apsearch, "next_prime", refuse, raising=False)
        result = density_sweep(100000, ResidueClass(1, 4), (100000, 10**8), x_rule="bound", max_primes=3)
        assert [s.p for s in result.samples] == [700001, 900001, 2100001]
        assert result.skipped_primes == 146211

    def test_one_point_range_is_not_inverted(self):
        result = density_sweep(2, ResidueClass(0, 1), (10007, 10007), max_primes=1)
        assert [s.p for s in result.samples] == [10007]


class TestErrorTermShape:
    def test_scaled_error_reported_not_asserted(self, capsys):
        # |weighted - main| / (log(p) * log(x)^2): the empirical max is a
        # reported statistic, not a hard bound
        worst = 0.0
        for p in (10007, 30011, 99991):
            ctx = OddPrimeContext.for_prime(p)
            x = bound_x(ctx, 2, 0.5)
            rep = weighted_count(Target.NONRESIDUE, 2, ResidueClass(1, 4), x, ctx)
            worst = max(worst, abs(rep.error_term) / (ctx.log_p * math.log(x) ** 2))
        print(f"max |error| / (log p * log^2 x) over the sample: {worst:.4f}")
        assert math.isfinite(worst) and worst > 0


class TestBoundSweepSmall:
    def test_fifty_primes_no_violations(self):
        primes = [int(p) for p in primes_up_to(102000) if p >= 10**5]
        assert len(primes) >= 50
        worst = 0.0
        for p in primes[:50]:
            ctx = OddPrimeContext.for_prime(p)
            q_max = math.floor(ctx.loglog_p)
            for q in range(2, q_max + 1):
                for a in range(1, q):
                    if math.gcd(a, q) != 1:
                        continue
                    got = least_prime_with_verdict(
                        Target.NONRESIDUE, 2, ResidueClass(a, q), ctx, 10**5, epsilon=0.5)
                    assert got.found_n is not None
                    assert got.found_n <= ctx.bound_x(3.5)
                    # error-shape statistic, reported not asserted as a bound
                    worst = max(worst, got.found_n / (ctx.log_p * math.log(got.found_n) ** 2))
        assert worst > 0
