import math
import tracemalloc

import pytest

from apresidues import patterns
from apresidues.bigmod import primes_up_to
from apresidues.errors import DomainError, ResourceError
from apresidues.patterns import (
    PAIR_KEYS,
    pattern_census,
    twin_nonresidue_density,
    weighted_pattern_sum,
)

from conftest import P24, euler_sign, naive_is_prime, naive_von_mangoldt, reference_pattern_census

EDGE_ABOVE = 3_037_000_507  # least prime with (p-1)**2 >= 2**63: symbols per element

# values below were hand-derived from the reference residue/nonresidue sets
# of F_41 before implementation
F41_PAIRS = {"RR": 9, "RN": 10, "NR": 10, "NN": 10}
F41_NN_STARTS = [6, 11, 12, 13, 14, 26, 27, 28, 29, 34]
F41_NN_EVENTS = [6, 11, 26, 34]


class TestPatternCensus:
    def test_f41_pair_counts(self):
        census = pattern_census(41)
        assert census.pair_counts == F41_PAIRS
        assert sum(census.pair_counts.values()) == 41 - 2

    def test_f41_pair_13_14_is_nn(self):
        # (13, 14) and (29, 30) are consecutive nonresidue pairs in F_41
        census = pattern_census(41)
        assert 13 in F41_NN_STARTS and 29 in F41_NN_STARTS
        assert census.pair_counts["NN"] >= 2

    def test_f41_refined_counts(self):
        census = pattern_census(41)
        rr = {k: v for k, v in census.refined_counts.items() if k.startswith("R")}
        nn = {k: v for k, v in census.refined_counts.items() if k.startswith("N")}
        assert sum(rr.values()) == census.pair_counts["RR"]
        assert sum(nn.values()) == census.pair_counts["NN"]
        assert rr == {"RpRp": 0, "RpRc": 1, "RcRp": 3, "RcRc": 5}
        assert nn == {"NpNp": 0, "NpNc": 3, "NcNp": 3, "NcNc": 4}

    def test_partition_identity_sampled(self):
        for p in (101, 1009, 10007, 99991):
            census = pattern_census(p)
            assert sum(census.pair_counts.values()) == p - 2

    def test_classical_quarter_expectation(self):
        for p in (1009, 10007, 99991):
            census = pattern_census(p)
            for key in PAIR_KEYS:
                assert abs(census.pair_counts[key] - (p - 2) / 4) <= 3 * math.sqrt(p)

    def test_census_oracle_at_101(self):
        # independent recount with one-modexp symbols and trial division
        for p in (101, 1009, 4001):
            census = pattern_census(p)
            counts = {k: 0 for k in PAIR_KEYS}
            refined = {k: 0 for k in census.refined_counts}
            twins = [0, 0]
            for n in range(1, p - 1):
                a = "R" if euler_sign(n, p) == 1 else "N"
                b = "R" if euler_sign(n + 1, p) == 1 else "N"
                counts[a + b] += 1
                if a == b:
                    tags = ["p" if naive_is_prime(m) else "c" for m in (n, n + 1)]
                    refined[a + tags[0] + b + tags[1]] += 1
                if n + 2 <= p - 1 and naive_is_prime(n) and naive_is_prime(n + 2):
                    twins[1] += 1
                    twins[0] += euler_sign(n, p) == -1 and euler_sign(n + 2, p) == -1
            assert census.pair_counts == counts
            assert census.refined_counts == refined
            assert [census.twin_qualifying, census.twin_total] == twins

    def test_twin_stats_included(self):
        census = pattern_census(41)
        assert (census.twin_qualifying, census.twin_total) == (2, 5)


class TestBlockedCensus:
    # repr compares every field, the NaNs of an absent class included, which
    # == would call unequal; the reference holds every start and gap at once

    def test_matches_the_whole_array_census_below_3000(self):
        for p in primes_up_to(2999)[2:].tolist():
            assert repr(pattern_census(p)) == repr(reference_pattern_census(p)), p

    @pytest.mark.parametrize("p", [65537, 65539, 131071, 999983])
    def test_matches_the_whole_array_census(self, p):
        assert repr(pattern_census(p)) == repr(reference_pattern_census(p))

    @pytest.mark.parametrize("block", [7, 64, 1000])
    def test_block_size_does_not_change_a_bit(self, monkeypatch, block):
        # small windows put runs, events and twin pairs across window edges
        ps = [5, 7, 13, 41, 101, 1009, 4001, 10007, 65537]
        want = [repr(pattern_census(p)) for p in ps]
        monkeypatch.setattr(patterns, "_BLOCK", block)
        assert [repr(pattern_census(p)) for p in ps] == want

    def test_working_memory_at_999983(self):
        # the two masks take 2 bytes per unit of p, the sieve half a byte more
        p = 999983
        tracemalloc.start()
        try:
            pattern_census(p)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20 + 4 * p


class TestWeightedPatternSum:
    def test_forms_agree_exactly(self):
        ws = weighted_pattern_sum(41, 39)
        assert ws.quarter_product_form == pytest.approx(ws.indicator_form, abs=1e-9)

    def test_oracle_at_10007(self):
        # x = p and x = p - 1 reach the skipped n with p | n(n+1); 17 - 1 = 2**4,
        # and 3 - 1 = 2 is a weighted nonresidue
        for p, x in ((10007, 5000), (17, 17), (3, 3), (1009, 1008), (P24, 3000), (EDGE_ABOVE, 2000)):
            ws = weighted_pattern_sum(p, x)
            direct = 0.0
            skipped = 0
            for n in range(2, x + 1):
                if n % p == 0 or (n + 1) % p == 0:
                    skipped += 1
                    continue
                lam = naive_von_mangoldt(n)
                if lam and euler_sign(n, p) == -1 and euler_sign(n + 1, p) == -1:
                    direct += lam
            assert ws.indicator_form == pytest.approx(direct, abs=1e-9), p
            assert ws.quarter_product_form == pytest.approx(direct, abs=1e-9)
            assert ws.skipped == skipped

    def test_zero_below_first_nn_pair(self):
        # first NN start in F_41 is 6; scanning to 5 catches nothing
        ws = weighted_pattern_sum(41, 5)
        assert ws.quarter_product_form == 0.0
        assert ws.indicator_form == 0.0

    def test_validation(self):
        with pytest.raises(DomainError):
            weighted_pattern_sum(41, 50)

    @pytest.mark.parametrize("fn", [weighted_pattern_sum, twin_nonresidue_density])
    @pytest.mark.parametrize("x", [1, 0, -3])
    def test_x_below_2_is_domain_error(self, fn, x):
        with pytest.raises(DomainError, match="x must be >= 2"):
            fn(41, x)


class TestTwinNonresidueDensity:
    def test_f41_published_window(self):
        # the published claim (2 of 4, density 1/2) is correct only up to
        # x = 30; the full interval has a fifth pair (29, 31)
        td30 = twin_nonresidue_density(41, 30)
        assert (td30.count, td30.total, td30.fraction) == (2, 4, 0.5)
        td41 = twin_nonresidue_density(41, 41)
        assert (td41.count, td41.total) == (2, 5)
        assert td41.fraction == pytest.approx(0.4)

    def test_no_twins_below_5(self):
        td = twin_nonresidue_density(41, 4)
        assert (td.count, td.total, td.fraction) == (0, 0, None)

    def test_sieve_filter_oracle_at_1e6_3(self):
        # at x = p = 43 the pair (41, 43) holds p and is left out
        for p, x in ((10**6 + 3, 10**5), (43, 43), (P24, 2 * 10**4), (EDGE_ABOVE, 10**4)):
            td = twin_nonresidue_density(p, x)
            primes = set(int(v) for v in primes_up_to(x))
            count = total = 0
            for n in sorted(primes):
                if n + 2 in primes and (n + 2) % p:
                    total += 1
                    if euler_sign(n, p) == -1 and euler_sign(n + 2, p) == -1:
                        count += 1
            assert (td.count, td.total) == (count, total), p
            assert 0 <= td.fraction <= 1
            assert td.count <= td.total


class TestWorkBudgets:
    def test_x_beyond_census_budget_raises_before_any_work(self):
        # sizes only: the check runs before anything is sized by x
        for fn in (weighted_pattern_sum, twin_nonresidue_density):
            with pytest.raises(ResourceError):
                fn(P24, 10**7 + 1)
            with pytest.raises(ResourceError):
                fn(P24, 10**12)

    @pytest.mark.parametrize("p", [9, 1000001])  # 1000001 = 101 * 9901
    def test_composite_modulus_is_domain_error(self, p):
        with pytest.raises(DomainError, match="not prime"):
            pattern_census(p)
        for fn in (weighted_pattern_sum, twin_nonresidue_density):
            with pytest.raises(DomainError, match="not prime"):
                fn(p, min(p, 5000))

    def test_even_modulus_is_domain_error(self):
        for fn in (weighted_pattern_sum, twin_nonresidue_density):
            with pytest.raises(DomainError):
                fn(40, 30)


class TestGapStatistics:
    def test_f41_nonresidue_starts_and_events(self):
        g = pattern_census(41).gap_nonresidue
        assert g.starts == len(F41_NN_STARTS)
        assert g.events == len(F41_NN_EVENTS)

    def test_f41_gap_values(self):
        g = pattern_census(41).gap_nonresidue
        # events 6, 11, 26, 34 give d-1 gaps 4, 14, 7
        assert g.histogram == {4: 1, 7: 1, 14: 1}
        assert g.mean_gap == pytest.approx(25 / 3)
        assert g.max_gap == 14
        # raw starts drop the six d=1 adjacencies: gaps 4, 11, 4
        assert g.raw_histogram == {4: 2, 11: 1}
        assert g.raw_max_gap == 11

    def test_histogram_total_telescopes(self):
        for p in (41, 101, 1009):
            census = pattern_census(p)
            for g in (census.gap_residue, census.gap_nonresidue):
                assert sum(g.histogram.values()) == max(g.events - 1, 0)
                adjacent = g.starts - g.events
                assert sum(g.raw_histogram.values()) == max(g.starts - 1 - adjacent, 0)

    def test_ks_statistic_in_range(self):
        g = pattern_census(10007).gap_nonresidue
        assert 0 <= g.ks_uniform <= 1
        assert not g.absent

    def test_absent_when_no_pairs(self):
        # p = 5: residues {1, 4}, nonresidues {2, 3}; residue pairs absent
        g = pattern_census(5).gap_residue
        assert g.absent or g.events < 2
