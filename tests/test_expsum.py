import cmath
import math
import tracemalloc

import numpy as np
import pytest

from apresidues import expsum, kernels
from apresidues.bigmod import primes_up_to
from apresidues.errors import DomainError, ResourceError
from apresidues.expsum import (
    fiber_histograms,
    fourier_U_hat,
    fourier_U_hat_swapped,
    incomplete_expsum,
    max_ratio_table,
    theoretical_bound,
    uhat_all_residues,
)
from apresidues.residues import build_small_field_table
from conftest import divisors, gather_alpha, gather_beta


def direct_incomplete_sum(b, x, tau, p):
    """Independent oracle: one cmath.exp per term with a separate power loop."""
    total = 0.0 + 0.0j
    for n in range(1, x + 1):
        total += cmath.exp(2j * cmath.pi * (b * pow(tau, n, p) % p) / p)
    return total


class TestIncompleteExpSum:
    def test_complete_sum_is_minus_one(self, table41, table101):
        for table in (table41, table101):
            for b in (1, 2, table.p - 1):
                s = incomplete_expsum(b, table.p - 1, table)
                assert abs(s.value - (-1.0)) < 1e-6

    def test_direct_resummation_oracle(self, table41):
        assert table41.tau == 6
        s = incomplete_expsum(1, 20, table41)
        oracle = direct_incomplete_sum(1, 20, 6, 41)
        assert abs(s.value - oracle) < 1e-10

    def test_two_evaluation_orders_agree(self, table101):
        # reversed-order accumulation as the second evaluation path
        for b, x in ((3, 50), (7, 100)):
            s = incomplete_expsum(b, x, table101)
            oracle = sum(
                cmath.exp(2j * cmath.pi * (b * pow(table101.tau, n, 101) % 101) / 101)
                for n in range(x, 0, -1)
            )
            assert abs(s.value - oracle) < 1e-8

    def test_sample_fields(self, table101):
        s = incomplete_expsum(5, 60, table101)
        assert s.magnitude == pytest.approx(abs(s.value), rel=1e-9)
        assert s.bound == pytest.approx(math.sqrt(101) * math.log(101) ** 2)
        assert s.ratio == pytest.approx(s.magnitude / s.bound)
        assert s.ratio >= 0

    @pytest.mark.parametrize("x", [3.5, 20.0, "20", None])
    def test_cutoff_must_be_an_integer(self, table41, x):
        with pytest.raises(DomainError, match="integer"):
            incomplete_expsum(1, x, table41)

    def test_numpy_integer_cutoff(self, table41):
        for x in (np.int64(20), np.int32(20), np.uint8(20)):
            assert incomplete_expsum(1, x, table41) == incomplete_expsum(1, 20, table41)

    def test_zero_b_rejected(self, table41):
        with pytest.raises(DomainError):
            incomplete_expsum(0, 10, table41)
        with pytest.raises(DomainError):
            incomplete_expsum(82, 10, table41)

    def test_max_ratio_below_one_at_1009(self, table1009):
        ratios = max_ratio_table(table1009)
        assert len(ratios) == 1008
        assert ratios.max() < 1.0
        # frozen from an independent run: the empirical constant is ~0.024
        assert ratios.max() == pytest.approx(0.0242, abs=0.002)

    def test_max_ratio_rows_are_max_over_every_cutoff(self, table101):
        # x runs over [1, p-1]; each row against the single-sum oracle
        ratios = max_ratio_table(table101)
        for b in range(1, 101):
            best = max(incomplete_expsum(b, x, table101).magnitude for x in range(1, 101))
            assert ratios[b - 1] * theoretical_bound(101) == pytest.approx(best, rel=1e-12)

    @pytest.mark.parametrize("p", [3, 101, 1009, 10007, 30011])
    def test_max_ratio_pairs_are_bitwise_equal(self, p):
        # row p-b is the complex conjugate of row b; argmax gives the smaller b of a pair
        ratios = max_ratio_table(build_small_field_table(p))
        assert np.array_equal(ratios, ratios[::-1])
        assert int(ratios.argmax()) + 1 <= (p - 1) // 2

    def test_max_ratio_memory_at_10007(self):
        table = build_small_field_table(10007)
        tracemalloc.start()
        try:
            max_ratio_table(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestFourierUHat:
    def test_closed_form_oracle(self, table101):
        # orthogonality gives U-hat(a) = p*[a nonresidue] - (p-1)/2 exactly,
        # so every residue must produce -(p-1)/2
        for a in sorted(table101.residue_coset(2).tolist()):
            sample = fourier_U_hat(a, table101)
            assert abs(sample.value - (-50.0)) < 1e-7

    def test_swap_order_identity(self, table101):
        for a in (1, 4, 9, 100):
            sample = fourier_U_hat(a, table101)
            swapped = fourier_U_hat_swapped(a, table101)
            assert abs(sample.value - swapped) < 1e-8

    def test_identity_residual_within_bound(self, table101, table1009):
        # |identity_residual| = |p + g|/2 and |value| = (p-1)/2: both hold only
        # because (p-1)/2 <= sqrt(p) log(p)**2 below about p = 57,830
        for table in (table101, table1009):
            bound = theoretical_bound(table.p)
            for a in sorted(table.residue_coset(2).tolist())[:20]:
                sample = fourier_U_hat(a, table)
                assert abs(sample.identity_residual) <= bound
                assert sample.ratio < 1.0

    def test_batch_matches_literal(self, table101):
        a_vals, mags = uhat_all_residues(table101)
        assert len(a_vals) == 50
        for i in (0, 10, 49):
            sample = fourier_U_hat(int(a_vals[i]), table101)
            assert mags[i] == pytest.approx(abs(sample.value), abs=1e-8)

    @pytest.mark.parametrize("p", [101, 2003])
    def test_fields_match_the_closed_forms(self, p):
        # g is the quadratic Gauss sum: sqrt(p) at p = 1 (mod 4), i*sqrt(p) at p = 3 (mod 4)
        table = build_small_field_table(p)
        g = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
        for a in sorted(table.residue_coset(2).tolist()):
            sample = fourier_U_hat(a, table)
            assert abs(sample.value + (p - 1) / 2) < 1e-9
            assert abs(sample.half_sum - (-1 - g) / 2) < 1e-9
            assert abs(sample.identity_residual + (p + g) / 2) < 1e-9

    @pytest.mark.parametrize("p", [3, 13, 4999, 99991, 999983])
    def test_batch_is_exactly_half_of_p_minus_1(self, p):
        table = build_small_field_table(p)
        a_vals, mags = uhat_all_residues(table)
        assert a_vals.dtype == np.int64 and mags.dtype == np.float64
        assert np.array_equal(a_vals, np.sort(table.residue_coset(2)))
        assert np.array_equal(mags, np.full((p - 1) // 2, (p - 1) / 2))

    def test_nonresidue_rejected(self, table101):
        nonres = sorted(table101.nonresidues_all(2).tolist())[0]
        with pytest.raises(DomainError):
            fourier_U_hat(nonres, table101)
        with pytest.raises(DomainError):
            fourier_U_hat(0, table101)

    def test_parseval_energy(self, table101, table1009):
        for table in (table101, table1009, build_small_field_table(2003)):
            p = table.p
            s = table.half_sums
            energy = float((np.abs(s) ** 2).sum())
            assert energy == pytest.approx(p * (p - 1) // 2, rel=1e-4)


class TestFiberHistograms:
    @pytest.mark.parametrize("x", [5, 10])
    def test_fiber_bounds_at_101(self, table101, x):
        alpha, beta = fiber_histograms(x, 2, table101)
        assert beta.histogram == {x: 100}
        assert beta.zero_hits == 0
        assert alpha.max_fiber <= x - 1

    def test_injective_at_x2(self, table101):
        alpha, _ = fiber_histograms(2, 2, table101)
        assert alpha.max_fiber <= 1

    def test_mass_conservation(self, table101):
        alpha, beta = fiber_histograms(10, 2, table101)
        for h in (alpha, beta):
            mass = sum(size * count for size, count in h.histogram.items())
            assert mass + h.zero_hits == h.domain_size
        assert alpha.domain_size == 50 * 9
        assert beta.domain_size == 10 * 100

    def test_cubic_map_at_1009(self, table1009):
        alpha, beta = fiber_histograms(10, 3, table1009)
        assert beta.histogram == {10: 1008}
        assert alpha.max_fiber <= 9
        assert alpha.domain_size == 336 * 9

    def test_domain_validation(self, table101):
        with pytest.raises(DomainError):
            fiber_histograms(1, 2, table101)
        with pytest.raises(DomainError):
            fiber_histograms(101, 2, table101)

    def test_k1_has_no_nonresidue_coset(self):
        with pytest.raises(DomainError, match="no nonresidues"):
            fiber_histograms(3, 1, build_small_field_table(11))

    @pytest.mark.parametrize("x", [3.5, 4.0, "4", None])
    def test_cutoff_must_be_an_integer(self, table101, x):
        with pytest.raises(DomainError, match="integer"):
            fiber_histograms(x, 2, table101)

    def test_numpy_integer_cutoff(self, table101):
        for x in (np.int64(10), np.int32(10), np.uint16(10)):
            assert fiber_histograms(x, 2, table101) == fiber_histograms(10, 2, table101)

    def test_blocked_counts_match_full_targets(self, table1009, monkeypatch):
        # blocks of a few rows each, against one bincount over every target
        monkeypatch.setattr(kernels, "_BLOCK", 3000)
        p, x, k = 1009, 300, 3
        alpha, beta = fiber_histograms(x, k, table1009)
        coset = table1009.nonresidue_coset(k)
        n = np.arange(2, x + 1)
        u, v = np.arange(1, x + 1), np.arange(1, p)
        for h, targets in ((alpha, (coset[:, None] - n[None, :]) % p),
                           (beta, (u[:, None] * v[None, :]) % p)):
            counts = np.bincount(targets.ravel(), minlength=p)
            sizes, freq = np.unique(counts[1:][counts[1:] > 0], return_counts=True)
            assert h.histogram == dict(zip(sizes.tolist(), freq.tolist()))
            assert h.zero_hits == counts[0]
            assert h.domain_size == targets.size

    def test_full_width_census_returns(self):
        # (p-1)/2 * (x-1) + x * (p-1) is about 1.5e10 domain points, but the
        # window counts take O(p)
        alpha, beta = fiber_histograms(99990, 2, build_small_field_table(99991))
        assert beta.histogram == {99990: 99990}
        assert alpha.max_fiber <= 99989
        for h in (alpha, beta):
            mass = sum(size * count for size, count in h.histogram.items())
            assert mass + h.zero_hits == h.domain_size

    def test_table_limit_is_the_only_size_budget(self):
        with pytest.raises(ResourceError, match="small-field tables"):
            build_small_field_table(1000003)


def _census_cases(p: int):
    """Every k >= 2 dividing p-1 and x in {2, 3, p//8, p//4, p-1} with
    2 <= x < p."""
    ks = [k for k in divisors(p - 1) if k >= 2]
    xs = sorted({x for x in (2, 3, p // 8, p // 4, p - 1) if 2 <= x < p})
    return [(x, ks) for x in xs]


class TestFiberWindowCounts:
    @pytest.mark.parametrize("ps", [[int(p) for p in primes_up_to(500)[1:]], [1009], [4999], [10007]],
                             ids=["p<=500", "1009", "4999", "10007"])
    def test_matches_the_per_point_census(self, ps):
        for p in ps:
            table = build_small_field_table(p)
            for x, ks in _census_cases(p):
                beta_want = gather_beta(x, table)
                for k in ks:
                    alpha, beta = fiber_histograms(x, k, table)
                    assert alpha == gather_alpha(x, k, table), (p, k, x)
                    assert beta == beta_want, (p, k, x)

    def test_no_per_point_path_is_left(self, table1009, monkeypatch):
        def refuse(*args):
            raise AssertionError("a fiber census enumerated domain points")

        monkeypatch.setattr(kernels, "index_blocks", refuse)
        alpha, beta = fiber_histograms(300, 3, table1009)
        assert beta.histogram == {300: 1008}
        assert alpha.domain_size == 336 * 299

    def test_memory_is_a_few_arrays_of_p(self):
        # about 4.2 MiB: a handful of int64 arrays of p entries, no block of
        # domain points
        table = build_small_field_table(99991)
        tracemalloc.start()
        try:
            alpha, beta = fiber_histograms(600, 2, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert beta.histogram == {600: 99990}
        assert alpha.max_fiber <= 599
        assert peak < 6 * 2**20

    def test_largest_table_stays_under_64_mib(self):
        # about 42-50 MiB at the largest prime a table admits
        p = 999983
        table = build_small_field_table(p)
        tracemalloc.start()
        try:
            alpha, beta = fiber_histograms(p // 4, 2, table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert beta.histogram == {p // 4: p - 1}
        assert alpha.max_fiber <= p // 4 - 1
        for h in (alpha, beta):
            mass = sum(size * count for size, count in h.histogram.items())
            assert mass + h.zero_hits == h.domain_size
        assert peak < 64 * 2**20
