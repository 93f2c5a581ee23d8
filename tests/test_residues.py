import math
import tracemalloc

import numpy as np
import pytest

from apresidues import kernels, residues
from apresidues.bigmod import OddPrimeContext, jacobi, primes_up_to
from apresidues.errors import DomainError, IntegrityError
from apresidues.residues import (
    NONRESIDUE_INDICATOR,
    RESIDUE_INDICATOR,
    CharacterVerdict,
    Verdict,
    _round_indicator,
    build_small_field_table,
    char_function_oracle,
    char_function_values,
    coset_indicator,
    kth_power_verdict,
    least_primitive_root,
)

from conftest import P24, P48, P128, divisors

# the two reference sets for F_41
Q41 = frozenset({1, 2, 4, 5, 8, 9, 10, 16, 18, 20, 21, 23, 25, 31, 32, 33, 36, 37, 39, 40})
N41 = frozenset({3, 6, 7, 11, 12, 13, 14, 15, 17, 19, 22, 24, 26, 27, 28, 29, 30, 34, 35, 38})


class TestEulerVerdicts:
    def test_published_quadratic_examples(self, ctx24):
        assert kth_power_verdict(5, 2, ctx24).verdict is Verdict.NONRESIDUE
        assert kth_power_verdict(29, 2, ctx24).verdict is Verdict.RESIDUE

    def test_explicit_square(self, ctx24):
        n = 123456789**2 % P24
        v = kth_power_verdict(n, 2, ctx24)
        assert v.verdict is Verdict.RESIDUE
        assert v.witness == 1

    def test_witness_invariant(self, ctx41):
        for n in range(1, 41):
            v = kth_power_verdict(n, 2, ctx41)
            assert (v.verdict is Verdict.RESIDUE) == (v.witness == 1)

    def test_kth_power_tables_are_euler_residues(self):
        # the published k >= 3 tables list exact-order elements, which the
        # Euler criterion classifies as residues (witness 1)
        ctx48 = OddPrimeContext.for_prime(P48)
        assert kth_power_verdict(19, 7, ctx48).verdict is Verdict.RESIDUE
        ctx128 = OddPrimeContext.for_prime(P128)
        assert kth_power_verdict(29, 3, ctx128).verdict is Verdict.RESIDUE

    def test_explicit_kth_power(self):
        ctx = OddPrimeContext.for_prime(P128)
        for n in (2, 3, 123456789):
            v = kth_power_verdict(pow(n, 3, P128), 3, ctx)
            assert v.verdict is Verdict.RESIDUE

    def test_euler_least_nonresidues(self):
        ctx48 = OddPrimeContext.for_prime(P48)
        assert kth_power_verdict(7, 7, ctx48).verdict is Verdict.NONRESIDUE
        assert kth_power_verdict(2, 7, ctx48).verdict is Verdict.NONRESIDUE

    def test_domain_errors(self, ctx41):
        with pytest.raises(DomainError):
            kth_power_verdict(5, 7, ctx41)  # 7 does not divide 40
        with pytest.raises(DomainError):
            kth_power_verdict(82, 2, ctx41)  # 41 | 82

    def test_jacobi_agreement_all_p_below_2000(self):
        for p in primes_up_to(2000):
            p = int(p)
            if p < 3:
                continue
            ctx = OddPrimeContext.for_prime(p, allow_small=True)
            for n in range(1, p):
                sign = 1 if kth_power_verdict(n, 2, ctx).verdict is Verdict.RESIDUE else -1
                assert sign == jacobi(n, p)


class TestSmallFieldTable:
    def test_f41_reference_sets(self, table41):
        assert table41.tau == 6
        assert set(table41.residue_coset(2).tolist()) == Q41
        assert set(table41.nonresidues_all(2).tolist()) == N41

    def test_only_identity_is_top_power(self):
        t13 = build_small_field_table(13)
        assert set(t13.residue_coset(12).tolist()) == {1}

    def test_partition_and_cardinality(self, table1009):
        p = table1009.p
        for k in divisors(p - 1):
            rs = set(table1009.residue_coset(k).tolist())
            ns = set(table1009.nonresidues_all(k).tolist())
            assert len(rs) == (p - 1) // k
            assert rs | ns == set(range(1, p))
            assert not rs & ns

    def test_residue_cosets_are_subgroups(self, table41):
        rng = np.random.default_rng(3)
        for k in (2, 4, 5, 8):
            rs = sorted(table41.residue_coset(k).tolist())
            for _ in range(50):
                a, b = rng.choice(rs, 2)
                assert int(a) * int(b) % 41 in rs

    def test_primitive_root_order(self, table41):
        u, t = table41.tau, 1
        while u != 1:
            u = u * table41.tau % 41
            t += 1
        assert t == 40

    def test_least_primitive_root_examples(self):
        assert least_primitive_root(41) == 6
        assert least_primitive_root(1009) == 11
        assert least_primitive_root(10007) == 5

    @pytest.mark.parametrize("factors", [[10], [2, 15], [2], [5]])
    def test_least_primitive_root_rejects_a_bad_factorisation(self, factors):
        # [10] and [2, 15] once returned 2 and 3, of orders 20 and 8 mod 41
        with pytest.raises(DomainError):
            least_primitive_root(41, factors)

    @pytest.mark.parametrize("factors", [[2, 5], {2: 3, 5: 1}, [(2, 3), (5, 1)]])
    def test_least_primitive_root_accepts_a_factorisation(self, factors):
        assert least_primitive_root(41, factors) == 6

    def test_k1_has_no_nonresidue_coset(self):
        # every element is a first power, so a k = 1 table has no nonresidues
        table = build_small_field_table(11)
        assert sorted(table.residue_coset(1).tolist()) == list(range(1, 11))
        with pytest.raises(DomainError, match="no nonresidues"):
            table.nonresidue_coset(1)
        with pytest.raises(DomainError, match="no nonresidues"):
            coset_indicator(1, 1, table)

    def test_cosets(self, table41):
        assert len(table41.nonresidue_coset(2)) == 20
        assert set(table41.nonresidue_coset(2).tolist()) == N41
        assert set(table41.residue_coset(2).tolist()) == Q41
        # for k=4 the single coset is a strict subset of the nonresidues
        assert len(table41.nonresidue_coset(4)) == 10
        assert set(table41.nonresidue_coset(4).tolist()) < set(table41.nonresidues_all(4).tolist())
        assert len(table41.nonresidues_all(4)) == 30


def gauss_residual(table) -> float:
    """|E0 - E1 - g|, recomputed from the table: E0 and E1 sum R = roots[powers]
    over the even and odd exponents, g = sqrt(p) or i*sqrt(p) by p mod 4."""
    p, r = table.p, table.roots[table.powers]
    g = math.sqrt(p) if p % 4 == 1 else 1j * math.sqrt(p)
    return abs(r[0::2].sum() - r[1::2].sum() - g)


class TestGaussSumCheck:
    def test_residual_below_5000_and_at_the_table_limit(self):
        ps = primes_up_to(4999)[1:].tolist() + [99991, 999983]
        worst = max(gauss_residual(build_small_field_table(p)) for p in ps)
        assert worst <= 1e-9

    def test_conjugated_roots_raise_at_3_mod_4(self, monkeypatch):
        # at p = 1 (mod 4) g = sqrt(p) is real, so conjugated roots pass there
        roots_table = kernels.roots_table
        monkeypatch.setattr(kernels, "roots_table", lambda p: roots_table(p).conj())
        assert build_small_field_table(101).p == 101
        with pytest.raises(IntegrityError, match="Gauss sum"):
            build_small_field_table(103)

    @pytest.mark.parametrize("p", [101, 103])
    def test_a_non_generator_raises(self, monkeypatch, p):
        least = residues.least_primitive_root
        monkeypatch.setattr(residues, "least_primitive_root", lambda q, f=None: least(q, f) ** 2 % q)
        with pytest.raises(IntegrityError, match=f"table p={p} tau={least(p) ** 2 % p}"):
            build_small_field_table(p)


class TestCharFunctionOracle:
    def test_published_f41_example(self, table41):
        assert char_function_oracle(3, 2, table41, NONRESIDUE_INDICATOR) == 1

    def test_even_powers_are_not_flagged(self, table41):
        for m in (0, 1, 5, 13):
            a = int(table41.powers[(2 * m) % 40])
            assert char_function_oracle(a, 2, table41, NONRESIDUE_INDICATOR) == 0
            assert char_function_oracle(a, 2, table41, RESIDUE_INDICATOR) == 1

    @pytest.mark.parametrize("p,ks", [(13, (2, 3)), (41, (2,)), (61, (2, 3))])
    def test_oracle_matches_euler_criterion(self, p, ks):
        table = build_small_field_table(p)
        ctx = OddPrimeContext.for_prime(p, allow_small=True)
        for k in ks:
            for a in range(1, p):
                want = kth_power_verdict(a, k, ctx).verdict
                nonres = char_function_oracle(a, k, table, NONRESIDUE_INDICATOR)
                res = char_function_oracle(a, k, table, RESIDUE_INDICATOR)
                assert nonres == (1 if want is Verdict.NONRESIDUE else 0)
                assert res == 1 - nonres

    def test_batch_matches_single(self, table41):
        for k in (2, 4):
            for which in (RESIDUE_INDICATOR, NONRESIDUE_INDICATOR):
                values, worst = char_function_values(k, table41, which)
                assert worst < 1e-6
                for a in (1, 3, 17, 40):
                    assert values[a - 1] == char_function_oracle(a, k, table41, which)

    def test_coset_indicator_structure(self, table41):
        # cardinality (p-1)/k and containment in the nonresidues, per k
        for k in (2, 4, 5):
            hits = [a for a in range(1, 41) if coset_indicator(a, k, table41) == 1]
            assert len(hits) == 40 // k
            assert set(hits) <= set(table41.nonresidues_all(k).tolist())
        # for k = 2 the coset is every nonresidue
        hits2 = {a for a in range(1, 41) if coset_indicator(a, 2, table41) == 1}
        assert hits2 == N41

    def test_oracle_memory_is_bounded_by_the_block(self):
        # 101 coset members x 99991 terms each: the whole index grid would be
        # ~10^7 entries, but only one block of about 2**18 is ever held
        p, k = 99991, 990
        table = build_small_field_table(p)
        residue, nonresidue = int(table.powers[k]), table.tau
        tracemalloc.start()
        try:
            hits = [char_function_oracle(a, k, table, RESIDUE_INDICATOR) for a in (residue, nonresidue)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert hits == [1, 0]
        assert peak < 16 * 2**20

    def test_zero_rejected(self, table41):
        with pytest.raises(DomainError):
            char_function_oracle(41, 2, table41, NONRESIDUE_INDICATOR)

    def test_integrity_guard(self):
        with pytest.raises(IntegrityError):
            _round_indicator(0.5 + 0j, "synthetic")
        with pytest.raises(IntegrityError):
            _round_indicator(2.0 + 0j, "synthetic")
