import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import apresidues
from apresidues import expsum, kernels, residues
from apresidues.bigmod import primes_up_to
from apresidues.residues import build_small_field_table, least_primitive_root
from conftest import (
    block_hull_prefix_max_abs,
    divisors,
    gather_char_values,
    gather_halfsums,
    gather_inner_sums,
    gather_uhat,
    literal_prefix_max_abs,
    step_pow_table,
)

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


@pytest.mark.parametrize("tau,p", [(1, 2), (2, 3), (1, 3), (2, 5), (3, 7), (5, 23), (2, 29), (5, 999983)])
def test_pow_table_by_doubling_matches_the_step_loop(tau, p):
    got = kernels.pow_table(tau, p)
    assert got.dtype == np.int64
    assert np.array_equal(got, step_pow_table(tau, p))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(primes_up_to(5000).tolist()), st.integers(0, 10**6))
def test_pow_table_by_doubling_for_any_base(p, tau):
    assert np.array_equal(kernels.pow_table(tau, p), step_pow_table(tau, p))


def test_inner_complete_sums_match_literal(roots, powers):
    got = kernels.inner_complete_sums(P, powers, roots)
    want = np.array([csum(e(c * s) for s in range(P)) for c in range(P)])
    assert np.abs(got - want).max() < 1e-9


def test_inner_sums_orthogonality(roots, powers):
    inner = kernels.inner_complete_sums(P, powers, roots)
    assert abs(inner[0] - P) < 1e-9
    assert np.abs(inner[1:]).max() < 1e-8 * P


def test_char_sum_matches_literal(roots, coset):
    for a in (1, 2, 7, 100, 240):
        got = kernels.char_sum_one(a, coset, P, roots)
        want = csum(e((int(u) - a) * s) for u in coset for s in range(P)) / P
        assert abs(got - want) < 1e-10


def test_halfsums_match_literal(roots, powers, coset):
    got = kernels.halfsums(powers, P, roots)
    want = np.array([csum(e(b * int(u)) for u in coset) for b in range(P)])
    assert np.abs(got - want).max() < 1e-9


def test_incomplete_sum_matches_literal(roots, powers):
    for b, x in ((1, 20), (5, 100), (240, 240)):
        got = kernels.incomplete_sum(b, x, powers, P, roots)
        want = csum(e(b * pow(TAU, n, P)) for n in range(1, x + 1))
        assert abs(got - want) < 1e-10


def test_incomplete_sum_equals_the_stepped_power_sum(roots, powers):
    # the same terms in the same order as tau**n stepped one multiplication at a time
    for b, x in ((1, 1), (5, 100), (240, 240)):
        stepped = np.array([pow(TAU, n, P) for n in range(1, x + 1)], dtype=np.int64)
        assert kernels.incomplete_sum(b, x, powers, P, roots) == complex(roots[(b * stepped) % P].sum())


def test_prefix_max_matches_literal(roots, powers):
    got = kernels.prefix_max_abs(powers, P, roots)
    want = []
    for b in range(1, P):
        partial, best = 0j, 0.0
        for n in range(1, P):
            partial += e(b * pow(TAU, n, P))
            best = max(best, abs(partial))
        want.append(best)
    assert np.abs(got - np.array(want)).max() < 1e-9


def _kernel_rows(p: int) -> tuple[int, np.ndarray, np.ndarray]:
    tau = least_primitive_root(p)
    powers = kernels.pow_table(tau, p)
    return tau, powers, kernels.prefix_max_abs(powers, p, kernels.roots_table(p))


def _assert_rows_match(got: np.ndarray, p: int, tau: int, bs: np.ndarray):
    want = literal_prefix_max_abs(p, tau, bs)
    rel = np.abs(got[bs - 1] - want) / want
    assert rel.max() <= 1e-9, f"p={p}: b={bs[rel.argmax()]} off by {rel.max():.3g}"


@pytest.mark.parametrize("p", [2, 3, 5, 7, 13, 241, 1009, 10007])
def test_prefix_max_abs_matches_reference_for_every_b(p):
    # one block up to p = 257; 1009 and 10007 end in a short block
    tau, _, got = _kernel_rows(p)
    assert got.shape == (p - 1,)
    _assert_rows_match(got, p, tau, np.arange(1, p))


def test_prefix_max_abs_matches_reference_at_30011():
    # the whole reference table takes ~15 s here, so check the rows whose
    # index j (b = tau**j) opens or closes a block, the maximum and a sample
    p = 30011
    tau, powers, got = _kernel_rows(p)
    j = np.arange(p - 1) % kernels._HULL_BLOCK
    edges = powers[(j == 0) | (j == kernels._HULL_BLOCK - 1)]
    sample = np.random.default_rng(30011).integers(1, p, 300)
    _assert_rows_match(got, p, tau, np.unique(np.concatenate((edges, sample, [got.argmax() + 1]))))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from(primes_up_to(5000).tolist()))
def test_prefix_max_abs_matches_reference_below_5000(p):
    tau, _, got = _kernel_rows(p)
    _assert_rows_match(got, p, tau, np.arange(1, p))


def _assert_block_hull_bits(p: int):
    tau, powers, got = _kernel_rows(p)
    assert np.array_equal(got, block_hull_prefix_max_abs(powers, p, kernels.roots_table(p))), p


@pytest.mark.parametrize("p", [2, 3, 5, 7, 251, 263, 509, 521, 10007, 30011, 99991])
def test_prefix_max_abs_bitwise_equals_the_block_hull_kernel(p):
    # 251 has one short block and 263 a second block of 6 points; at 509 the
    # rows end in the first block, and at 521 they reach into the second
    _assert_block_hull_bits(p)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(primes_up_to(5000).tolist()))
def test_prefix_max_abs_bitwise_equals_the_block_hull_kernel_below_5000(p):
    _assert_block_hull_bits(p)


@pytest.mark.parametrize("p", [1009, 4999, 10007])
def test_prefix_max_abs_rows_that_scan_their_own_block(p, monkeypatch):
    # past p = 3000 the reach bound spares almost every row its own block;
    # with no bound every row scans it, and the bits stay the same
    monkeypatch.setattr(kernels, "_REACH_SLACK", 1e300)
    _assert_block_hull_bits(p)


def _assert_candidates_hold_the_hull(z: np.ndarray):
    cands = kernels._hull_candidates(z)
    blocks = [z[s : s + kernels._HULL_BLOCK] for s in range(0, len(z), kernels._HULL_BLOCK)]
    assert len(cands) == len(blocks)
    for blk, cand in zip(blocks, cands):
        assert np.isin(cand, blk).all()
        assert np.isin(kernels._hull(blk), cand).all()


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 600), st.integers(0, 2**32 - 1),
       st.sampled_from(["angles", "lattice", "line", "few points"]))
def test_hull_candidates_hold_every_vertex(n, seed, kind):
    # lattice steps, points on one line and draws from a few points give exact
    # cross products with many zero turns and repeated points
    rng = np.random.default_rng(seed)
    if kind == "angles":
        z = np.cumsum(np.exp(2j * np.pi * rng.random(n)))
    elif kind == "lattice":
        z = np.cumsum(rng.integers(-1, 2, n) + 1j * rng.integers(-1, 2, n))
    elif kind == "line":
        z = rng.integers(-20, 21, n) * complex(*rng.integers(-3, 4, 2)) + complex(*rng.integers(-9, 10, 2))
    else:
        z = rng.choice(rng.integers(-3, 4, 5) + 1j * rng.integers(-3, 4, 5), n)
    _assert_candidates_hold_the_hull(z.astype(np.complex128))


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257, 258, 512, 513, 514])
def test_hull_candidates_of_short_blocks(n):
    # a last block of 1 or 2 points, or none
    rng = np.random.default_rng(n)
    _assert_candidates_hold_the_hull(np.cumsum(np.exp(2j * np.pi * rng.random(n))))
    _assert_candidates_hold_the_hull(np.full(n, 1 + 2j))


@pytest.mark.parametrize("p", [2, 3, 5, 257, 1009])
def test_hull_candidates_of_the_partial_sum_path(p):
    # the path of prefix_max_abs, whose last block is short
    powers = kernels.pow_table(least_primitive_root(p), p)
    _assert_candidates_hold_the_hull(np.cumsum(kernels.roots_table(p)[np.roll(powers, -1)]))


def test_uhat_matches_literal(roots, coset):
    table = build_small_field_table(P)
    assert table.tau == TAU
    for a in (1, 4, 100):
        sample = expsum.fourier_U_hat(a, table)
        want = csum(e(-a * b) * csum(e(b * int(u)) for u in coset) for b in range(1, P))
        assert abs(sample.value - want) < 1e-8
        assert abs(sample.half_sum - csum(e(int(u)) for u in coset)) < 1e-10
        xs = kernels.uhat_swapped(a, coset, P, roots)
        assert abs(xs - want) < 1e-8
        assert abs(sample.value - xs) < 1e-8


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(0, 80), st.integers(0, 12), st.integers(0, 90),
       st.integers(0, 12), st.integers(0, 90))
def test_cyclic_window_matches_its_index_definition(n, start, rows, row_step, cols, col_step):
    seq = np.arange(n) * 10 + 3
    got = kernels.cyclic_window(seq, start, rows, row_step, cols, col_step)
    want = [[seq[(start + i * row_step + j * col_step) % n] for j in range(cols)] for i in range(rows)]
    assert got.shape == (rows, cols)
    assert np.array_equal(got, np.array(want, dtype=seq.dtype).reshape(rows, cols))


def test_cyclic_window_is_read_only():
    seq = np.arange(7.0)
    w = kernels.cyclic_window(seq, 3, 5, 2, 6, 1)
    assert not w.flags.writeable
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    assert seq.tolist() == list(np.arange(7.0))


@pytest.mark.parametrize("p", [3, 5, 7, 13, 241, 1009, 4999])
def test_window_kernels_match_the_gather_forms(p):
    table = build_small_field_table(p)
    roots, powers = table.roots, table.powers

    inner = kernels.inner_complete_sums(p, powers, roots)
    assert np.abs(inner - gather_inner_sums(p, roots)).max() < 1e-9

    s = table.half_sums
    assert np.abs(s - gather_halfsums(table.nonresidue_coset(2), p, roots)).max() < 1e-9

    a_vals, mags = expsum.uhat_all_residues(table)
    want = gather_uhat(a_vals, s, roots, p)
    assert np.abs(mags - np.abs(want)).max() < 1e-9
    for a in a_vals[:: max(1, len(a_vals) // 20)].tolist():  # fourier_U_hat, one row at a time
        assert abs(expsum.fourier_U_hat(a, table).value - want[np.searchsorted(a_vals, a)]) < 1e-9

    for k in [d for d in divisors(p - 1) if d <= 12]:
        for which in (residues.RESIDUE_INDICATOR, residues.NONRESIDUE_INDICATOR):
            members = residues._oracle_enumeration(k, table, which)
            got = kernels.difference_sums(inner, members, p) / p
            ref = gather_char_values(inner, members, p)
            assert np.abs(got - ref).max() < 1e-9, (k, which)
            rounded, worst = residues.char_function_values(k, table, which)
            assert np.array_equal(rounded, np.round(ref.real).astype(np.int64)), (k, which)
            # the table's kept inner sums give what a fresh table's first pass gives
            fresh, fresh_worst = residues.char_function_values(k, build_small_field_table(p), which)
            assert _bits(rounded) == _bits(fresh) and _bits(worst) == _bits(fresh_worst), (k, which)


@pytest.mark.parametrize("p", [3, 5, 7, 13, 241, 1009, 4999, 9973])
def test_uhat_all_residues_matches_every_window_row(p):
    # both residues of p mod 4: the half sums are real at p = 1 (mod 4) and
    # complex at p = 3 (mod 4), where the Gauss sum is sqrt(p) and i*sqrt(p)
    table = build_small_field_table(p)
    roots, powers = table.roots, table.powers
    s = table.half_sums
    a_vals, mags = expsum.uhat_all_residues(table)
    assert np.array_equal(a_vals, np.sort(table.residue_coset(2)))

    rows = kernels.uhat_rows(s, 0, (p - 1) // 2, powers, p, roots)  # a = tau**(2n), n ascending
    rows = rows[np.argsort(table.residue_coset(2))]
    assert np.abs(rows - gather_uhat(a_vals, s, roots, p)).max() < 1e-9
    assert np.abs(mags - np.abs(rows)).max() < 1e-9


def test_uhat_past_the_literal_cap_at_99991():
    p = 99991  # above _UHAT_LIMIT, which the literal double sums keep
    table = build_small_field_table(p)
    with pytest.raises(apresidues.ResourceError):
        expsum.fourier_U_hat(1, table)
    a_vals, mags = expsum.uhat_all_residues(table)
    squares = np.unique(np.arange(1, p, dtype=np.int64) ** 2 % p)
    assert np.array_equal(a_vals, squares)
    # u runs over the nonresidues, so u != a and each inner sum over b != 0 is -1
    assert np.allclose(mags, (p - 1) / 2, rtol=1e-9, atol=0)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_window_kernels_stay_under_4_mib_at_9973():
    # an index grid, or a window numpy materialised, would take p**2 entries:
    # about 1.5 GiB of complex terms at this p; each indicator runs on a fresh
    # table, so the inner-sum pass it makes on first use is measured too
    for which in (residues.RESIDUE_INDICATOR, residues.NONRESIDUE_INDICATOR):
        table = build_small_field_table(9973)
        assert _traced_peak(lambda: residues.char_function_values(2, table, which)) < 4 * 2**20
    assert _traced_peak(lambda: expsum.uhat_all_residues(table)) < 4 * 2**20


def _counting(monkeypatch, name: str) -> list:
    """Patch kernels.<name> with a spy; the list it returns grows by one per call."""
    calls, original = [], getattr(kernels, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, name, spy)
    return calls


def test_one_inner_pass_per_table_for_every_k_and_indicator(monkeypatch):
    calls = _counting(monkeypatch, "inner_complete_sums")
    table = build_small_field_table(1009)
    for k in divisors(1008):
        for which in (residues.RESIDUE_INDICATOR, residues.NONRESIDUE_INDICATOR):
            residues.char_function_values(k, table, which)
    assert len(calls) == 1
    residues.char_function_values(2, build_small_field_table(1009), residues.RESIDUE_INDICATOR)
    assert len(calls) == 2  # a new table makes its own pass


def test_one_half_sum_pass_per_table_for_every_residue(monkeypatch):
    calls = _counting(monkeypatch, "halfsums")
    table = build_small_field_table(101)
    samples = [expsum.fourier_U_hat(a, table) for a in table.residue_coset(2).tolist()]
    assert len(calls) == 1 and len(samples) == 50
    assert all(abs(u.value + 50) < 1e-9 for u in samples)


@pytest.mark.parametrize("name,member,p", [("inner_complete_sums", "inner_sums", 100003),
                                           ("halfsums", "half_sums", 10007)])
def test_a_member_past_its_limit_refuses_before_its_pass(monkeypatch, name, member, p):
    calls = _counting(monkeypatch, name)
    table = build_small_field_table(p)
    with pytest.raises(apresidues.ResourceError, match="limited to p <="):
        getattr(table, member)
    assert calls == []


@pytest.mark.parametrize("k,which", [(5, residues.RESIDUE_INDICATOR), (7, residues.NONRESIDUE_INDICATOR),
                                     (2, "bogus")])
def test_char_values_check_k_and_the_indicator_before_the_inner_pass(monkeypatch, k, which):
    # 5 and 7 do not divide 1012 = 2**2 * 11 * 23
    calls = _counting(monkeypatch, "inner_complete_sums")
    with pytest.raises(apresidues.DomainError):
        residues.char_function_values(k, build_small_field_table(1013), which)
    assert calls == []


def test_index_blocks_cover_the_grid_in_row_order(monkeypatch):
    r, s = np.arange(10, dtype=np.int64), np.arange(3, 7, dtype=np.int64)
    for block, rows in ((1, 1), (8, 2), (12, 3), (10**6, 10)):
        monkeypatch.setattr(kernels, "_BLOCK", block)
        blocks = list(kernels.index_blocks(r, s, np.multiply, 11))
        assert [i for i, _ in blocks] == list(range(0, 10, rows))
        assert np.array_equal(np.vstack([idx for _, idx in blocks]), (r[:, None] * s[None, :]) % 11)
    assert kernels.row_sums(np.ones(11), r, s[:0], np.add, 11).tolist() == [0.0] * 10


def _bits(x) -> bytes:
    return np.ascontiguousarray(x).tobytes()


def _field_outputs(p: int) -> list:
    """Every output of the field kernels at p, as bytes or exact values; the
    fiber censuses ride along, though they read no index grid at all."""
    table = build_small_field_table(p)
    out = [_bits(kernels.inner_complete_sums(p, table.powers, table.roots)),
           _bits(kernels.halfsums(table.powers, p, table.roots)),
           _bits(expsum.uhat_all_residues(table)[1])]
    for k, which in ((2, residues.RESIDUE_INDICATOR), (3, residues.NONRESIDUE_INDICATOR)):
        values, worst = residues.char_function_values(k, table, which)
        out += [_bits(values), _bits(worst)]
    for k in (2, 3):
        out += list(expsum.fiber_histograms(p // 4, k, table))
    return out


@pytest.mark.parametrize("p", [241, 1009])
@pytest.mark.parametrize("block", [7, 3000])
def test_block_size_does_not_change_a_bit(monkeypatch, p, block):
    # 7 entries is one row per block; 3000 splits rows unevenly over blocks
    want = _field_outputs(p)
    monkeypatch.setattr(kernels, "_BLOCK", block)
    got = _field_outputs(p)
    assert len(got) == len(want)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"output {i} differs at p={p} with _BLOCK={block}"


def test_backend_is_numpy():
    assert kernels.kernel_backend() == "numpy"
    assert apresidues.kernel_backend() == "numpy"
