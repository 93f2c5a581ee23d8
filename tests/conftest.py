import math

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from apresidues import kernels
from apresidues.bigmod import OddPrimeContext, factorize, next_prime
from apresidues.expsum import FiberHistogram
from apresidues.patterns import GapStats, PatternCensus
from apresidues.residues import Verdict, build_small_field_table

P24 = 10**24 + 7
P128 = 2**128 + 51
P48 = 10**48 + 217

# verified in tests/test_scenarios.py: products multiply back to p-1 and every
# factor passes the primality test
P24_FACTORS = {2: 1, 7: 1, 29: 1, 2463054187192118226601: 1}
P128_FACTORS = {2: 1, 3: 5, 17: 1, 89: 1, 6481: 1, 5816689: 1,
                12275703273579557140363: 1}
P48_FACTORS = {2: 3, 7: 1, 139449433: 1, 35855291: 1,
               3571428571428569285714285714287: 1}


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for q, e in factorize(n).items():
        ds = [d * q**i for d in ds for i in range(e + 1)]
    return sorted(ds)


def reference_sweep_primes(lo: int, hi: int, count: int) -> list[int]:
    """Reference for the least_nonresidue sweep's prime picker: from each of
    count evenly spaced candidates, the first prime past it that is not yet
    picked, walking through every picked prime in its way."""
    out = []
    seen = set()
    for i in range(count):
        p = next_prime(lo + i * (hi - lo) // count)
        while p in seen:
            p = next_prime(p)
        if p > hi:
            break
        seen.add(p)
        out.append(p)
    return sorted(out)


def naive_is_prime(n: int) -> bool:
    if n < 2:
        return False
    for d in range(2, math.isqrt(n) + 1):
        if n % d == 0:
            return False
    return True


def naive_von_mangoldt(n: int) -> float:
    """Independent oracle: log q when trial factorization finds a single
    prime base, else 0."""
    if n < 2:
        return 0.0
    base = None
    m = n
    for d in range(2, math.isqrt(n) + 1):
        if m % d == 0:
            base = d
            while m % d == 0:
                m //= d
            break
    if base is None:
        return math.log(n)  # n itself prime
    return math.log(base) if m == 1 else 0.0


def euler_sign(n: int, p: int) -> int:
    """Quadratic symbol by one modular exponentiation (independent of jacobi)."""
    w = pow(n % p, (p - 1) // 2, p)
    return 1 if w == 1 else -1


def literal_prefix_max_abs(p: int, tau: int, bs) -> np.ndarray:
    """Reference for kernels.prefix_max_abs, row by row: for each b in bs, the
    max over x in [1, p-1] of |sum_{n<=x} e(b * tau**n / p)|, from one cumsum
    over the row's own terms.  O(p) per row, so O(p**2) for a whole table."""
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    tau_n = np.array([pow(tau, n, p) for n in range(1, p)], dtype=np.int64)
    bs = np.asarray(bs, dtype=np.int64)
    out = np.empty(len(bs))
    for i in range(0, len(bs), 16):
        b = bs[i : i + 16, None]
        out[i : i + 16] = np.abs(np.cumsum(roots[(b * tau_n) % p], axis=1)).max(axis=1)
    return out


def block_hull_prefix_max_abs(powers: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """Reference for kernels.prefix_max_abs: the block-hull kernel it replaces.
    Each row scans its whole 256-point block of the path point by point and
    reads the blocks after and before it through the cumulative _hull of the
    blocks' full point sets; rows p-b copy rows b."""
    block = 256
    n, half = p - 1, (p - 1) // 2
    rows = p // 2
    path = np.cumsum(roots[np.roll(powers, -1)])  # path[i] = P[i+1]
    c = path[-1]
    start = np.concatenate(([0j], path[: rows - 1]))  # P[j] for each row j
    blocks = [path[s : s + block] for s in range(0, n, block)]
    hulls = [kernels._hull(blk) for blk in blocks]
    empty = np.empty(0, dtype=np.complex128)
    after = [empty] * (len(blocks) + 1)  # after[k]: hull of blocks k, k+1, ...
    for k in range(len(blocks) - 1, 0, -1):
        after[k] = kernels._hull(np.concatenate((hulls[k], after[k + 1])))
    before = empty
    best = np.empty(rows)
    for k in range(-(-rows // block)):
        if k:
            before = kernels._hull(np.concatenate((before, hulls[k - 1])))
        j0, j1 = k * block, min((k + 1) * block, rows)
        blk, a = blocks[k], start[j0:j1, None]
        own = sliding_window_view(np.concatenate((blk, blk + c)), len(blk))[: j1 - j0]
        far = np.concatenate((after[k + 1], before + c))
        best[j0:j1] = np.maximum(np.abs(own - a).max(axis=1), np.abs(far - a).max(axis=1, initial=0.0))
    out = np.empty(n, dtype=np.float64)
    out[powers[:rows] - 1] = best
    out[powers[half : half + rows] - 1] = best
    return out


def step_pow_table(tau: int, p: int) -> np.ndarray:
    """Reference for kernels.pow_table: tau**j mod p for j in [0, p-1), one
    multiplication per step."""
    out = np.empty(p - 1, dtype=np.int64)
    u = 1
    for j in range(p - 1):
        out[j] = u
        u = u * tau % p
    return out


def loop_sieve(limit: int) -> np.ndarray:
    """Reference for bigmod's sieve: mask[n] = n is prime for n in [0, limit],
    striking the multiples of every prime q <= sqrt(limit), even ones included."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, math.isqrt(limit) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return mask


# Reference for patterns.pattern_census: the whole-array census it replaces,
# with every pair start, gap and KS term held at once.

def _reference_gap_stats(starts: np.ndarray, p: int, which: Verdict) -> GapStats:
    n_starts = len(starts)
    if n_starts == 0:
        return GapStats(which=which, starts=0, events=0, mean_gap=math.nan, max_gap=0,
                        histogram={}, raw_mean_gap=math.nan, raw_max_gap=0,
                        raw_histogram={}, ks_uniform=math.nan, absent=True)
    keep = np.ones(n_starts, dtype=bool)
    keep[1:] = np.diff(starts) > 1
    events = starts[keep]

    def summarize(xs: np.ndarray):
        d = np.diff(xs)
        gaps = d[d >= 2] - 1
        if len(gaps) == 0:
            return math.nan, 0, {}
        sizes, counts = np.unique(gaps, return_counts=True)
        return float(gaps.mean()), int(gaps.max()), {int(s): int(c) for s, c in zip(sizes, counts)}

    mean_g, max_g, hist = summarize(events)
    raw_mean, raw_max, raw_hist = summarize(starts)
    ecdf = np.arange(1, n_starts + 1) / n_starts
    uniform = starts / (p - 1)
    ks = float(np.max(np.maximum(np.abs(ecdf - uniform), np.abs(ecdf - 1 / n_starts - uniform))))
    return GapStats(which=which, starts=n_starts, events=len(events),
                    mean_gap=mean_g, max_gap=max_g, histogram=hist,
                    raw_mean_gap=raw_mean, raw_max_gap=raw_max, raw_histogram=raw_hist,
                    ks_uniform=ks, absent=len(events) < 2)


def reference_pattern_census(p: int) -> PatternCensus:
    r = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    rmask = np.zeros(p, dtype=bool)
    rmask[r * r % p] = True
    pmask = loop_sieve(p - 1)
    left_r, right_r = rmask[1 : p - 1], rmask[2:p]
    left_p, right_p = pmask[1 : p - 1], pmask[2:p]
    rr = left_r & right_r
    nn = ~(left_r | right_r)
    n_rr, n_nn = int(np.count_nonzero(rr)), int(np.count_nonzero(nn))
    n_rn = int(np.count_nonzero(left_r)) - n_rr
    refined = {}
    for base, sel, total in (("R", rr, n_rr), ("N", nn, n_nn)):
        pp = int(np.count_nonzero(sel & left_p & right_p))
        pc = int(np.count_nonzero(sel & left_p)) - pp
        cp = int(np.count_nonzero(sel & right_p)) - pp
        refined.update({f"{base}p{base}p": pp, f"{base}p{base}c": pc,
                        f"{base}c{base}p": cp, f"{base}c{base}c": total - pp - pc - cp})
    twins = pmask[1 : p - 2] & pmask[3:p]
    return PatternCensus(
        p=p,
        pair_counts={"RR": n_rr, "RN": n_rn, "NR": p - 2 - n_rr - n_rn - n_nn, "NN": n_nn},
        refined_counts=refined,
        twin_qualifying=int(np.count_nonzero(twins & ~(rmask[1 : p - 2] | rmask[3:p]))),
        twin_total=int(np.count_nonzero(twins)),
        gap_residue=_reference_gap_stats(np.flatnonzero(rr) + 1, p, Verdict.RESIDUE),
        gap_nonresidue=_reference_gap_stats(np.flatnonzero(nn) + 1, p, Verdict.NONRESIDUE),
    )

# References for the exponent-window kernels: the gather forms they replace,
# each reading table[op(r, s) % p] over an index grid through kernels.row_sums.

def gather_inner_sums(p: int, roots: np.ndarray) -> np.ndarray:
    """inner[c] = sum_{s=0}^{p-1} roots[(c*s) % p] for every c in [0, p)."""
    s = np.arange(p, dtype=np.int64)
    return kernels.row_sums(roots, s, s, np.multiply, p)


def gather_halfsums(coset: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """S[b] = sum_{u in coset} roots[(b*u) % p] for every b in [0, p)."""
    return kernels.row_sums(roots, np.arange(p, dtype=np.int64), coset.astype(np.int64), np.multiply, p)


def gather_char_values(inner: np.ndarray, members: np.ndarray, p: int) -> np.ndarray:
    """(1/p) * sum_{u in members} inner[(u - a) % p] for every a in [1, p)."""
    a = np.arange(1, p, dtype=np.int64)
    return kernels.row_sums(inner, p - a, members.astype(np.int64), np.add, p) / p


def gather_uhat(a_vals, s: np.ndarray, roots: np.ndarray, p: int) -> np.ndarray:
    """U-hat(a) = sum_{b=1}^{p-1} roots[(-a*b) % p] * s[b], one a at a time."""
    b = np.arange(1, p, dtype=np.int64)
    out = np.empty(len(a_vals), dtype=np.complex128)
    for i, a in enumerate(a_vals):
        out[i] = (roots[(-int(a) * b) % p] * s[1:]).sum()
    return out


# Reference for expsum.fiber_histograms: the per-point census it replaces,
# one bincount of op(r, s) % p over every domain point, a block at a time.

def gather_fiber_counts(rows: np.ndarray, cols: np.ndarray, op, p: int) -> np.ndarray:
    """counts[t] = #{(r, c) : op(r, c) % p == t}, added up over the blocks of
    kernels.index_blocks."""
    counts = np.zeros(p, dtype=np.int64)
    for _, targets in kernels.index_blocks(rows, cols, op, p):
        counts += np.bincount(targets.ravel(), minlength=p)
    return counts


def _gather_histogram(name: str, rows: np.ndarray, cols: np.ndarray, op, p: int, x: int) -> FiberHistogram:
    counts = gather_fiber_counts(rows, cols, op, p)
    sizes, freq = np.unique(counts[1:][counts[1:] > 0], return_counts=True)
    return FiberHistogram(p=p, x=x, map_name=name, histogram=dict(zip(sizes.tolist(), freq.tolist())),
                          zero_hits=int(counts[0]), domain_size=len(rows) * len(cols),
                          max_fiber=int(sizes.max()) if len(sizes) else 0)


def gather_alpha(x: int, k: int, table) -> FiberHistogram:
    """Census of alpha(m, n) = tau**(k*m+1) - n over the coset and n in [2, x]."""
    return _gather_histogram("alpha", table.nonresidue_coset(k), np.arange(2, x + 1, dtype=np.int64), np.subtract, table.p, x)


def gather_beta(x: int, table) -> FiberHistogram:
    """Census of beta(u, v) = u*v over u in [1, x] and v in [1, p-1]."""
    u, v = np.arange(1, x + 1, dtype=np.int64), np.arange(1, table.p, dtype=np.int64)
    return _gather_histogram("beta", u, v, np.multiply, table.p, x)


@pytest.fixture(scope="session")
def table41():
    return build_small_field_table(41)


@pytest.fixture(scope="session")
def table101():
    return build_small_field_table(101)


@pytest.fixture(scope="session")
def table1009():
    return build_small_field_table(1009)


@pytest.fixture(scope="session")
def ctx24():
    return OddPrimeContext.for_prime(P24)


@pytest.fixture(scope="session")
def ctx41():
    return OddPrimeContext.for_prime(41, allow_small=False)
