"""Consecutive residue/nonresidue patterns, twin-prime pairs and gap
statistics over [1, p-1] for a small prime p.

Gap convention: a "pair start" is an r with r and r+1 both in the chosen
class; the gap between two events at r and r+d is d-1 (d >= 2).  Runs of
three or more same-class elements create overlapping starts, so statistics
are reported under two readings: maximal runs collapsed to single events
(primary), and raw starts with the d = 1 differences dropped.

The census holds the residue and prime masks of [0, p), one byte per entry,
and walks them in windows of _BLOCK pair starts; every count, histogram and
running maximum is carried from window to window.  Its working memory is
about 2 bytes per unit of p (the two masks) plus a fixed few MiB, among
them the one sieve segment the prime mask is filled from at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bigmod import euler_flags, is_prime, prime_mask, prime_powers_up_to, primes_up_to
from .errors import DomainError, ResourceError
from .residues import Verdict

_CENSUS_LIMIT = 10**7
_BLOCK = 1 << 16  # entries per window of the blocked census passes

PAIR_KEYS = ("RR", "RN", "NR", "NN")
REFINED_KEYS = ("RpRp", "RpRc", "RcRp", "RcRc", "NpNp", "NpNc", "NcNp", "NcNc")


@dataclass(frozen=True)
class GapStats:
    """Gap statistics for one class; absent=True when fewer than two events
    exist (statistics are then NaN/empty, reported rather than raised)."""

    which: Verdict
    starts: int
    events: int
    mean_gap: float
    max_gap: int
    histogram: dict[int, int]
    raw_mean_gap: float
    raw_max_gap: int
    raw_histogram: dict[int, int]
    ks_uniform: float
    absent: bool


@dataclass(frozen=True)
class PatternCensus:
    p: int
    pair_counts: dict[str, int]
    refined_counts: dict[str, int]
    twin_qualifying: int
    twin_total: int
    gap_residue: GapStats
    gap_nonresidue: GapStats


@dataclass(frozen=True)
class WeightedPatternSum:
    """Both evaluation forms of the weighted consecutive-nonresidue sum;
    they are algebraically identical and must agree to 1e-9."""

    p: int
    x: int
    quarter_product_form: float
    indicator_form: float
    skipped: int


@dataclass(frozen=True)
class TwinDensity:
    count: int
    total: int
    fraction: float | None


def _residue_mask(p: int) -> np.ndarray:
    """mask[n] = n is a nonzero quadratic residue mod p, for n in [0, p).

    The residues are the squares r**2 for r in 1..(p-1)/2, each hit once;
    they are made _BLOCK values of r at a time."""
    mask = np.zeros(p, dtype=bool)
    half = (p - 1) // 2
    for lo in range(1, half + 1, _BLOCK):
        sq = np.arange(lo, min(lo + _BLOCK, half + 1), dtype=np.int64)
        sq *= sq
        sq -= sq // p * p  # faster than % by the scalar p
        mask[sq] = True
    return mask


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def _check_window(p: int, x: int) -> None:
    """Validate a cutoff 2 <= x <= p, and bound its work before anything is
    sized by x; then check that p is prime."""
    if x > p:
        raise DomainError(f"need x <= p, got x={x}, p={p}")
    if x < 2:
        raise DomainError(f"x must be >= 2, got {x}")
    if x > _CENSUS_LIMIT:
        raise ResourceError(f"census budget is x <= {_CENSUS_LIMIT}, got x={x}")
    _check_prime(p)


def _histogram_add(hist: np.ndarray, gaps: np.ndarray) -> np.ndarray:
    """hist plus the bincount of gaps, grown to the longer of the two."""
    counts = np.bincount(gaps)
    if len(counts) < len(hist):
        hist[: len(counts)] += counts
        return hist
    counts[: len(hist)] += hist
    return counts


def _histogram_stats(hist: np.ndarray):
    """(mean, max, {gap: count}) of a gap histogram; (nan, 0, {}) when empty.
    The mean is the exact integer total over the count, correctly rounded,
    which is what numpy's float mean of the same int64 gaps gives while every
    partial sum stays below 2**53."""
    sizes = np.flatnonzero(hist)
    if len(sizes) == 0:
        return math.nan, 0, {}
    counts = hist[sizes]
    total, n = int(sizes @ counts), int(counts.sum())
    return total / n, int(sizes[-1]), dict(zip(sizes.tolist(), counts.tolist()))


class _GapState:
    """Gap statistics of one class, fed its pair starts window by window in
    ascending order.  The last start and the last event carry the gaps
    across window edges.  n, the class's total number of starts, is needed
    up front by the Kolmogorov-Smirnov distance of the start positions."""

    def __init__(self, which: Verdict, n: int, p: int):
        self.which, self.n, self.p = which, n, p
        self.seen = self.events = 0
        self.last_start = self.last_event = 0
        self.hist = np.zeros(0, dtype=np.int64)
        self.raw_hist = np.zeros(0, dtype=np.int64)
        # Kolmogorov-Smirnov distance of the starts against uniform on [1, p-1]:
        # max(|F - u|, |F - 1/n - u|) over the starts, for the empirical CDF F
        # and uniform position u, taken as max(F - u) and max(u - (F - 1/n)).
        # The two other differences are never larger, as rounding is monotone.
        self.ks_above = self.ks_below = -math.inf

    def feed(self, starts: np.ndarray) -> None:
        if len(starts) == 0:
            return
        ecdf = np.arange(self.seen + 1, self.seen + len(starts) + 1, dtype=np.float64)
        ecdf /= self.n
        uniform = starts / (self.p - 1)
        self.ks_above = max(self.ks_above, float((ecdf - uniform).max()))
        ecdf -= 1 / self.n
        self.ks_below = max(self.ks_below, float(np.subtract(uniform, ecdf, out=uniform).max()))
        self.seen += len(starts)
        if self.events == 0:
            # the first start opens the first event; prepended to itself it
            # gives d = 0 below, so no gap is counted before it
            self.last_start = self.last_event = int(starts[0])
            self.events = 1
        # a start more than 1 past the one before it opens a new event
        d = np.diff(starts, prepend=self.last_start)
        opens = np.flatnonzero(d > 1)  # take() beats a boolean index here
        events = starts.take(opens)
        self.raw_hist = _histogram_add(self.raw_hist, d.take(opens) - 1)
        self.last_start = int(starts[-1])
        if len(events):
            self.hist = _histogram_add(self.hist, np.diff(events, prepend=self.last_event) - 1)
            self.last_event = int(events[-1])
            self.events += len(events)

    def stats(self) -> GapStats:
        if self.n == 0:
            return GapStats(which=self.which, starts=0, events=0, mean_gap=math.nan, max_gap=0,
                            histogram={}, raw_mean_gap=math.nan, raw_max_gap=0,
                            raw_histogram={}, ks_uniform=math.nan, absent=True)
        mean_g, max_g, hist = _histogram_stats(self.hist)
        raw_mean, raw_max, raw_hist = _histogram_stats(self.raw_hist)
        return GapStats(which=self.which, starts=self.n, events=self.events,
                        mean_gap=mean_g, max_gap=max_g, histogram=hist,
                        raw_mean_gap=raw_mean, raw_max_gap=raw_max, raw_histogram=raw_hist,
                        ks_uniform=max(self.ks_above, self.ks_below), absent=self.events < 2)


def pattern_census(p: int) -> PatternCensus:
    """Binary pair patterns over [1, p-1], prime/composite refinements of RR
    and NN, twin-nonresidue stats and gap statistics.

    The pair (n, n+1) is read from the residue and prime masks (p bytes
    each) as the slices [lo, hi) and [lo+1, hi+1) of one window of pair
    starts n, and the twin pair (n, n+2) as [lo, hi) and [lo+2, hi+2), with
    n+2 <= p-1.  Windows hold _BLOCK starts.  A first pass over them adds up
    the counts, which give each class its number of starts; a second feeds
    each class's starts to a gap state carried across window edges.  So
    working memory is the two masks plus O(_BLOCK) and one sieve segment:
    about 2 bytes per unit of p plus a few MiB."""
    if p > _CENSUS_LIMIT:
        raise ResourceError(f"census budget is p <= {_CENSUS_LIMIT}")
    if p < 5:
        raise DomainError("census needs p >= 5")
    _check_prime(p)
    rmask = _residue_mask(p)
    pmask = prime_mask(p - 1)
    windows = [(lo, min(lo + _BLOCK, p - 1)) for lo in range(1, p - 1, _BLOCK)]

    # left residues, then RR, NN, and per class pp, p., .p; then twins
    counts = [0] * 11
    for lo, hi in windows:
        left_r, right_r = rmask[lo:hi], rmask[lo + 1 : hi + 1]
        left_p, right_p = pmask[lo:hi], pmask[lo + 1 : hi + 1]
        both_p = left_p & right_p
        rr = left_r & right_r
        nn = ~(left_r | right_r)
        window = [left_r, rr, nn]
        for sel in (rr, nn):
            window += [sel & both_p, sel & left_p, sel & right_p]
        # twin pairs (n, n+2) with n+2 <= p-1, so p divides neither member
        t_hi = min(hi, p - 2)
        twins = pmask[lo:t_hi] & pmask[lo + 2 : t_hi + 2]
        window += [twins, twins & ~(rmask[lo:t_hi] | rmask[lo + 2 : t_hi + 2])]
        counts = [c + int(np.count_nonzero(w)) for c, w in zip(counts, window)]
    n_left_r, n_rr, n_nn = counts[:3]
    n_rn = n_left_r - n_rr
    pair_counts = {"RR": n_rr, "RN": n_rn, "NR": p - 2 - n_rr - n_rn - n_nn, "NN": n_nn}
    refined = {}
    for base, total, (pp, lp, rp) in (("R", n_rr, counts[3:6]), ("N", n_nn, counts[6:9])):
        refined[f"{base}p{base}p"] = pp
        refined[f"{base}p{base}c"] = lp - pp
        refined[f"{base}c{base}p"] = rp - pp
        refined[f"{base}c{base}c"] = total - lp - rp + pp
    twin_total, twin_qualifying = counts[9], counts[10]

    residue, nonresidue = _GapState(Verdict.RESIDUE, n_rr, p), _GapState(Verdict.NONRESIDUE, n_nn, p)
    for lo, hi in windows:
        left_r, right_r = rmask[lo:hi], rmask[lo + 1 : hi + 1]
        residue.feed(np.flatnonzero(left_r & right_r) + lo)
        nonresidue.feed(np.flatnonzero(~(left_r | right_r)) + lo)

    return PatternCensus(
        p=p,
        pair_counts=pair_counts,
        refined_counts=refined,
        twin_qualifying=twin_qualifying,
        twin_total=twin_total,
        gap_residue=residue.stats(),
        gap_nonresidue=nonresidue.stats(),
    )


def weighted_pattern_sum(p: int, x: int) -> WeightedPatternSum:
    """(1/4) sum (1 - (n|p)) (1 - (n+1|p)) Lambda(n) over 2 <= n <= x, and the
    same sum through the 0/1 nonresidue indicators; n with p | n(n+1) are
    skipped and counted.  Only the prime powers n <= x carry weight, and
    only they are tested."""
    _check_window(p, x)
    # as x <= p, the n with p | n(n+1) are p-1 and p, the two largest
    skipped = sum(2 <= n <= x for n in (p - 1, p))
    powers, bases = prime_powers_up_to(min(x, p - 2))
    lam = np.log(bases)
    s1 = np.where(euler_flags(powers, 2, p), 1.0, -1.0)
    s2 = np.where(euler_flags(powers + 1, 2, p), 1.0, -1.0)
    quarter = math.fsum(0.25 * (1 - s1) * (1 - s2) * lam)
    indicator = math.fsum(((s1 == -1) & (s2 == -1)) * lam)
    return WeightedPatternSum(p=p, x=x, quarter_product_form=quarter,
                              indicator_form=indicator, skipped=skipped)


def twin_nonresidue_density(p: int, x: int) -> TwinDensity:
    """Among twin-prime pairs (n, n+2) with n+2 <= x, the fraction with both
    members quadratic nonresidues mod p.  fraction is None when no twin pair
    exists below x."""
    _check_window(p, x)
    # as n+2 <= x <= p, p divides a member only when n+2 = p
    primes = primes_up_to(min(x, p - 1))
    lead = primes[:-1][np.diff(primes) == 2]
    count = int(np.count_nonzero(~euler_flags(lead, 2, p) & ~euler_flags(lead + 2, 2, p)))
    return TwinDensity(count, len(lead), count / len(lead) if len(lead) else None)
