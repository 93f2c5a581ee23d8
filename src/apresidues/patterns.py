"""Consecutive residue/nonresidue patterns, twin-prime pairs and gap
statistics over [1, p-1] for a small prime p.

Gap convention: a "pair start" is an r with r and r+1 both in the chosen
class; the gap between two events at r and r+d is d-1 (d >= 2).  Runs of
three or more same-class elements create overlapping starts, so statistics
are reported under two readings: maximal runs collapsed to single events
(primary), and raw starts with the d = 1 differences dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bigmod import euler_flags, is_prime, prime_mask, prime_powers_up_to, primes_up_to
from .errors import DomainError, ResourceError
from .residues import Verdict

_CENSUS_LIMIT = 10**7

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

    The residues are the squares r**2 for r in 1..(p-1)/2, each hit once."""
    r = np.arange(1, (p - 1) // 2 + 1, dtype=np.int64)
    r *= r
    r %= p
    mask = np.zeros(p, dtype=bool)
    mask[r] = True
    return mask


def _check_prime(p: int) -> None:
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")


def _check_window(p: int, x: int) -> None:
    """Validate a cutoff x <= p, and bound its work before anything is sized
    by x; then check that p is prime."""
    if x > p:
        raise DomainError(f"need x <= p, got x={x}, p={p}")
    if x > _CENSUS_LIMIT:
        raise ResourceError(f"census budget is x <= {_CENSUS_LIMIT}, got x={x}")
    _check_prime(p)


def _gap_stats_from_starts(starts: np.ndarray, p: int, which: Verdict) -> GapStats:
    n_starts = len(starts)
    if n_starts == 0:
        return GapStats(which=which, starts=0, events=0, mean_gap=math.nan, max_gap=0,
                        histogram={}, raw_mean_gap=math.nan, raw_max_gap=0,
                        raw_histogram={}, ks_uniform=math.nan, absent=True)

    # collapse maximal runs of consecutive starts to single events
    keep = np.ones(n_starts, dtype=bool)
    keep[1:] = np.diff(starts) > 1
    events = starts[keep]

    def summarize(xs: np.ndarray):
        d = np.diff(xs)
        gaps = d[d >= 2] - 1
        if len(gaps) == 0:
            return math.nan, 0, {}
        sizes, counts = np.unique(gaps, return_counts=True)
        hist = {int(s): int(c) for s, c in zip(sizes, counts)}
        return float(gaps.mean()), int(gaps.max()), hist

    mean_g, max_g, hist = summarize(events)
    raw_mean, raw_max, raw_hist = summarize(starts)

    # Kolmogorov-Smirnov distance of start positions against uniform on [1, p-1]
    ecdf = np.arange(1, n_starts + 1) / n_starts
    uniform = starts / (p - 1)
    ks = float(np.max(np.maximum(np.abs(ecdf - uniform), np.abs(ecdf - 1 / n_starts - uniform))))

    absent = len(events) < 2
    return GapStats(which=which, starts=n_starts, events=len(events),
                    mean_gap=mean_g, max_gap=max_g, histogram=hist,
                    raw_mean_gap=raw_mean, raw_max_gap=raw_max, raw_histogram=raw_hist,
                    ks_uniform=ks, absent=absent)


def pattern_census(p: int) -> PatternCensus:
    """Single pass over [1, p-1]: binary pair patterns, prime/composite
    refinements of RR and NN, twin-nonresidue stats and gap statistics.

    Every pair (n, n+1) is read from the masks as the slices [1, p-1) and
    [2, p), and every twin pair (n, n+2) as [1, p-3) and [3, p)."""
    if p > _CENSUS_LIMIT:
        raise ResourceError(f"census budget is p <= {_CENSUS_LIMIT}")
    if p < 5:
        raise DomainError("census needs p >= 5")
    _check_prime(p)
    rmask = _residue_mask(p)
    pmask = prime_mask(p - 1)

    left_r, right_r = rmask[1 : p - 1], rmask[2:p]
    left_p, right_p = pmask[1 : p - 1], pmask[2:p]
    rr = left_r & right_r
    nn = ~(left_r | right_r)
    n_rr, n_nn = int(np.count_nonzero(rr)), int(np.count_nonzero(nn))
    n_rn = int(np.count_nonzero(left_r)) - n_rr
    pair_counts = {"RR": n_rr, "RN": n_rn, "NR": p - 2 - n_rr - n_rn - n_nn, "NN": n_nn}

    refined = {}
    for base, sel, total in (("R", rr, n_rr), ("N", nn, n_nn)):
        pp = int(np.count_nonzero(sel & left_p & right_p))
        pc = int(np.count_nonzero(sel & left_p)) - pp
        cp = int(np.count_nonzero(sel & right_p)) - pp
        refined[f"{base}p{base}p"] = pp
        refined[f"{base}p{base}c"] = pc
        refined[f"{base}c{base}p"] = cp
        refined[f"{base}c{base}c"] = total - pp - pc - cp

    # twin pairs (n, n+2) with n+2 <= p-1, so p divides neither member
    twins = pmask[1 : p - 2] & pmask[3:p]
    twin_total = int(np.count_nonzero(twins))
    twin_qualifying = int(np.count_nonzero(twins & ~(rmask[1 : p - 2] | rmask[3:p])))

    return PatternCensus(
        p=p,
        pair_counts=pair_counts,
        refined_counts=refined,
        twin_qualifying=twin_qualifying,
        twin_total=twin_total,
        gap_residue=_gap_stats_from_starts(np.flatnonzero(rr) + 1, p, Verdict.RESIDUE),
        gap_nonresidue=_gap_stats_from_starts(np.flatnonzero(nn) + 1, p, Verdict.NONRESIDUE),
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
