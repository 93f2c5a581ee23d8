"""Least prime residues/nonresidues in arithmetic progressions, weighted
counting functions with main-term predictions, and density sweeps.

Search targets:

* RESIDUE / NONRESIDUE -- the Euler-criterion dichotomy n**((p-1)/k) == 1,
  consistent with the residues module everywhere.
* GENERATOR -- primes whose multiplicative order mod p is exactly (p-1)/k,
  i.e. generators of the index-k subgroup.  These are the elements the
  published numerical tables for k >= 3 actually list (under an inverted
  "nonresidue" label); the target needs the full factorisation of p-1.

Default epsilon is 0 so the bound x reproduces the published example values;
searches and counts take it as an argument, density sweeps always use 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bigmod import (
    OddPrimeContext,
    ResidueClass,
    _prime_segments,
    euler_flags,
    euler_totient,
    has_exact_order,
    prime_powers_up_to,
    primes_up_to,
)
from .errors import DomainError, ResourceError

_SCAN_CAP = 10**8
_COUNT_CAP = 10**8
_FIRST_BLOCK = 128


class Target(enum.Enum):
    RESIDUE = "residue"
    NONRESIDUE = "nonresidue"
    GENERATOR = "generator"


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a least-prime search.  found_n is None when nothing
    qualified up to scan_limit, so a truncated scan can never masquerade
    as a bound violation."""

    target: Target
    k: int
    cls: ResidueClass
    found_n: int | None
    bound_x: float
    within_bound: bool
    scan_limit: int


@dataclass(frozen=True)
class CountReport:
    """main_term is x/(k*phi(q)) for the residue and generator targets and
    (k-1)*x/(k*phi(q)) for the nonresidue target, which counts the k-1
    cosets of the kth powers other than their own."""

    k: int
    cls: ResidueClass
    x: float
    target: Target
    weighted_count: float
    unweighted_count: int
    main_term: float
    error_term: float
    density_estimate: float
    progression_prime_count: int
    skipped_multiples_of_p: int


@dataclass(frozen=True)
class DensitySample:
    """observed_fraction = (primes <= x in the class with the target verdict)
    / (all primes <= x, p excluded), so correction_estimate = fraction * k *
    phi(q) estimates the correction factor in density = c / (k * phi(q)) for
    the residue target, and fraction * k * phi(q) / (k-1) the one in
    density = c * (k-1) / (k * phi(q)) for the nonresidue target."""

    p: int
    k: int
    cls: ResidueClass
    x: float
    observed_fraction: float
    correction_estimate: float
    qualifying: int
    total: int


@dataclass(frozen=True)
class DensitySweepResult:
    samples: list
    skipped_primes: int


def bound_x(ctx: OddPrimeContext, k: int, epsilon: float = 0.0) -> float:
    """log(p) * loglog(p)**(3+eps) for k = 2, exponent 4+eps for k >= 3."""
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise DomainError(f"epsilon must be finite and >= 0, got {epsilon}")
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    try:
        return ctx.bound_x((3 if k == 2 else 4) + epsilon)
    except OverflowError:
        raise DomainError(f"bound x overflows a float at epsilon={epsilon}") from None


def main_term_prediction(k: int, q: int, x: float) -> float:
    """x / (k * phi(q)); for k = 2 this is the x/(2*phi(q)) main term."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    return x / (k * euler_totient(q))


@dataclass(frozen=True)
class UnweightedPrediction:
    """Main term rescaled to an unweighted prime count, under the two
    conventions the published examples use; neither is canonical.

    by_loglog = main_term / loglog(p) reproduces every printed coefficient
    (222.39, 667, 822); by_logx = main_term / log(x) is the standard
    partial-summation rescaling, reported side by side.
    """

    main_term: float
    by_loglog: float
    by_logx: float


def unweighted_prediction(ctx: OddPrimeContext, k: int, q: int, epsilon: float = 0.0) -> UnweightedPrediction:
    x = bound_x(ctx, k, epsilon)
    main = main_term_prediction(k, q, x)
    return UnweightedPrediction(main_term=main, by_loglog=main / ctx.loglog_p, by_logx=main / math.log(x))


def _check_target(target: Target, k: int, ctx: OddPrimeContext, p_minus_1_factors) -> None:
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if (ctx.p - 1) % k != 0:
        raise DomainError(f"k={k} does not divide p-1")
    if target is Target.GENERATOR and p_minus_1_factors is None:
        raise DomainError("GENERATOR target needs the factorisation of p-1")


def _verdicts(ns: np.ndarray, target: Target, k: int, p: int, p_minus_1_factors, bases: np.ndarray) -> np.ndarray:
    """The one verdict: flags[i] = ns[i] has the target verdict mod p, where
    ns[i] is a power of the prime bases[i]."""
    if target is Target.GENERATOR:
        return has_exact_order(ns, p, k, p_minus_1_factors, bases)
    return euler_flags(ns, k, p, bases) == (target is Target.RESIDUE)


def _class_prime_blocks(cls: ResidueClass, p: int, limit: int):
    """Primes n <= limit in the class with p not dividing n, ascending, in
    blocks whose sieve limit doubles: a search stops at the first block that
    holds a hit, so its work grows with the answer, not with the scan cap."""
    done, hi = 0, min(_FIRST_BLOCK, limit)
    while done < limit:
        primes = primes_up_to(hi)
        block = primes[np.searchsorted(primes, done, side="right"):]
        block = block[cls.contains(block)]
        yield block[block != p] if p <= hi else block
        done, hi = hi, min(2 * hi, limit)


def first_primes_with_verdict(
    target: Target,
    k: int,
    cls: ResidueClass,
    ctx: OddPrimeContext,
    count: int,
    scan_limit: int,
    p_minus_1_factors=None,
) -> list[int]:
    """The first `count` primes n = a + q*m <= scan_limit (ascending, p not
    dividing n) with the target verdict; fewer when the scan runs out."""
    if scan_limit > _SCAN_CAP:
        raise ResourceError(f"scan cap is {_SCAN_CAP}")
    _check_target(target, k, ctx, p_minus_1_factors)
    found: list[int] = []
    for block in _class_prime_blocks(cls, ctx.p, scan_limit):
        hits = block[_verdicts(block, target, k, ctx.p, p_minus_1_factors, block)]
        found += [int(n) for n in hits[: count - len(found)]]
        if len(found) == count:
            break
    return found


def least_prime_with_verdict(
    target: Target,
    k: int,
    cls: ResidueClass,
    ctx: OddPrimeContext,
    scan_limit: int,
    epsilon: float = 0.0,
    p_minus_1_factors=None,
) -> SearchOutcome:
    """First prime n = a + q*m (ascending, p not dividing n) with the target
    verdict, or an Absent outcome carrying the scan cap."""
    first = cls.a if cls.a >= 2 else cls.a + cls.q * -(-(2 - cls.a) // cls.q)  # the least n >= 2 in the class
    if scan_limit < first:
        raise DomainError(f"scan_limit {scan_limit} below first candidate {first}")
    bx = bound_x(ctx, k, epsilon)
    found = next(iter(first_primes_with_verdict(target, k, cls, ctx, 1, scan_limit, p_minus_1_factors)), None)
    return SearchOutcome(
        target=target, k=k, cls=cls, found_n=found, bound_x=bx,
        within_bound=(found is not None and found <= bx), scan_limit=scan_limit,
    )


def weighted_count(
    target: Target,
    k: int,
    cls: ResidueClass,
    x: float,
    ctx: OddPrimeContext,
    p_minus_1_factors=None,
) -> CountReport:
    """Sum of von Mangoldt weights over qualifying n in [2, x], plus the
    unweighted prime count, main-term prediction and extracted error.

    Prime powers carry their log-p weight in the weighted sum; the
    unweighted count (and the density denominator) restrict to primes.  The
    main term of the nonresidue target covers its k-1 cosets:
    (k-1)*x/(k*phi(q)), which is x/(2*phi(q)) for k = 2.
    """
    p = ctx.p
    _check_target(target, k, ctx, p_minus_1_factors)
    if not x >= 2:  # NaN fails this too
        raise DomainError(f"x must be >= 2, got {x}")
    if x > _COUNT_CAP:
        raise ResourceError(f"count budget is {_COUNT_CAP}")

    limit = math.floor(x)
    powers, bases = prime_powers_up_to(limit)
    keep = cls.contains(powers)
    if p <= limit:
        keep &= bases != p
    powers, bases = powers[keep], bases[keep]
    is_prime = powers == bases
    hits = _verdicts(powers, target, k, p, p_minus_1_factors, bases)
    weighted = math.fsum(np.log(bases[hits]))
    unweighted = int(np.count_nonzero(hits & is_prime))
    progression_primes = int(np.count_nonzero(is_prime))
    # the multiples of p in the class form one class mod p*q, or none
    first = next((m for m in range(p, p * cls.q + 1, p) if cls.contains(m)), None)
    skipped = len(range(first, limit + 1, p * cls.q)) if first else 0
    main = main_term_prediction(k, cls.q, x) * (k - 1 if target is Target.NONRESIDUE else 1)
    density = unweighted / progression_primes if progression_primes else math.nan
    return CountReport(
        k=k, cls=cls, x=x, target=target,
        weighted_count=weighted, unweighted_count=unweighted,
        main_term=main, error_term=weighted - main,
        density_estimate=density,
        progression_prime_count=progression_primes,
        skipped_multiples_of_p=skipped,
    )


def parse_x_rule(rule: str):
    """Parse a per-prime x rule: "bound", "prime", or "fixed:<value>"."""
    rule = rule.strip().lower()
    if rule in ("bound", "prime"):
        return (rule, None)
    if rule.startswith("fixed:"):
        try:
            x = float(rule.split(":", 1)[1])
        except ValueError:
            x = math.nan
        if not math.isfinite(x):
            raise DomainError(f"x rule {rule!r} needs a finite number after 'fixed:'")
        return ("fixed", x)
    raise DomainError(f"unknown x rule {rule!r}")


def density_sweep(
    k: int,
    cls: ResidueClass,
    prime_range: tuple[int, int],
    x_rule: str = "prime",
    target: Target = Target.NONRESIDUE,
    max_primes: int | None = None,
) -> DensitySweepResult:
    """Observed fraction of progression primes up to x with the target
    verdict, for every conforming prime p in the range (k | p-1); skipped
    nonconforming primes are counted, never silently dropped.  The "bound"
    x rule takes bound_x at epsilon 0; a rule that gives x < 2 at a chosen
    prime (the bound at p <= 11) is a domain error, as the fixed rule is."""
    lo, hi = prime_range
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if hi < lo:
        raise DomainError(f"empty prime range: prime_max {hi} < prime_min {lo}")
    if target is Target.GENERATOR:
        raise DomainError("density sweeps support RESIDUE/NONRESIDUE targets only")
    if max_primes is not None and max_primes < 1:
        raise DomainError(f"max_primes must be >= 1, got {max_primes}")
    rule, fixed_x = parse_x_rule(x_rule)
    if rule == "fixed" and not fixed_x >= 2:
        raise DomainError(f"x must be >= 2, got {fixed_x:g}")
    # the walk reaches prime_max and the sieve every x, which is at most
    # prime_max or the fixed value
    if max(hi, fixed_x or 0) > _COUNT_CAP:
        raise ResourceError(f"count budget is {_COUNT_CAP}, got x up to {max(hi, fixed_x or 0):g}")
    chosen = []
    skipped = 0
    # walk the odd primes of the range one sieve segment at a time and stop
    # after the segment that holds the max_primes-th conforming prime; skipped
    # counts the nonconforming primes before that one.  min(k, hi) keeps the
    # modulus in int64: no p <= hi conforms to a k >= hi, nor to hi itself
    for seg in _prime_segments(max(lo, 3), hi):
        at = np.flatnonzero((seg - 1) % min(k, hi) == 0)
        full = max_primes is not None and len(chosen) + len(at) >= max_primes
        if full:
            at = at[: max_primes - len(chosen)]
            seg = seg[: at[-1] + 1]
        skipped += len(seg) - len(at)
        for p in seg[at].tolist():
            if rule == "prime":
                x = float(p)
            elif rule == "bound":
                x = bound_x(OddPrimeContext.for_prime(p, allow_small=True), k)
            else:
                x = fixed_x
            if not x >= 2:
                raise DomainError(f"x rule {x_rule!r} gives x = {x:.4g} < 2 at p={p}")
            chosen.append((p, x))
        if full:
            break
    # one sieve serves every p: each x takes a prefix of it
    primes = primes_up_to(math.floor(max((x for _, x in chosen), default=0)))
    in_class = primes[cls.contains(primes)]
    samples = []
    for p, x in chosen:
        limit = math.floor(x)
        total = int(np.searchsorted(primes, limit, side="right")) - (p <= limit)
        members = in_class[: np.searchsorted(in_class, limit, side="right")]
        members = members[members != p]
        qualifying = int(np.count_nonzero(_verdicts(members, target, k, p, None, members)))
        frac = qualifying / total if total else math.nan
        samples.append(
            DensitySample(
                p=p, k=k, cls=cls, x=x,
                observed_fraction=frac,
                correction_estimate=frac * k * euler_totient(cls.q) / (k - 1 if target is Target.NONRESIDUE else 1),
                qualifying=qualifying, total=total,
            )
        )
    return DensitySweepResult(samples=samples, skipped_primes=skipped)
