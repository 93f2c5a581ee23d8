"""The three closed-loop workloads: seeded inputs, requests and their checks.

A workload has `prepare(seed)`, the set-up a user pays once before asking
anything (contexts for the big primes, small-field tables);
`prepare_checks(state)`, the benchmark's own sieves for drawing inputs and
checking outputs, which run after set-up and are not part of it; and
`round_units(state, r)`, which draws round r's inputs from the seed and returns
its requests.  A unit is a list of requests that run back to back (a census and
the emission of its report); units are shuffled by the seed, so a slow phase of
the host spreads over every request kind.

Every request carries a check that recomputes its answer independently of the
code path under test.  Checks run outside the timed window.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import apresidues as A
from apresidues import apsearch, expsum, patterns, report, residues, scenarios


class Mismatch(Exception):
    """A request's output disagrees with its independent recomputation."""


def expect(ok: bool, what: str):
    if not ok:
        raise Mismatch(what)


@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    summary: Callable[[Any], Any]


def _sieve(n: int) -> np.ndarray:
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if mask[q]:
            mask[q * q :: q] = False
    return mask


def _factor(n: int) -> dict[int, int]:
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws, one in each of n equal strata of [log lo, log hi]:
    every round then has the same spread of sizes whatever the seed."""
    a, b = math.log(lo), math.log(hi)
    return [math.exp(a + (i + rng.random()) * (b - a) / n) for i in range(n)]


def _cycle_draw(key: str, r: int, n: int, rng: random.Random) -> float:
    """A draw in [0, 1) for round r.  Each cycle of n rounds takes one draw from
    each of n equal slots, so a run's medians barely depend on the seed."""
    perm = random.Random(f"{key}:{r // n}").sample(range(n), n)
    return (perm[r % n] + rng.random()) / n


def _log_between(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _pick_prime(rng: random.Random, primes: np.ndarray, lo: float, hi: float) -> int:
    pool = primes[(primes >= lo) & (primes < hi)]
    return int(pool[rng.randrange(len(pool))])


def _prime_below(primes: np.ndarray, v: float) -> int:
    return int(primes[np.searchsorted(primes, v, side="right") - 1])


def _pick_class(rng: random.Random, q: int) -> A.ResidueClass:
    if q == 1:
        return A.ResidueClass(0, 1)
    return A.ResidueClass(rng.choice([a for a in range(1, q) if math.gcd(a, q) == 1]), q)


def _euler_powers(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a**e mod p elementwise by square-and-multiply; needs p < 3e9 for int64."""
    result = np.ones_like(a)
    base = a % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


# --------------------------------------------------------------------------
# progressions: least-prime searches, weighted counts, example reproduction
# --------------------------------------------------------------------------

BIG_PRIMES = {
    10**24 + 7: {2: 1, 7: 1, 29: 1, 2463054187192118226601: 1},
    2**128 + 51: {2: 1, 3: 5, 17: 1, 89: 1, 6481: 1, 5816689: 1, 12275703273579557140363: 1},
    10**48 + 217: {2: 3, 7: 1, 139449433: 1, 35855291: 1, 3571428571428569285714285714287: 1},
}
SCAN_LIMIT = 10**6
SWEEP = (10**5, 10**6)
COUNT_X = (2 * 10**4, 10**5)
# The six counts of a round, by ascending stratum of x: (prime, q), where the
# prime is a big one (its k drawn from 3..12) or None for a sweep-sized one.
# The work of a count scales with x/q and, at a big prime, jumps between k = 2
# (Jacobi symbols) and k > 2 (modular powers); fixing the slots keeps the work
# of a round, and so a run's medians, independent of the seed.
COUNT_SLOTS = ((10**48 + 217, 6), (2**128 + 51, 5), (None, 4), (10**24 + 7, 3), (None, 2), (None, 1))
# (rows, DISCREPANCY rows) of each reproduction, all with 0 FAIL
SCENARIO_PINS = {"example-9.1": (28, 5), "example-9.2": (28, 3), "example-11.1": (121, 48),
                 "example-11.2": (45, 14), "f41": (6, 1)}


@dataclass
class Progressions:
    seed: int
    contexts: dict
    primes: np.ndarray | None = None  # every prime up to SCAN_LIMIT, for inputs and checks
    mask: np.ndarray | None = None
    # (p, k) -> verdicts of n <= COUNT_X[1] at a big prime: -1 unknown, 0/1 residue
    verdicts: dict = field(default_factory=dict)


def _prepare_progressions(seed: int) -> Progressions:
    contexts = {}
    for p, factors in BIG_PRIMES.items():
        if math.prod(f**e for f, e in factors.items()) != p - 1:
            raise ValueError(f"factorisation of p-1 for p={p} is wrong")
        contexts[p] = A.OddPrimeContext.for_prime(p)
    return Progressions(seed=seed, contexts=contexts)


def _progressions_checks(st: Progressions):
    st.mask = _sieve(SCAN_LIMIT)
    st.primes = np.flatnonzero(st.mask)


def _qualifies(n, target, k, ctx, factors) -> bool:
    if target is A.Target.GENERATOR:
        return A.multiplicative_order(n, ctx.p, factors) == (ctx.p - 1) // k
    residue = A.kth_power_verdict(n, k, ctx).verdict is A.Verdict.RESIDUE
    return residue == (target is A.Target.RESIDUE)


def _residue_flags(st: Progressions, ctx, k: int, ns: list[int]) -> np.ndarray:
    """Euler-criterion verdicts (True for a kth power residue) for a count's
    check: vectorised below 3e9, and kept across requests at the big primes,
    where one power costs tens of microseconds."""
    p, e = ctx.p, (ctx.p - 1) // k
    if p < 3 * 10**9:
        return _euler_powers(np.array(ns, dtype=np.int64), e, p) == 1
    known = st.verdicts.get((p, k))
    if known is None:
        known = st.verdicts[p, k] = np.full(COUNT_X[1] + 1, -1, dtype=np.int8)
    for n in ns:
        if known[n] < 0:
            known[n] = pow(n, e, p) == 1
    return known[ns] == 1


def _search_request(st: Progressions, rng, ctx, factors) -> Request:
    p = ctx.p
    k = rng.choice([k for k in range(2, 31) if (p - 1) % k == 0])
    target = rng.choice(list(A.Target))
    cls = _pick_class(rng, rng.randint(1, math.ceil(ctx.loglog_p**2)))

    def check(out):
        n = out.found_n
        expect(n is not None, f"nothing found below {SCAN_LIMIT}")
        expect(bool(st.mask[n]) and cls.contains(n) and n % p != 0, f"{n} is not a prime of the class")
        expect(_qualifies(n, target, k, ctx, factors), f"{n} lacks the {target.value} verdict")
        for m in st.primes[st.primes < n]:
            m = int(m)
            if cls.contains(m) and m % p != 0:
                expect(not _qualifies(m, target, k, ctx, factors), f"smaller prime {m} qualifies")

    return Request("search",
                   lambda: apsearch.least_prime_with_verdict(
                       target, k, cls, ctx, SCAN_LIMIT, p_minus_1_factors=factors),
                   check, lambda out: out.found_n)


def _count_request(st: Progressions, rng, ctx, x: float, q: int) -> Request:
    p = ctx.p
    k = rng.choice([k for k in range(2 if p not in BIG_PRIMES else 3, 13) if (p - 1) % k == 0])
    target = rng.choice([A.Target.RESIDUE, A.Target.NONRESIDUE])
    cls = _pick_class(rng, q)

    def check(out):
        # Lambda-weighted sum over prime powers in the class, rebuilt from the sieve
        limit = math.floor(x)
        primes = st.primes[st.primes <= limit]
        members = [int(n) for n in primes[primes % cls.q == cls.a % cls.q] if int(n) % p]
        want = target is A.Target.RESIDUE
        hits = _residue_flags(st, ctx, k, members) == want
        unweighted, in_class = int(hits.sum()), len(members)
        weighted = sum(math.log(n) for n, hit in zip(members, hits) if hit)
        powers = [(n, r) for r in map(int, primes[primes <= math.isqrt(limit)])
                  for n in (r**j for j in range(2, limit.bit_length())) if n <= limit
                  and cls.contains(n) and n % p]
        flags = _residue_flags(st, ctx, k, [n for n, _ in powers]) == want
        weighted += sum(math.log(r) for (_, r), hit in zip(powers, flags) if hit)
        expect(out.unweighted_count == unweighted, f"unweighted {out.unweighted_count} != {unweighted}")
        expect(out.progression_prime_count == in_class, f"class primes {out.progression_prime_count} != {in_class}")
        expect(math.isclose(out.weighted_count, weighted, rel_tol=1e-9, abs_tol=1e-9),
               f"weighted {out.weighted_count} != {weighted}")

    return Request("count", lambda: apsearch.weighted_count(target, k, cls, x, ctx),
                   check, lambda out: [round(out.weighted_count, 6), out.unweighted_count,
                                       out.progression_prime_count])


def _scenario_request(name: str) -> Request:
    rows, discrepancies = SCENARIO_PINS[name]

    def check(out):
        failed = sum(row.status == "FAIL" for row in out.rows)
        expect((len(out.rows), out.discrepancies, failed) == (rows, discrepancies, 0),
               f"{name}: {len(out.rows)} rows / {out.discrepancies} DISCREPANCY / {failed} FAIL")

    return Request("scenario", lambda: scenarios.run_scenario(name), check,
                   lambda out: [len(out.rows), out.discrepancies])


def _progressions_round(st: Progressions, r: int) -> list[list[Request]]:
    rng = random.Random(f"{st.seed}:progressions:{r}")
    sweep = []
    for _ in range(13):
        p = _pick_prime(rng, st.primes, *SWEEP)
        sweep.append((A.OddPrimeContext.for_prime(p), _factor(p - 1)))
    big = [(st.contexts[p], f) for p, f in BIG_PRIMES.items()]
    units = [_search_request(st, rng, ctx, f) for ctx, f in big + big + sweep[:10]]
    xs = _stratified(rng, *COUNT_X, len(COUNT_SLOTS))
    spare = iter(sweep[10:])
    for (p, q), x in zip(COUNT_SLOTS, xs):
        ctx = st.contexts[p] if p else next(spare)[0]
        units.append(_count_request(st, rng, ctx, x, q))
    units += [_scenario_request(name) for name in SCENARIO_PINS]
    return [[u] for u in units]


# --------------------------------------------------------------------------
# field_sums: exponential sums and fibers over small fields F_p
# --------------------------------------------------------------------------

FIELD_STRATA = ((1000, 2000), (2000, 3000), (3000, 4000), (4000, 5000))
# Field primes per stratum, evenly spread over it.  Their tables are the set-up,
# and are the same for every seed: table memory grows with the number of
# divisors of p-1, which a seeded choice of primes would make vary from run to
# run.  The seed orders the primes over the rounds and draws every parameter.
# A run has at least FIELD_PER_STRATUM rounds, so it visits every prime.
FIELD_PER_STRATUM = 12


@dataclass
class FieldSums:
    seed: int
    strata: list  # the field primes of each stratum
    tables: dict


def _prepare_field_sums(seed: int) -> FieldSums:
    # a sieve to 5000 takes well under a millisecond, against ~0.3 s for the tables
    primes = np.flatnonzero(_sieve(FIELD_STRATA[-1][1]))
    strata = [[_prime_below(primes, lo + (i + 0.5) * (hi - lo) / FIELD_PER_STRATUM)
               for i in range(FIELD_PER_STRATUM)] for lo, hi in FIELD_STRATA]
    tables = {p: A.build_small_field_table(p) for ps in strata for p in ps}
    return FieldSums(seed=seed, strata=strata, tables=tables)


def _bound(p: int) -> float:
    return math.sqrt(p) * math.log(p) ** 2


def _field_requests(rng, table, which: str, x: int) -> list[Request]:
    p = table.p
    ks = [k for k in range(2, 13) if (p - 1) % k == 0]
    powers = np.array([pow(table.tau, n, p) for n in range(1, p)], dtype=np.int64)
    spot_b = [rng.randrange(1, p) for _ in range(3)]

    def check_max_ratio(out):
        expect(len(out) == p - 1 and len(np.unique(powers)) == p - 1, "table shape or generator")
        for b in spot_b:
            row = np.abs(np.cumsum(np.exp(2j * np.pi * ((b * powers) % p) / p))).max() / _bound(p)
            expect(math.isclose(out[b - 1], row, rel_tol=1e-9), f"b={b}: {out[b - 1]} != {row}")

    k_char = rng.choice(ks)

    def check_char(out):
        values, worst = out
        is_residue = _euler_powers(np.arange(1, p, dtype=np.int64), (p - 1) // k_char, p) == 1
        want = is_residue if which == residues.RESIDUE_INDICATOR else ~is_residue
        expect(np.array_equal(values, want.astype(np.int64)), "indicator differs from the Euler criterion")
        expect(worst <= 1e-6, f"integrality residual {worst}")

    def check_uhat(out):
        a_vals, mags = out
        squares = np.flatnonzero(_euler_powers(np.arange(p, dtype=np.int64), (p - 1) // 2, p) == 1)
        expect(np.array_equal(a_vals, squares), "U-hat not evaluated at exactly the quadratic residues")
        # |sum_{b!=0} e(-ab/p) S[b]| = |sum_u sum_{b!=0} e(b(u-a)/p)| with u over the
        # nonresidues, so u != a and each inner sum is -1: every magnitude is (p-1)/2
        expect(np.allclose(mags, (p - 1) / 2, rtol=1e-9, atol=0), f"|U-hat| differs from (p-1)/2 = {(p - 1) / 2}")

    k_fiber = rng.choice([k for k in ks if k <= 6])

    def check_fiber(out):
        alpha, beta = out
        for h in (alpha, beta):
            total = sum(size * count for size, count in h.histogram.items()) + h.zero_hits
            expect(total == h.domain_size, f"{h.map_name}: fibers cover {total} of {h.domain_size}")
        expect(alpha.domain_size == (p - 1) // k_fiber * (x - 1), "alpha domain size")
        expect(alpha.max_fiber <= x - 1, f"alpha fiber {alpha.max_fiber} > x-1")
        expect(beta.domain_size == x * (p - 1), "beta domain size")
        expect(beta.histogram == {x: p - 1} and beta.zero_hits == 0, "beta fibers are not all of size x")

    def digest_hist(out):
        return [[h.map_name, sorted(h.histogram.items()), h.zero_hits] for h in out]

    return [
        Request("max_ratio", lambda: expsum.max_ratio_table(table), check_max_ratio,
                lambda out: [f"{out.max():.12e}", int(out.argmax())]),
        Request("char_values", lambda: residues.char_function_values(k_char, table, which), check_char,
                lambda out: [int(out[0].sum()), f"{out[1]:.3e}"]),
        Request("uhat", lambda: expsum.uhat_all_residues(table), check_uhat,
                lambda out: [len(out[0]), f"{out[1].max():.12e}"]),
        Request("fiber", lambda: expsum.fiber_histograms(x, k_fiber, table), check_fiber, digest_hist),
    ]


def _field_sums_round(st: FieldSums, r: int) -> list[list[Request]]:
    rng = random.Random(f"{st.seed}:field_sums:{r}")
    units = []
    n = FIELD_PER_STRATUM
    for i, primes in enumerate(st.strata):
        # each cycle of n rounds visits every prime of the stratum once; the
        # fiber cutoff x in [p/8, p/4] rises with the prime's rank, so the
        # largest fiber census, which sets peak memory, is the same in every run
        rank = random.Random(f"{st.seed}:field_sums:{i}:{r // n}").sample(range(n), n)[r % n]
        p = primes[rank]
        x = p // 8 + int((rank + rng.random()) / n * (p // 8))
        which = (residues.RESIDUE_INDICATOR, residues.NONRESIDUE_INDICATOR)[(i + r) % 2]
        units += [[req] for req in _field_requests(rng, st.tables[p], which, x)]
    return units


# --------------------------------------------------------------------------
# census: pattern censuses with report emission, weighted pattern sums, twins
# --------------------------------------------------------------------------

# one census below CENSUS_SPLIT and two above it per round: the tail
# percentile then falls inside the larger censuses, not on the step between kinds
CENSUS_P = (2 * 10**5, 2 * 10**6)
CENSUS_SPLIT = 12 * 10**5
CENSUS_CYCLE = 8  # rounds over which each census size spans its whole range
WPS_X = (10**3, 2 * 10**4)
TWIN_X = (2 * 10**4, 2 * 10**5)


@dataclass
class Census:
    seed: int
    primes: np.ndarray | None = None  # every prime up to CENSUS_P[1], for inputs and checks
    out_dir: Path | None = None  # where reports are emitted; set by the runner


def _prepare_census(seed: int) -> Census:
    # nothing to prepare: a census user pays only the import
    return Census(seed=seed)


def _census_checks(st: Census):
    st.primes = np.flatnonzero(_sieve(CENSUS_P[1]))


def _pair_counts(p: int) -> dict:
    """Consecutive residue/nonresidue pairs in [1, p-1], in closed form."""
    if p % 4 == 1:
        return {"RR": (p - 5) // 4, "RN": (p - 1) // 4, "NR": (p - 1) // 4, "NN": (p - 1) // 4}
    return {"RR": (p - 3) // 4, "RN": (p + 1) // 4, "NR": (p - 3) // 4, "NN": (p - 3) // 4}


def _census_units(st: Census, p: int) -> list[Request]:
    done = {}

    def run_census():
        done["census"] = patterns.pattern_census(p)
        return done["census"]

    def check_census(out):
        expect(sum(out.pair_counts.values()) == p - 2, "pair counts do not sum to p-2")
        expect(out.pair_counts == _pair_counts(p), f"pair counts {out.pair_counts}")
        for base in "RN":
            refined = sum(v for key, v in out.refined_counts.items() if key[0] == base)
            expect(refined == out.pair_counts[base * 2], f"{base}{base} refinements do not add up")
        expect(0 <= out.twin_qualifying <= out.twin_total, "twin counts")

    def emit():
        c = done["census"]
        env = report.ReportEnvelope()
        env.add_section("pairs", [{"pattern": key, "count": v} for key, v in c.pair_counts.items()],
                        ["pattern", "count"])
        env.add_section("refined", [{"pattern": key, "count": v} for key, v in c.refined_counts.items()],
                        ["pattern", "count"])
        gaps = [{"class": g.which.value, "starts": g.starts, "events": g.events, "mean_gap": g.mean_gap,
                 "max_gap": g.max_gap, "ks_uniform": g.ks_uniform} for g in (c.gap_residue, c.gap_nonresidue)]
        env.add_section("gaps", gaps, list(gaps[0]))
        return env, env.write(st.out_dir, f"census_{p}")

    def check_emit(out):
        env, paths = out
        doc = json.loads(Path(paths[0]).read_text(encoding="utf-8"))
        expect(doc["checksums"] == env.checksums, "written checksums differ from the envelope")
        pairs = {row["pattern"]: int(row["count"]) for row in doc["sections"]["pairs"]["rows"]}
        expect(pairs == _pair_counts(p), "emitted pair counts")
        expect(len(paths) == 4 and all(Path(q).stat().st_size > 0 for q in paths), "report files")

    return [Request("census", run_census, check_census,
                    lambda out: [out.pair_counts, out.refined_counts, out.twin_qualifying, out.twin_total]),
            Request("emit", emit, check_emit, lambda out: sorted(out[0].checksums.values()))]


def _nonresidue(n: int, p: int) -> bool:
    return pow(n, (p - 1) // 2, p) == p - 1


def _wps_request(st: Census, p: int, x: int) -> Request:
    def check(out):
        expect(abs(out.quarter_product_form - out.indicator_form) <= 1e-9 * max(1.0, out.indicator_form),
               "the two forms disagree")
        total = 0.0
        for r in st.primes[st.primes <= x]:
            r = int(r)
            n = r
            while n <= x:
                if _nonresidue(n, p) and _nonresidue(n + 1, p):
                    total += math.log(r)
                n *= r
        expect(math.isclose(out.indicator_form, total, rel_tol=1e-9, abs_tol=1e-9),
               f"sum {out.indicator_form} != {total}")

    return Request("wps", lambda: patterns.weighted_pattern_sum(p, x), check,
                   lambda out: round(out.indicator_form, 6))


def _twin_request(st: Census, p: int, x: int) -> Request:
    def check(out):
        primes = st.primes[st.primes <= x]
        lead = primes[:-1][np.diff(primes) == 2]
        count = sum(_nonresidue(int(n), p) and _nonresidue(int(n) + 2, p) for n in lead)
        expect((out.count, out.total) == (count, len(lead)), f"({out.count}, {out.total}) != ({count}, {len(lead)})")

    return Request("twin", lambda: patterns.twin_nonresidue_density(p, x), check,
                   lambda out: [out.count, out.total])


def _census_round(st: Census, r: int) -> list[list[Request]]:
    rng = random.Random(f"{st.seed}:census:{r}")
    draw = [_cycle_draw(f"{st.seed}:census:{i}", r, CENSUS_CYCLE, rng) for i in range(3)]
    sizes = [_log_between(CENSUS_P[0], CENSUS_SPLIT, draw[0])]
    sizes += [_log_between(CENSUS_SPLIT, CENSUS_P[1], (half + draw[1 + half]) / 2) for half in (0, 1)]
    ps = [_prime_below(st.primes, v) for v in sizes]
    units = [_census_units(st, p) for p in ps]
    units += [[_wps_request(st, rng.choice(ps), int(x))] for x in _stratified(rng, *WPS_X, 8)]
    units += [[_twin_request(st, rng.choice(ps), int(x))] for x in _stratified(rng, *TWIN_X, 4)]
    return units


@dataclass(frozen=True)
class Workload:
    prepare: Callable[[int], Any]
    prepare_checks: Callable[[Any], None]
    round_units: Callable[[Any, int], list]
    tail_pct: int  # highest percentile with >= 10 samples beyond it in every run


WORKLOADS = {
    "progressions": Workload(_prepare_progressions, _progressions_checks, _progressions_round, tail_pct=98),
    "field_sums": Workload(_prepare_field_sums, lambda st: None, _field_sums_round, tail_pct=95),
    "census": Workload(_prepare_census, _census_checks, _census_round, tail_pct=93),
}
