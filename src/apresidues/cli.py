"""Command-line front end.

Subcommands: symbol, search, count, reproduce, expsum, patterns, sweep.
Flags are long-form only.  Big integers are accepted as decimal strings or
as base^exp+offset expressions ("10^24+7", "2^128+51").

Exit codes:
  0  success (search: target found within the bound)
  1  usage error / unknown scenario
  2  domain or numerical-integrity error
  3  resource error (budget exceeded, unwritable output directory)
  4  search: target found but beyond the bound
  5  search: nothing found up to the scan limit
  6  reproduce: a computed value failed verification (not a publication
     discrepancy -- those are first-class rows and exit 0)
"""

from __future__ import annotations

import argparse
import math
import sys
import time

from . import apsearch, expsum, patterns
from .bigmod import OddPrimeContext, ResidueClass, next_prime
from .errors import DomainError, IntegrityError, ResourceError
from .report import ReportEnvelope
from .residues import build_small_field_table, kth_power_verdict
from .scenarios import FAIL, parse_integer_expr, run_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_RESOURCE = 3
EXIT_BEYOND_BOUND = 4
EXIT_ABSENT = 5
EXIT_REPRODUCE_FAIL = 6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1 here
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="apresidues", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # flags shared by several subcommands, each defined once
    prime = argparse.ArgumentParser(add_help=False)
    prime.add_argument("--p", required=True)
    prime.add_argument("--k", type=int, default=2)
    prime.add_argument("--allow-small", action="store_true")
    progression = argparse.ArgumentParser(add_help=False)
    progression.add_argument("--q", type=int, required=True)
    progression.add_argument("--a", type=int, required=True)
    progression.add_argument("--epsilon", type=float, default=0.0)
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--out-dir", default=None)

    s = sub.add_parser("symbol", parents=[prime], help="residue verdict for one element")
    s.add_argument("--n", required=True)

    s = sub.add_parser("search", parents=[progression, prime],
                       help="least prime in a progression with a target verdict")
    s.add_argument("--target", choices=["residue", "nonresidue", "generator"], required=True)
    s.add_argument("--scan-limit", type=int, default=10**6)
    s.add_argument("--factors", default=None,
                   help="comma-separated prime factors of p-1 (generator target)")

    s = sub.add_parser("count", parents=[progression, prime, report],
                       help="weighted/unweighted counts against the main term")
    s.add_argument("--target", choices=["residue", "nonresidue"], default="nonresidue")
    s.add_argument("--x", type=float, default=None, help="defaults to the bound for (p, k)")

    s = sub.add_parser("reproduce", help="recompute a published example and verify it")
    s.add_argument("scenario")

    s = sub.add_parser("expsum", parents=[report], help="incomplete exponential sums over a small field")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--b", type=int, default=None)
    s.add_argument("--x-cutoff", type=int, default=None)
    s.add_argument("--max-ratio-table", action="store_true",
                   help="emit the per-b max-ratio table (plot-ready: b, ratio)")

    s = sub.add_parser("patterns", parents=[report], help="consecutive-pattern census for a small prime")
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--x", type=int, default=None, help="cutoff for the weighted pair sum")

    s = sub.add_parser("sweep", help="run a campaign from a key-value config file")
    s.add_argument("--config", required=True)

    return parser


def _context(args) -> OddPrimeContext:
    return OddPrimeContext.for_prime(parse_integer_expr(args.p), allow_small=args.allow_small)


def _add_rows(envelope: ReportEnvelope, name: str, columns: tuple, rows) -> None:
    """A report section whose rows are value tuples in column order."""
    envelope.add_section(name, [dict(zip(columns, row)) for row in rows], list(columns))


def _write_report(envelope: ReportEnvelope, out_dir: str, stem: str) -> int:
    """Write the report files and list them; a directory that cannot be
    written is a resource error."""
    try:
        paths = envelope.write(out_dir, stem)
    except OSError as exc:
        print(f"cannot write reports to {out_dir}: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_symbol(args) -> int:
    ctx = _context(args)
    t0 = time.perf_counter()
    verdict = kth_power_verdict(parse_integer_expr(args.n), args.k, ctx)
    dt = time.perf_counter() - t0
    print(f"n = {verdict.n}")
    print(f"p = {ctx.p}")
    print(f"k = {verdict.k}")
    print(f"verdict: {verdict.verdict.value}")
    print(f"witness n^((p-1)/k) mod p = {verdict.witness}")
    print(f"elapsed: {dt:.6f} s")
    return EXIT_OK


def _cmd_search(args) -> int:
    ctx = _context(args)
    factors = None
    if args.factors:
        try:
            factors = [int(f) for f in args.factors.split(",")]
        except ValueError:
            raise DomainError(f"--factors: cannot read {args.factors!r} as comma-separated integers") from None
    outcome = apsearch.least_prime_with_verdict(
        apsearch.Target(args.target), args.k, ResidueClass(a=args.a, q=args.q),
        ctx, scan_limit=args.scan_limit, epsilon=args.epsilon, p_minus_1_factors=factors)
    print(f"target: {args.target}  k={args.k}  class: {args.a} mod {args.q}  p={ctx.p}")
    print(f"bound x = {outcome.bound_x:.2f} (epsilon={args.epsilon})")
    if outcome.found_n is None:
        print(f"found: none up to scan limit {outcome.scan_limit}")
        return EXIT_ABSENT
    print(f"found: {outcome.found_n}")
    print(f"within bound: {outcome.within_bound}")
    return EXIT_OK if outcome.within_bound else EXIT_BEYOND_BOUND


def _cmd_count(args) -> int:
    ctx = _context(args)
    x = args.x if args.x is not None else apsearch.bound_x(ctx, args.k, args.epsilon)
    report = apsearch.weighted_count(
        apsearch.Target(args.target), args.k, ResidueClass(a=args.a, q=args.q), x, ctx)
    print(f"target: {args.target}  k={args.k}  class: {args.a} mod {args.q}  p={ctx.p}")
    print(f"x = {x:.2f}")
    print(f"weighted count  = {report.weighted_count:.4f}")
    print(f"unweighted count = {report.unweighted_count}")
    print(f"main term       = {report.main_term:.4f}")
    print(f"error term      = {report.error_term:.4f}")
    print(f"density estimate = {report.density_estimate:.6f} "
          f"({report.unweighted_count}/{report.progression_prime_count} progression primes)")
    if args.out_dir:
        envelope = ReportEnvelope()
        _add_rows(envelope, "count", ("p", "k", "q", "a", "target", "x", "weighted_count", "unweighted_count",
                                      "main_term", "error_term", "density_estimate"),
                  [(str(ctx.p), report.k, report.cls.q, report.cls.a, args.target, report.x,
                    report.weighted_count, report.unweighted_count, report.main_term, report.error_term,
                    report.density_estimate)])
        return _write_report(envelope, args.out_dir, f"count-k{args.k}-q{args.q}-a{args.a}")
    return EXIT_OK


def _cmd_reproduce(args) -> int:
    try:
        result = run_scenario(args.scenario)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return EXIT_USAGE
    print(f"scenario {result.name}: {result.title}")
    width = max(len(r.label) for r in result.rows)
    for r in result.rows:
        line = f"{r.status:<12} {r.label:<{width}}  computed={r.computed}  expected={r.expected}"
        if r.delta:
            line += f"  |delta|={r.delta}"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
    for note in result.notes:
        print(f"note: {note}")
    n_disc = result.discrepancies
    n_fail = sum(1 for r in result.rows if r.status == FAIL)
    print(f"summary: {len(result.rows)} rows, {n_fail} FAIL, {n_disc} DISCREPANCY")
    return EXIT_OK if result.passed else EXIT_REPRODUCE_FAIL


def _cmd_expsum(args) -> int:
    # checked before the table is built, so a run that would print nothing
    # costs nothing
    if args.x_cutoff is not None and args.b is None:
        print("apresidues expsum: error: --x-cutoff needs --b", file=sys.stderr)
        return EXIT_USAGE
    if args.b is None and not args.max_ratio_table:
        print("apresidues expsum: error: nothing to compute: pass --max-ratio-table, --b or both", file=sys.stderr)
        return EXIT_USAGE
    table = build_small_field_table(args.p)
    envelope = ReportEnvelope()
    if args.max_ratio_table:
        ratios = expsum.max_ratio_table(table)
        if args.out_dir:  # p-1 rows: built only when a report is written
            _add_rows(envelope, "max_ratio", ("p", "b", "ratio"),
                      [(args.p, b + 1, float(r)) for b, r in enumerate(ratios)])
        print(f"p={args.p} tau={table.tau}: max ratio over all b,x = {ratios.max():.6f} "
              f"(bound sqrt(p)*log(p)^2 = {expsum.theoretical_bound(args.p):.2f})")
    if args.b is not None:
        x_cut = args.x_cutoff if args.x_cutoff is not None else args.p - 1
        sample = expsum.incomplete_expsum(args.b, x_cut, table)
        print(f"p={sample.p} tau={sample.tau} b={sample.b} x={sample.x_cutoff}")
        print(f"value = {sample.value:.6f}")
        print(f"|value| = {sample.magnitude:.6f}  bound = {sample.bound:.2f}  ratio = {sample.ratio:.6f}")
        if args.out_dir:
            _add_rows(envelope, "samples", ("p", "tau", "b", "x_cutoff", "value", "magnitude", "bound", "ratio"),
                      [(sample.p, sample.tau, sample.b, sample.x_cutoff, sample.value, sample.magnitude,
                        sample.bound, sample.ratio)])
    if args.out_dir:
        return _write_report(envelope, args.out_dir, f"expsum-p{args.p}")
    return EXIT_OK


def _cmd_patterns(args) -> int:
    # the weighted sum validates x before the census spends its time
    ws = patterns.weighted_pattern_sum(args.p, args.x) if args.x is not None else None
    census = patterns.pattern_census(args.p)
    print(f"p={args.p}")
    print(f"pair counts: {census.pair_counts} (sum {sum(census.pair_counts.values())} = p-2)")
    print(f"refined: {census.refined_counts}")
    print(f"twin nonresidue pairs: {census.twin_qualifying}/{census.twin_total}")
    for g in (census.gap_residue, census.gap_nonresidue):
        print(f"{g.which.value} pair gaps: starts={g.starts} events={g.events} "
              f"mean={g.mean_gap:.3f} max={g.max_gap} raw_mean={g.raw_mean_gap:.3f} "
              f"ks_uniform={g.ks_uniform:.4f}")
    if ws is not None:
        print(f"weighted NN sum to x={args.x}: quarter-product {ws.quarter_product_form:.6f}, "
              f"indicator {ws.indicator_form:.6f}")
    if args.out_dir:
        envelope = ReportEnvelope()
        for name, counts, keys in (("pair_counts", census.pair_counts, patterns.PAIR_KEYS),
                                   ("refined_counts", census.refined_counts, patterns.REFINED_KEYS)):
            _add_rows(envelope, name, ("p", *keys), [(args.p, *map(counts.get, keys))])
        return _write_report(envelope, args.out_dir, f"patterns-p{args.p}")
    return EXIT_OK


# --- sweep campaigns --------------------------------------------------------

def _read_config(path: str) -> dict:
    conf = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"config line without '=': {line!r}")
            key, value = line.split("=", 1)
            conf[key.strip()] = value.strip()
    return conf


def _int_list(raw: str) -> list[int]:
    return [int(v) for v in raw.split(",")]


def _positive_count(raw: str) -> int:
    count = int(raw)
    if count <= 0:
        raise DomainError(f"config key 'prime_count' must be > 0, got {count}")
    return count


def _q_rule(rule: str):
    """loglog | loglog2 | fixed:<q>, as a function from a prime's context to
    its moduli q; that function refuses a prime where the rule gives no
    progression a + q*m with 1 <= a < q."""
    if rule.startswith("fixed:"):
        fixed = int(rule.split(":", 1)[1])
    elif rule not in ("loglog", "loglog2"):
        raise DomainError(f"unknown q rule {rule!r}")

    def q_values(ctx) -> range:
        if rule == "loglog":
            qs = range(2, math.floor(ctx.loglog_p) + 1)
        elif rule == "loglog2":
            qs = range(2, math.ceil(ctx.loglog_p**2) + 1)
        else:
            if fixed > math.ceil(ctx.loglog_p**2):
                print(f"warning: q={fixed} is outside the loglog^2 regime for p={ctx.p}", file=sys.stderr)
            qs = range(fixed, fixed + 1)
        if max(qs, default=0) < 2:
            raise DomainError(f"q rule {rule!r} gives no progression at p={ctx.p}")
        return qs

    return q_values


# what each reader reads a value as; a DomainError from any reader but
# parse_integer_expr refuses a value it could read, in its own words
_NOUNS = {int: "an integer", parse_integer_expr: "an integer", _positive_count: "an integer",
          float: "float", apsearch.Target: "Target", _int_list: "a list of int", _q_rule: "fixed:<int>"}


def _read_keys(conf: dict, keys: dict) -> dict:
    """Each key's value, or its default, through its reader, in table order;
    a default may be a function of the values read before it."""
    values = {}
    for key, (default, reader) in keys.items():
        raw = conf.get(key, default(values) if callable(default) else default)
        try:
            values[key] = reader(raw)
        except ValueError as exc:
            if isinstance(exc, DomainError) and reader is not parse_integer_expr:
                raise
            raise DomainError(f"config key {key!r}: cannot read {raw!r} as {_NOUNS[reader]}") from None
    return values


def _sweep_primes(lo: int, hi: int, count: int) -> list[int]:
    if count <= 0 or hi <= lo:
        raise DomainError("prime_count must be > 0 and prime_max > prime_min")
    out, p = [], lo
    for i in range(count):
        # each candidate takes the first prime past it and past the last pick
        p = next_prime(max(lo + i * (hi - lo) // count, p))
        if p > hi:
            break
        out.append(p)
    return out


def _campaign_least_nonresidue(envelope: ReportEnvelope, epsilon, prime_min, prime_max, prime_count, q_rule):
    primes = _sweep_primes(prime_min, prime_max, prime_count)
    rows = []
    for p in primes:
        ctx = OddPrimeContext.for_prime(p)
        for q in q_rule(ctx):
            for a in (a for a in range(1, q) if math.gcd(a, q) == 1):
                outcome = apsearch.least_prime_with_verdict(apsearch.Target.NONRESIDUE, 2, ResidueClass(a=a, q=q),
                                                            ctx, scan_limit=10**6, epsilon=epsilon)
                rows.append((p, q, a, outcome.found_n, outcome.bound_x, outcome.within_bound))
    violations = [row for row in rows if not row[-1]]  # within_bound is the last column
    columns = ("p", "q", "a", "found_n", "bound_x", "within_bound")
    _add_rows(envelope, "least_nonresidue", columns, rows)
    _add_rows(envelope, "violations", columns, violations)
    print(f"least_nonresidue: {len(rows)} progressions over {len(primes)} primes, "
          f"{len(violations)} beyond-bound rows")


def _campaign_expsum(envelope: ReportEnvelope, p_list):
    rows = []
    for p in p_list:
        table = build_small_field_table(p)
        ratios = expsum.max_ratio_table(table)
        b_worst = int(ratios.argmax()) + 1
        rows.append((p, table.tau, b_worst, float(ratios.max()), expsum.theoretical_bound(p)))
        print(f"expsum: p={p} max ratio {ratios.max():.6f} at b={b_worst}")
    _add_rows(envelope, "max_ratio", ("p", "tau", "worst_b", "max_ratio", "bound"), rows)


def _campaign_density(envelope: ReportEnvelope, k, q, a, prime_min, prime_max, prime_count, target, x_rule):
    result = apsearch.density_sweep(k, ResidueClass(a=a, q=q), (prime_min, prime_max), x_rule=x_rule,
                                    target=target, max_primes=prime_count)
    _add_rows(envelope, "density", ("p", "k", "q", "a", "x", "qualifying", "total", "observed_fraction",
                                    "correction_estimate"),
              [(s.p, s.k, s.cls.q, s.cls.a, s.x, s.qualifying, s.total, s.observed_fraction,
                s.correction_estimate) for s in result.samples])
    print(f"density: {len(result.samples)} primes, {result.skipped_primes} skipped (k does not divide p-1)")


def _campaign_patterns(envelope: ReportEnvelope, p_list):
    rows = []
    for p in p_list:
        census = patterns.pattern_census(p)
        rows.append((p, *map(census.pair_counts.get, patterns.PAIR_KEYS), census.twin_qualifying,
                     census.twin_total, census.gap_nonresidue.mean_gap, census.gap_nonresidue.ks_uniform))
    _add_rows(envelope, "census", ("p", *patterns.PAIR_KEYS, "twin_qualifying", "twin_total",
                                   "nn_mean_gap", "nn_ks_uniform"), rows)
    print(f"patterns: {len(rows)} primes")


# campaign -> (runner, {key: (default, reader)}) for the keys it reads besides
# campaign and out_dir; _cmd_sweep reads them in this order and passes the
# values to the runner as keyword arguments
_CAMPAIGNS = {
    "least_nonresidue": (_campaign_least_nonresidue, {
        "epsilon": ("0.5", float), "prime_min": ("100000", parse_integer_expr),
        "prime_max": ("1000000", parse_integer_expr), "prime_count": ("500", int), "q_rule": ("loglog", _q_rule)}),
    "expsum": (_campaign_expsum, {"p_list": ("1009,10007", _int_list)}),
    "density": (_campaign_density, {
        "k": ("2", int), "q": ("1", int), "a": (lambda values: "0" if values["q"] == 1 else "1", int),
        "prime_min": ("100000", parse_integer_expr), "prime_max": ("110000", parse_integer_expr),
        "prime_count": ("25", _positive_count), "target": ("nonresidue", apsearch.Target), "x_rule": ("prime", str)}),
    "patterns": (_campaign_patterns, {"p_list": ("10007", _int_list)}),
}


def _cmd_sweep(args) -> int:
    try:
        conf = _read_config(args.config)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read config {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    campaign = conf.get("campaign")
    if campaign not in _CAMPAIGNS:
        raise DomainError(f"unknown campaign {campaign!r}; known: {', '.join(sorted(_CAMPAIGNS))}")
    run, keys = _CAMPAIGNS[campaign]
    unknown = sorted(set(conf) - {"campaign", "out_dir", *keys})
    if unknown:
        raise DomainError(f"unknown config key(s) {', '.join(map(repr, unknown))} for campaign "
                          f"{campaign!r}; known: {', '.join(sorted(keys))}, campaign, out_dir")
    envelope = ReportEnvelope()
    run(envelope, **_read_keys(conf, keys))
    return _write_report(envelope, conf.get("out_dir", "reports"), campaign)


_COMMANDS = {
    "symbol": _cmd_symbol,
    "search": _cmd_search,
    "count": _cmd_count,
    "reproduce": _cmd_reproduce,
    "expsum": _cmd_expsum,
    "patterns": _cmd_patterns,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except (DomainError, IntegrityError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ResourceError as exc:
        print(f"resource error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE


if __name__ == "__main__":
    sys.exit(main())
