"""Per-layer spans for the traced benchmark run, recorded from outside the package.

`Tracer.installed()` replaces every module attribute that binds a traced public
function (for example `apsearch.primes_up_to`, `apsearch.von_mangoldt` and
`kernels.prefix_max_abs`, as well as the defining module's own name) with a
wrapper, and restores the originals on exit.  Calls the library makes through
those names are therefore seen too, e.g. `is_prime` inside `von_mangoldt`.

Each span records its calls, its inclusive time (`<span>_s`) and its self time
(`<span>_self_s`: inclusive time minus the time of nested traced calls).
Counters marked "computed" are derived from argument sizes, not measured.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


def _sieve(args, result):
    return {"bigmod.sieve_len": int(args["x"])}


def _search(args, result):
    return {"apsearch.search_found_sum": result.found_n or 0,
            "apsearch.search_scan_sum": int(args["scan_limit"])}


def _count(args, result):
    cls = args["cls"]
    start = cls.a if cls.a >= 2 else cls.a + cls.q
    return {"apsearch.count_members": len(range(start, math.floor(args["x"]) + 1, cls.q))}


def _scenario(args, result):
    return {"scenarios.rows": len(result.rows)}


def _table(args, result):
    # items held in per-divisor set caches; 0 once a table keeps none
    held = 0
    for attr in ("residue_sets", "nonresidue_sets"):
        held += sum(len(s) for s in getattr(result, attr, {}).values())
    return {"residues.table_set_items": held}


def _char_values(args, result):
    k, p = args["k"], args["table"].p
    enum = (p - 1) // k if args["which"] == "residue_indicator" else (p - 1) - (p - 1) // k
    return {"residues.oracle_terms": (p - 1) * enum}


def _prefix_max_abs(args, result):
    terms = len(args["powers"]) * (args["p"] - 1)
    return {"kernels.prefix_max_abs_terms": terms, "kernels.prefix_max_abs_bytes": 16 * terms}


def _inner(args, result):
    return {"kernels.inner_terms": args["p"] ** 2}


def _fiber(args, result):
    x, k, p = args["x"], args["k"], args["table"].p
    return {"expsum.fiber_targets": (p - 1) // k * (x - 1) + x * (p - 1)}


def _census(args, result):
    return {"patterns.census_len": args["p"] - 2}


def _add_section(args, result):
    return {"report.rows": len(args["rows"])}


def _write(args, result):
    return {"report.bytes": sum(Path(path).stat().st_size for path in result)}


# span name -> [(module, attribute, counter)]; a class attribute is "Class.method"
SPANS = {
    "bigmod.sieve": [("bigmod", "primes_up_to", _sieve), ("bigmod", "prime_mask", _sieve)],
    "bigmod.is_prime": [("bigmod", "is_prime", None)],
    "bigmod.von_mangoldt": [("bigmod", "von_mangoldt", None)],
    "bigmod.jacobi": [("bigmod", "jacobi", None)],
    "apsearch.search": [("apsearch", "least_prime_with_verdict", _search)],
    "apsearch.count": [("apsearch", "weighted_count", _count)],
    "scenarios.run": [("scenarios", "run_scenario", _scenario)],
    "residues.table_build": [("residues", "build_small_field_table", _table)],
    "residues.char_values": [("residues", "char_function_values", _char_values)],
    "kernels.pow_table": [("kernels", "pow_table", None)],
    "kernels.prefix_max_abs": [("kernels", "prefix_max_abs", _prefix_max_abs)],
    "kernels.inner_complete_sums": [("kernels", "inner_complete_sums", _inner)],
    "kernels.halfsums": [("kernels", "halfsums", None)],
    "expsum.max_ratio": [("expsum", "max_ratio_table", None)],
    "expsum.uhat": [("expsum", "uhat_all_residues", None)],
    "expsum.fiber": [("expsum", "fiber_histograms", _fiber)],
    "patterns.census": [("patterns", "pattern_census", _census)],
    "patterns.wps": [("patterns", "weighted_pattern_sum", None)],
    "patterns.twin": [("patterns", "twin_nonresidue_density", None)],
    "report.emit": [("report", "ReportEnvelope.add_section", _add_section),
                    ("report", "ReportEnvelope.write", _write)],
}

# (name, unit, better, scope, end-to-end metric it should move, workload).
# scope "round": median per traced round; "setup": one traced preparation.
_BASE_METRICS = [
    ("bigmod.sieve_calls", "count", "lower", "round", "req_p50_s, wall_s", "progressions (census: must not rise)"),
    ("bigmod.sieve_len", "count", "lower", "round", "req_p50_s, wall_s", "progressions (census: must not rise)"),
    ("bigmod.sieve_s", "s", "lower", "round", "req_p50_s, wall_s", "progressions (census: must not rise)"),
    ("bigmod.is_prime_calls", "count", "lower", "round", "req_tail_s", "progressions"),
    ("bigmod.is_prime_s", "s", "lower", "round", "req_tail_s", "progressions"),
    ("bigmod.von_mangoldt_calls", "count", "lower", "round", "req_tail_s; wall_s", "progressions; census"),
    ("bigmod.von_mangoldt_s", "s", "lower", "round", "req_tail_s; wall_s", "progressions; census"),
    ("bigmod.jacobi_calls", "count", "lower", "round", "wall_s", "census, progressions"),
    ("bigmod.jacobi_s", "s", "lower", "round", "wall_s", "census, progressions"),
    ("apsearch.search_calls", "count", "lower", "round", "req_p50_s", "progressions"),
    ("apsearch.search_s", "s", "lower", "round", "req_p50_s", "progressions"),
    ("apsearch.scan_useful_ratio", "ratio", "higher", "round", "req_p50_s", "progressions"),
    ("apsearch.count_members", "count", "lower", "round", "req_tail_s", "progressions"),
    ("apsearch.count_s", "s", "lower", "round", "req_tail_s", "progressions"),
    ("scenarios.run_s", "s", "lower", "round", "req_tail_s", "progressions"),
    ("scenarios.rows", "count", "higher", "round", "req_tail_s", "progressions"),
    ("residues.table_build_s", "s", "lower", "setup", "setup_s, peak_rss_mb", "field_sums"),
    ("residues.table_set_items", "count", "lower", "setup", "setup_s, peak_rss_mb", "field_sums"),
    ("residues.char_values_s", "s", "lower", "round", "none (oracle stays literal)", "field_sums"),
    ("residues.oracle_terms", "count", "lower", "round", "none (oracle stays literal)", "field_sums"),
    ("kernels.pow_table_s", "s", "lower", "setup", "setup_s", "field_sums"),
    ("kernels.prefix_max_abs_s", "s", "lower", "round", "req_tail_s, wall_s", "field_sums"),
    ("kernels.prefix_max_abs_terms", "count", "lower", "round", "req_tail_s, wall_s", "field_sums"),
    ("kernels.prefix_max_abs_bytes", "bytes", "lower", "round", "req_tail_s, wall_s", "field_sums"),
    ("kernels.inner_complete_sums_s", "s", "lower", "round", "wall_s", "field_sums"),
    ("kernels.inner_terms", "count", "lower", "round", "wall_s", "field_sums"),
    ("kernels.halfsums_s", "s", "lower", "round", "req_p50_s", "field_sums"),
    ("expsum.max_ratio_s", "s", "lower", "round", "wall_s", "field_sums"),
    ("expsum.uhat_s", "s", "lower", "round", "wall_s", "field_sums"),
    ("expsum.fiber_s", "s", "lower", "round", "wall_s", "field_sums"),
    ("expsum.fiber_targets", "count", "lower", "round", "peak_rss_mb", "field_sums"),
    ("patterns.census_s", "s", "lower", "round", "req_p50_s, wall_s", "census"),
    ("patterns.census_len", "count", "higher", "round", "req_p50_s, wall_s", "census"),
    ("patterns.wps_s", "s", "lower", "round", "req_tail_s", "census"),
    ("patterns.twin_s", "s", "lower", "round", "req_tail_s", "census"),
    ("report.emit_s", "s", "lower", "round", "wall_s (small)", "census"),
    ("report.rows", "count", "higher", "round", "wall_s (small)", "census"),
    ("report.bytes", "bytes", "lower", "round", "wall_s (small)", "census"),
]
# every span also reports its self time, right after its inclusive time
LAYER_METRICS = []
for _entry in _BASE_METRICS:
    LAYER_METRICS.append(_entry)
    if _entry[0].endswith("_s") and _entry[0][:-2] in SPANS:
        LAYER_METRICS.append((f"{_entry[0][:-2]}_self_s",) + _entry[1:])
LAYER_METRICS.append(("trace.overhead_ratio", "ratio", "lower", "round", "none",
                      "all: traced wall_s / untraced wall_s - 1"))


class Tracer:
    """Span totals for one scope; `take()` returns them and starts a new scope."""

    def __init__(self):
        self.totals = defaultdict(float)
        self._child_time = []  # one accumulator per open span

    def take(self) -> dict:
        totals, self.totals = dict(self.totals), defaultdict(float)
        return totals

    def _wrap(self, name, fn, counter):
        signature = inspect.signature(fn)
        stack, clock = self._child_time, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                totals = self.totals
                totals[f"{name}_calls"] += 1
                totals[f"{name}_s"] += elapsed
                totals[f"{name}_self_s"] += elapsed - nested
            if counter is not None:
                for key, value in counter(signature.bind(*args, **kwargs).arguments, result).items():
                    self.totals[key] += value
            return result

        return traced

    @contextmanager
    def installed(self):
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "apresidues" or n.startswith("apresidues."))]
        patches = []
        try:
            for name, targets in SPANS.items():
                for module, attr, counter in targets:
                    owner = sys.modules[f"apresidues.{module}"]
                    if "." in attr:
                        cls_name, attr = attr.split(".")
                        owner = getattr(owner, cls_name)
                        original = owner.__dict__[attr]
                        patches.append((owner, attr, original))
                        setattr(owner, attr, self._wrap(name, original, counter))
                        continue
                    original = getattr(owner, attr)
                    wrapper = self._wrap(name, original, counter)
                    for module_obj in modules:
                        for key, value in list(vars(module_obj).items()):
                            if value is original:
                                patches.append((module_obj, key, original))
                                setattr(module_obj, key, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)


def layer_values(setup_totals: dict, round_totals: list[dict], overhead: float) -> dict:
    """Per-layer metric values: medians over traced rounds, setup spans as traced once."""
    from statistics import median

    values = {}
    for name, _, _, scope, _, _ in LAYER_METRICS:
        if scope == "setup":
            values[name] = setup_totals.get(name, 0.0)
        else:
            values[name] = median(t.get(name, 0.0) for t in round_totals)
    found = sum(t.get("apsearch.search_found_sum", 0.0) for t in round_totals)
    scanned = sum(t.get("apsearch.search_scan_sum", 0.0) for t in round_totals)
    values["apsearch.scan_useful_ratio"] = found / scanned if scanned else 0.0
    values["trace.overhead_ratio"] = overhead
    return values
