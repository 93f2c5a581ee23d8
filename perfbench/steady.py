"""Steadiness report: run one workload repeatedly and show how far each metric spreads.

    python3 perfbench/steady.py --workload census --seeds 1 2 3 4 5 6 7 8 9 10

For every end-to-end metric it prints the median, the quartiles (statistics.quantiles,
n=4) and (Q3 - Q1) / median next to the metric's bound from BENCHMARK.json;
a spread under a third of the bound is marked "steady".  Each run's own
duration is shown too, since a run with its set-up has to stay short.  A seed given twice
must reproduce the same output digest.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"run with seed {seed} exited with {proc.returncode}")
    info, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    info["elapsed_s"] = time.perf_counter() - t0
    return info, result


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--seconds", type=int, default=contract["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in contract["end_to_end"]}
    values, digests, failed = {}, {}, 0
    for seed in args.seeds:
        info, result = run_once(args.workload, seed, args.seconds)
        failed += result["failed"]
        digests.setdefault(seed, set()).add(info["output_digest"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in result["metrics"].items())
        print(f"seed {seed}: {info['elapsed_s']:.0f}s failed={result['failed']}/{result['attempted']} "
              f"probe={info['host_probe_s']['start']:.3f}/{info['host_probe_s']['end']:.3f} "
              f"tail=p{info['tail']['percentile']}({info['tail']['beyond']} beyond) {shown}", flush=True)

    print(f"\n{'metric':34} {'median':>11} {'Q1':>11} {'Q3':>11} {'spread':>7} {'bound':>6}")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        bound = bounds[name]
        verdict = "steady" if spread < bound / 3 else "within bound" if spread <= bound else "NOT steady"
        print(f"{name:34} {med:11.5g} {q1:11.5g} {q3:11.5g} {spread:7.3f} {bound:>6} {verdict}")
    repeated = {seed: d for seed, d in digests.items() if args.seeds.count(seed) > 1}
    for seed, d in repeated.items():
        print(f"seed {seed}: output digest {'repeats' if len(d) == 1 else 'DIFFERS'} ({', '.join(sorted(d))})")
    print(f"failed requests: {failed}")
    return 0 if failed == 0 and all(len(d) == 1 for d in repeated.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
