"""Closed-loop benchmark of apresidues: one client, no worker pool, numpy backend.

Run from the repository root:

    python3 perfbench/run.py --workload progressions --seed 1 --trace 0

`--seconds` defaults to `run_seconds` of BENCHMARK.json.

A run shares its rounds of seeded requests among WORKERS fresh processes,
started one after another, so there is still one client and no pool.  The
speed of a CPU-bound interpreter differs from process to process whatever the
input (on a 2-CPU virtual machine, six successive processes ran the same
progressions rounds at medians from 0.79 to 1.23 s); pooling several short
processes, as pyperf does, keeps most of that out of a run's medians.  Each
worker's share of `--seconds` is what the workers before it left over; it runs
rounds until another round would overrun its share by more than stopping
falls short of it, and until the run's tail percentile will have at least ten
samples beyond it.

`setup_s` is the median, over every worker and SETUP_STARTS set-up-only
starts before each worker, of the time from a process's start until it has
imported the package and prepared the workload.  The benchmark's own sieves
for inputs and checks run after that.  Each request's output is checked
outside the timed window.  The last line of standard output is the result;
the line before it holds provenance and diagnostics (host-speed probe, output
digest).

With `--trace 0` the result carries the end-to-end metrics.  With `--trace 1`
every round runs twice, untraced and traced in alternating order, and the
result carries the per-layer metrics of `tracer.LAYER_METRICS`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKERS = 8
MAX_RUN_S = 150.0  # the workers start no round after their share of this, so a run ends within 180 s
MIN_BEYOND = 10  # samples beyond the tail percentile
SETUP_STARTS = 2  # set-up-only cold starts before each worker, for the median set-up time


def host_probe() -> float:
    """Seconds for a fixed pure-Python plus numpy computation; a diagnostic
    that shows when a run met a slow phase of the host."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(300_000):
        acc = (acc * 31 + i) % 1_000_003
    values = np.random.default_rng(12345).random(500_000)
    np.sort(values)
    return time.perf_counter() - t0


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an exported checkout: git would find an enclosing repository
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True).stdout
    except OSError:
        return None
    return out.strip() or None


def cold_start(args, *extra: str) -> tuple[float, str]:
    """Start a fresh process of this script; returns its time from start until
    it is ready (`setup_s`) and what it prints after that."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            ready = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            out, _ = proc.communicate(timeout=MAX_RUN_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode != 0 or ready != "ready\n":
        raise SystemExit(f"perfbench: {' '.join(extra)} failed with exit code {proc.returncode}")
    return ready_s, out


def nearest_rank(sorted_values: list, pct: float):
    """(value, samples beyond it) at the nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1], len(sorted_values) - int(rank)


def min_rounds(pct: int, per_round: int) -> int:
    needed = MIN_BEYOND * 100 // (100 - pct) + 1
    return -(-needed // per_round)


def execute(requests, tracer=None):
    """Run one round's requests in order; returns (wall, latencies, outputs, round spans)."""
    latencies, outputs = [], []
    clock = time.perf_counter
    with tracer.installed() if tracer else nullcontext():
        t0 = clock()
        for req in requests:
            t = clock()
            try:
                out = req.call()
            except Exception as exc:  # a failed request is counted, the run goes on
                traceback.print_exc()
                out = exc
            latencies.append(clock() - t)
            outputs.append(out)
        wall = clock() - t0
    return wall, latencies, outputs, tracer.take() if tracer else None


def check_round(requests, outputs, reference=None):
    """Check each output; returns (failed flags, summaries).  With `reference`,
    each summary must also equal the reference summary of the same request."""
    import workloads

    failed, summaries = [], []
    for i, (req, out) in enumerate(zip(requests, outputs)):
        try:
            if isinstance(out, Exception):
                raise workloads.Mismatch(f"raised {out!r}")
            req.check(out)
            summary = req.summary(out)
            if reference is not None and summary != reference[i][1]:
                raise workloads.Mismatch("traced output differs from untraced output")
        except Exception as exc:  # a failed check is counted, the run goes on
            print(f"check failed: {req.kind}: {exc!r}", file=sys.stderr)
            failed.append(True)
            summaries.append((req.kind, None))
            continue
        failed.append(False)
        summaries.append((req.kind, summary))
    return failed, summaries


def digest(summaries) -> str:
    payload = json.dumps(summaries, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_rounds(name, wl, state, seed, share, rounds_before, tracer, worker):
    """Closed loop over this worker's rounds: worker, worker + WORKERS, ...
    It stops when another round would overrun `share` seconds by more than
    stopping falls short of it, once the workers' rounds will give the tail
    percentile enough samples beyond it.  Traced, each round runs untraced and
    traced in alternating order; the untraced pass gives the timings."""
    started = time.perf_counter()
    timed = check_s = 0.0
    walls, latencies, overheads, spans = [], [], [], []
    attempted = failed = 0
    first_digest = None
    done = 0
    while True:
        r = worker + done * WORKERS
        units = wl.round_units(state, r)
        random.Random(f"{seed}:{name}:order:{r}").shuffle(units)
        requests = [req for unit in units for req in unit]
        need = 1 if tracer else max(1, -(-(min_rounds(wl.tail_pct, len(requests)) - rounds_before)
                                          // (WORKERS - worker)))
        if done >= need and timed + timed / max(done, 1) / 2 >= share:
            break
        if time.perf_counter() - started > MAX_RUN_S / WORKERS:
            print(f"stopping after {done} rounds: run time cap reached", file=sys.stderr)
            break
        passes = {}
        for traced in ((False, True) if r % 2 == 0 else (True, False)) if tracer else (False,):
            passes[traced] = execute(requests, tracer if traced else None)
            timed += passes[traced][0]
        wall, lat, outputs, _ = passes[False]
        t0 = time.perf_counter()
        bad, summaries = check_round(requests, outputs)
        if tracer:
            overheads.append(passes[True][0] / wall - 1)
            spans.append(passes[True][3])
            bad_traced, _ = check_round(requests, passes[True][2], summaries)
            bad = [x or y for x, y in zip(bad, bad_traced)]
        check_s += time.perf_counter() - t0
        walls.append(wall)
        latencies += lat
        attempted += len(requests)
        failed += sum(bad)
        if first_digest is None:
            first_digest = digest(summaries)
        done += 1
    return {"walls": walls, "latencies": latencies, "overheads": overheads, "spans": spans,
            "attempted": attempted, "failed": failed, "digest": first_digest, "rounds": done,
            "timed_s": timed, "check_s": check_s, "run_s": time.perf_counter() - started}


def worker_main(args, wl, tracing) -> int:
    """Prepare, say "ready", run this worker's rounds and print their results."""
    tr = tracing.Tracer() if args.trace else None
    if tr:
        with tr.installed():
            state = wl.prepare(args.seed)
    else:
        state = wl.prepare(args.seed)
    setup_spans = tr.take() if tr else None
    print("ready", flush=True)
    wl.prepare_checks(state)
    out_dir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        if hasattr(state, "out_dir"):
            state.out_dir = out_dir
        share = (args.seconds - args.timed_before) / (WORKERS - args.worker)
        res = run_rounds(args.workload, wl, state, args.seed, share, args.rounds_before, tr, args.worker)
        res["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    res["setup_spans"] = setup_spans
    print(json.dumps(res))
    return 0


def check_contract(contract):
    """Check the metric lists of BENCHMARK.json against this runner's own."""
    import tracer
    import workloads

    layers = [(m["name"], m["unit"], m["better"]) for m in contract["per_layer"]]
    if layers != [entry[:3] for entry in tracer.LAYER_METRICS]:
        raise SystemExit("BENCHMARK.json per_layer differs from tracer.LAYER_METRICS")
    if [w["name"] for w in contract["workloads"]] != list(workloads.WORKLOADS):
        raise SystemExit("BENCHMARK.json workloads differ from workloads.WORKLOADS")


def main(argv=None) -> int:
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--worker", type=int, help=argparse.SUPPRESS)
    parser.add_argument("--timed-before", type=float, default=0.0, help=argparse.SUPPRESS)
    parser.add_argument("--rounds-before", type=int, default=0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "apresidues" / "__init__.py").is_file():
        print(f"perfbench: no apresidues sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import apresidues
    import numpy as np

    if Path(apresidues.__file__).resolve().parent != SRC / "apresidues":
        print(f"perfbench: imported apresidues from {apresidues.__file__}", file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.prepare(args.seed)
        print("ready", flush=True)
        return 0
    if args.worker is not None:
        return worker_main(args, wl, tracing)
    check_contract(contract)

    probe_start = host_probe()
    cold_start(args, "--setup-only")  # compiles bytecode, so that no timed start includes it
    setup_times, workers = [], []
    for j in range(WORKERS):
        # set-up-only starts between the workers spread the set-up samples over the run
        setup_times += [cold_start(args, "--setup-only")[0] for _ in range(SETUP_STARTS)]
        # each worker's share is what the workers before it left of --seconds
        ready_s, out = cold_start(args, "--worker", str(j), "--timed-before", str(sum(w["timed_s"] for w in workers)),
                                  "--rounds-before", str(sum(w["rounds"] for w in workers)))
        setup_times.append(ready_s)
        workers.append(json.loads(out))
    res = {key: sum((w[key] for w in workers), start=[] if isinstance(workers[0][key], list) else 0)
           for key in ("walls", "latencies", "overheads", "spans", "attempted", "failed", "rounds",
                       "timed_s", "check_s", "run_s")}
    # median over the workers: one worker's peak also reflects where the allocator placed its arrays
    peak_rss_mb = statistics.median(w["peak_rss_mb"] for w in workers)
    probe_end = host_probe()

    lat = sorted(res["latencies"])
    tail, beyond = nearest_rank(lat, wl.tail_pct)
    if args.trace:
        values = tracing.layer_values(workers[0]["setup_spans"], res["spans"], statistics.median(res["overheads"]))
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        values = {"wall_s": statistics.median(res["walls"]), "req_p50_s": statistics.median(lat),
                  "req_tail_s": tail, "peak_rss_mb": peak_rss_mb, "setup_s": statistics.median(setup_times)}
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    info = {
        "provenance": {"python": platform.python_version(), "numpy": np.__version__,
                       "backend": apresidues.kernel_backend(), "nproc": len(os.sched_getaffinity(0)),
                       "seed": args.seed, "workload": args.workload, "trace": args.trace,
                       "commit": git_commit()},
        "tail": {"percentile": wl.tail_pct, "samples": len(lat), "beyond": beyond},
        "rounds": res["rounds"], "requests_per_round": len(lat) // res["rounds"],
        "loop_s": {key: res[key] for key in ("timed_s", "check_s", "run_s")},
        "host_probe_s": {"start": probe_start, "end": probe_end},
        "workers": {"setup_s": setup_times, "peak_rss_mb": [w["peak_rss_mb"] for w in workers]},
        "output_digest": workers[0]["digest"],
    }
    print(json.dumps(info))
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"], "failed": res["failed"],
                      "metrics": {name: {"value": values[name], "unit": units[name]} for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
