"""ergm-lab benchmark: run a workload, check its outputs, print its metrics.

Each workload runs in fresh single-threaded processes, one after another:
set-up-only processes (nine at full size, one at tiny size), then one
process that runs the workload's job list in passes; setup_s is the median
set-up time of all of them. Every time is reported at the reference host
speed: the measured time times REFERENCE_PROBE_S over the median time of
the speed probes (worker.speed_probe) timed around it, the probes next to
a job or the ones right after a set-up. The measured times are printed
beside them. The last line of standard
output is one JSON object with keys correct, attempted, failed and metrics.
With --trace 0 the metrics are the end-to-end metrics; with --trace 1 the
passes alternate untraced and traced and the metrics are the per-layer
numbers of the traced passes.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                    # every workload, untraced

Run it from the root of the repository; it needs the package source in src/.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("chains", "landscape", "exact")
DEADLINE_S = 170.0
SETUPS = {"full": 9, "tiny": 1}  # set-up-only processes per run

# Typical time of worker.speed_probe between two jobs on the host the
# benchmark was defined on (2 vCPU Intel Xeon, one thread). That host changes
# speed by up to a factor of two for seconds to minutes at a time, with
# thread time equal to wall time, because of load outside the machine; the
# probe, which calls nothing in the package, slows with it. Scaling each time
# by this constant over the median of the probes around it takes most of
# that change out of the figures and leaves a change of the package in them.
REFERENCE_PROBE_S = 0.0024
# A job's scale uses the probes of its pass from PROBE_WINDOW jobs before it
# to PROBE_WINDOW jobs after it: enough probes that one slow probe does not
# move it, few enough to follow a change of speed within a pass.
PROBE_WINDOW = 6


def child_env() -> dict:
    env = dict(os.environ)
    env.update(
        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
        ERGM_LAB_THREADS="1", PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")])),
    )
    return env


def run_worker(args, extra: list[str], deadline: float) -> tuple[dict, float]:
    """Start a worker, wait for its JSON line; return it and the start time."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, *extra]
    started = time.monotonic()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def tail_percentile(n: int) -> int:
    """Highest integer percentile with at least 10 of n samples above its rank."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered) / 100) - 1)]


def scale(probe_s: float) -> float:
    return REFERENCE_PROBE_S / probe_s


def job_runs(report: dict, traced: bool, scaled: bool = True) -> dict[str, list[float]]:
    """Each job's latencies in the untraced (or traced) passes, scaled by the probes around it.

    probes[i] of a pass was timed right before its job i, and the last
    one after its last job.
    """
    runs: dict[str, list[float]] = defaultdict(list)
    for p in report["passes"]:
        if p["traced"] == traced:
            probes = p["probes"]
            for i, (name, latency, _) in enumerate(p["jobs"]):
                around = probes[max(0, i - PROBE_WINDOW):i + PROBE_WINDOW + 2]
                runs[name].append(latency * (scale(statistics.median(around)) if scaled else 1.0))
    return runs


def median_runs(report: dict, traced: bool, scaled: bool = True) -> dict[str, float]:
    """Each job's median latency over the untraced (or traced) passes."""
    return {name: statistics.median(v) for name, v in job_runs(report, traced, scaled).items()}


def summarize(report: dict, setups: list[tuple[float, float]]):
    """End-to-end metrics of the untraced passes, plus the report lines.

    setups holds (set-up time, probe median) of each set-up process.
    """
    meta = report["meta"]
    untraced = [p for p in report["passes"] if not p["traced"]]
    best = median_runs(report, traced=False)
    raw = median_runs(report, traced=False, scaled=False)
    # the tail reads every untraced job run, each a genuine sample
    runs = [v for vs in job_runs(report, traced=False).values() for v in vs]
    tail_p = tail_percentile(len(runs))
    metrics = {
        "setup_s": statistics.median(t * scale(probe) for t, probe in setups),
        "wall_s": sum(best.values()),
        "job_p50_s": percentile(list(best.values()), 50),
        "job_tail_s": percentile(runs, tail_p),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    probes = [p["probe_s"] for p in untraced]
    attempted = sum(len(p["jobs"]) for p in report["passes"])
    failures = [(r[0], r[2]) for p in report["passes"] for r in p["jobs"] if r[2] is not None]
    unexpected = [(name, msg) for name, msg in failures
                  if not (meta[name]["defect"] and msg.startswith(meta[name]["defect"][1]))]

    def rate(key):
        pairs = [(meta[name][key], t) for name, t in best.items() if meta[name][key]]
        if not pairs:
            return "n/a (no such jobs)"
        return f"{sum(a for a, _ in pairs) / sum(t for _, t in pairs):.6g} 1/s ({sum(a for a, _ in pairs)} a pass)"

    lines = [
        f"host speed         {REFERENCE_PROBE_S / statistics.median(probes):.4g} of the reference (probe median "
        f"{statistics.median(probes) * 1e3:.4g} ms against {REFERENCE_PROBE_S * 1e3:.4g} ms, "
        f"{sum(len(p['probes']) for p in untraced)} probes); times below are at the reference speed",
        f"setup_s            {metrics['setup_s']:.6g} s  (median of {len(setups)} set-ups; "
        f"measured {statistics.median(t for t, _ in setups):.6g} s)",
        f"wall_s             {metrics['wall_s']:.6g} s  ({len(best)} jobs, each at its median of {len(untraced)} runs; "
        f"measured {sum(raw.values()):.6g} s)",
        f"job_p50_s          {metrics['job_p50_s']:.6g} s  (p50 of {len(best)} jobs, each at its median of "
        f"{len(untraced)} runs; measured {percentile(list(raw.values()), 50):.6g} s)",
        f"job_tail_s         {metrics['job_tail_s']:.6g} s  (p{tail_p} of {len(runs)} job runs, {len(best)} jobs x "
        f"{len(untraced)} passes; {len(runs) - math.ceil(tail_p * len(runs) / 100)} beyond it)",
        f"peak_rss_mb        {metrics['peak_rss_mb']:.6g} MB  (workload process)",
        f"fail_ratio         {len(failures) / attempted:.6g}  ({len(failures)} of {attempted} jobs; "
        f"{len(unexpected)} outside the known defects)",
        f"chain_steps_per_s  {rate('steps')}",
        f"importance_samples_per_s  {rate('samples')}",
    ]
    return metrics, attempted, failures, unexpected, lines


def layer_report(report: dict) -> dict:
    """Layer numbers of the traced passes; a layer a workload never calls reads 0."""
    layers = defaultdict(float, report["layers"])
    traced = sum(median_runs(report, traced=True).values())
    layers["trace.overhead_ratio"] = traced / sum(median_runs(report, traced=False).values())
    return layers


def run_workload(args, spec: dict, deadline: float) -> dict:
    setups = []
    for _ in range(SETUPS[args.size]):
        data, started = run_worker(args, ["--setup-only"], deadline)
        setups.append((data["ready"] - started, data["probe_s"]))
    report, started = run_worker(
        args, ["--seconds", str(args.seconds), "--trace", str(args.trace)], deadline)
    setups.append((report["ready"] - started, report["probe_s"]))

    metrics, attempted, failures, unexpected, lines = summarize(report, setups)
    m = report["machine"]
    print(f"== workload {args.workload}  seed {args.seed}  size {args.size}  trace {args.trace}")
    print(f"   machine: nproc {m['nproc']} (affinity {m['affinity']}), {m['cpu_model']}, "
          f"Python {m['python']}, numpy {m['numpy']}, BLAS {m['blas']}, threads {m['threads']}")
    print("   closed loop, one caller; no layer has a queue or a second thread, so no wait time is recorded")
    if report["references_checked"]:
        print("   default seed: integer trace columns compared with perfbench/references.json")
    for (name, msg), count in Counter(failures).items():
        defect = report["meta"][name]["defect"]
        tag = f"known defect {defect[0]}" if (name, msg) not in unexpected else "NEW DEFECT"
        print(f"   failed {count}x [{tag}] {name}: {msg}")
    out_metrics = {}
    if args.trace:
        layers = layer_report(report)
        print(f"   traced passes: {sum(p['traced'] for p in report['passes'])}, "
              f"{report['span_count']} spans in {report['spans_file']}")
        for entry in spec["per_layer"]:
            value = layers[entry["name"]]
            print(f"   {entry['name']:48s} {value:.6g} {entry['unit']}")
            out_metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    else:
        for ln in lines:
            print("   " + ln)
        out_metrics = {e["name"]: {"value": metrics[e["name"]], "unit": e["unit"]} for e in spec["end_to_end"]}
    return {"correct": not unexpected, "attempted": attempted, "failed": len(failures),
            "metrics": out_metrics}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs every job type at a small size, for the self-test")
    args = p.parse_args()

    if not (Path("src") / "ergmlab" / "__init__.py").is_file():
        print("perfbench: run from the repository root; src/ergmlab is missing", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + DEADLINE_S * len(names)
    results = []
    try:
        for name in names:
            args.workload = name
            results.append(run_workload(args, spec, deadline))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
