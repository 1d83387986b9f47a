"""One workload process: set up, run the job list in passes, report raw data.

Started by run.py in a fresh interpreter with the compute threads pinned to
one. Prints one JSON object as its last line of standard output. With
--setup-only it stops after the set-up (import, input generation and one
warm-up call) and reports when that ended and the median time of the
speed probes run right after it.

Usage: python3 perfbench/worker.py --workload chains --seed 1 --seconds 30 --trace 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from tracing import END, JOB, NAME, PARENT, START, Tracer  # noqa: E402

# Passes per workload at --seconds 30: about 25 s, 31 s and 33 s of passes
# on a quiet host. The count scales with --seconds (at least three, so that
# every job has three runs to take the median of) but never uses timings
# taken during the run, so the same arguments always run the same jobs.
PASSES_AT_30_S = {"chains": 7, "landscape": 3, "exact": 3}

# Speed probes run right after the set-up, before the first pass.
SETUP_PROBES = 20

# Operands of the speed probe, fixed so that every probe does the same work.
PROBE_MATRIX = np.random.default_rng(0).random((120, 120))
PROBE_VECTOR = np.random.default_rng(1).random(1 << 20)

REFERENCES = HERE / "references.json"
OUT = HERE / "out"


def pass_count(workload: str, seconds: float, size: str) -> int:
    """At full size at least three passes, so every job has three runs to take the median of."""
    if size != "full":
        return 2
    return max(3, round(PASSES_AT_30_S[workload] * seconds / 30.0))


def speed_probe() -> float:
    """Seconds taken by a fixed mix of interpreter, small-array, BLAS and memory-bound work.

    The probe calls nothing in the package, so a change to the package
    does not move it; a change in the speed of the host moves it and the
    jobs alike. run.py scales the job latencies by it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(6000):
        s += i * i % 7
    row = np.zeros(30)
    for i in range(200):
        row[i % 30] += 1.0
        row.sum()
    PROBE_MATRIX @ PROBE_MATRIX
    PROBE_VECTOR.sum()
    return time.perf_counter() - t0


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "ERGM_LAB_THREADS")},
    }


def failure_of(job, out, error, references) -> str | None:
    """None when the job's output passed its checks, else why it failed."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    try:
        msg = job.check(out)
        if msg is None and references is not None and job.digest is not None:
            want = references.get(job.name)
            got = workloads.sha256(job.digest(out))
            if want != got:
                msg = f"integer trace columns differ from the reference ({got[:12]} != {str(want)[:12]})"
        return msg
    except Exception as exc:  # a broken output must not stop the benchmark
        return f"check raised {type(exc).__name__}: {exc}"


def probe_once(probes: list[float]) -> None:
    """Time one speed probe, after an untimed one that brings its operands back into cache."""
    speed_probe()
    probes.append(speed_probe())


def run_pass(jobs, pass_index: int, tracer: Tracer | None, references, digests=None, probes=None):
    """Run the jobs once; with a probes list, time a speed probe before each job and after the last."""
    records = []
    if tracer is not None:
        tracer.install()
    try:
        for job in jobs:
            if probes is not None:
                probe_once(probes)
            out, error = None, None
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    out = job.fn(*job.args, **job.kwargs)
                else:
                    out = tracer.run_job(pass_index, job)
            except Exception as exc:
                error = exc
            latency = time.perf_counter() - t0
            records.append([job.name, latency, failure_of(job, out, error, references)])
            if digests is not None and job.digest is not None and error is None:
                digests[job.name] = workloads.sha256(job.digest(out))
        if probes is not None:
            probe_once(probes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return records


def layer_metrics(tracer: Tracer, jobs, traced_passes: list[int]) -> dict:
    """Per-layer numbers: medians over traced passes of per-pass totals."""
    totals = tracer.layer_totals()
    per_pass = [totals.get(p, {}) for p in traced_passes]
    out = {}
    for name in {n for t in per_pass for n in t if not n.startswith("job:")}:
        for key in ("calls", "self_s", "rows", "peak_alloc_mb", "output_bytes"):
            out[f"{name}.{key}"] = statistics.median(t.get(name, {}).get(key, 0.0) for t in per_pass)

    # chain rate of each motif class: steps over the run_chain span of its job
    steps = {job.name: job.steps for job in jobs}
    durations = defaultdict(list)
    for rec in tracer.spans:
        job_name = tracer.jobs[rec[JOB]][1]
        if rec[NAME] == "mcmc.run_chain" and tracer.spans[rec[PARENT]][NAME] == f"job:{job_name}":
            durations[job_name].append(rec[END] - rec[START])
    for job_name, spans in durations.items():
        out[f"mcmc.steps_per_s.{job_name}"] = statistics.median(steps[job_name] / d for d in spans)
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--record-references", action="store_true",
                   help="run one pass and write the default-seed trace digests")
    args = p.parse_args()

    jobs = workloads.build(args.workload, args.seed, args.size)
    workloads.warmup(args.workload)
    ready = time.monotonic()
    setup_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    if args.setup_only:
        print(json.dumps({"ready": ready, "probe_s": statistics.median(setup_probes)}))
        return 0

    if args.record_references:
        digests = {}
        run_pass(jobs, 0, None, None, digests)
        data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        data[args.workload] = {"seed": args.seed, "size": args.size, "digests": digests}
        REFERENCES.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
        print(json.dumps({"recorded": len(digests)}))
        return 0

    references = None
    if args.seed == workloads.DEFAULT_SEED and args.size == "full":
        ref = json.loads(REFERENCES.read_text()).get(args.workload, {})
        if ref.get("digests"):
            references = ref["digests"]

    passes = pass_count(args.workload, args.seconds, args.size)
    tracer = Tracer() if args.trace else None
    # Each pass runs the jobs in its own order, drawn from the seed, so that
    # a slow spell of the host does not fall on all jobs of one kind at once.
    order = np.random.default_rng([args.seed, 1 + workloads.WORKLOADS.index(args.workload)])
    origin = time.perf_counter()
    results = []
    for i in range(passes):
        traced = bool(args.trace) and i % 2 == 1
        shuffled = [jobs[j] for j in order.permutation(len(jobs))]
        probes = []
        t0 = time.perf_counter()
        records = run_pass(shuffled, i, tracer if traced else None, references, probes=probes)
        results.append({"traced": traced, "elapsed": time.perf_counter() - t0, "jobs": records,
                        "probe_s": statistics.median(probes), "probes": probes})

    report = {
        "ready": ready,
        "probe_s": statistics.median(setup_probes),
        "passes": results,
        "meta": {job.name: {"layer": job.layer, "steps": job.steps, "samples": job.samples,
                            "defect": job.defect} for job in jobs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_info(),
        "references_checked": references is not None,
    }
    if tracer is not None:
        traced_passes = [i for i, r in enumerate(results) if r["traced"]]
        report["layers"] = layer_metrics(tracer, jobs, traced_passes)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}-{args.size}.csv"
        tracer.write(spans_path, origin)
        report["spans_file"] = str(spans_path.relative_to(HERE.parent))
        report["span_count"] = len(tracer.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
