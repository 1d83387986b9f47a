"""Self-test of the benchmark at a tiny size; exits 1 if a check fails.

Runs every workload once untraced and twice traced, with --size tiny, and
checks that:
  - every end-to-end and per-layer metric of BENCHMARK.json is printed with
    its unit, and the three report-only metrics (fail_ratio,
    chain_steps_per_s, importance_samples_per_s) appear on the workloads
    they apply to;
  - in the span file, no span's children cover more than its duration, so
    the self times of a span's descendants never sum to more than it;
  - the two traced runs give identical calls and rows counts;
  - every per-layer metric is nonzero on some workload, so each name in
    BENCHMARK.json matches a span the trace records.

    python3 perfbench/selftest.py        # from the repository root
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

RUN = [sys.executable, "perfbench/run.py", "--size", "tiny", "--seconds", "1", "--seed", "7"]
REPORT_ONLY = {
    "chains": ["fail_ratio", "chain_steps_per_s"],
    "landscape": ["fail_ratio"],
    "exact": ["fail_ratio", "importance_samples_per_s"],
}


def run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run([*RUN, "--workload", workload, "--trace", str(trace)],
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    return proc.stdout, json.loads(proc.stdout.strip().splitlines()[-1])


def check_spans(path: Path) -> list[str]:
    rows = list(csv.DictReader(path.open(encoding="utf-8")))
    duration = {r["span"]: float(r["end_s"]) - float(r["start_s"]) for r in rows}
    children = defaultdict(float)
    for r in rows:
        if r["parent"] != "-1":
            children[r["parent"]] += duration[r["span"]]
    return [f"{path.name}: span {s} children cover {c:.9f} s of its {duration[s]:.9f} s"
            for s, c in children.items() if c > duration[s] + 1e-9]


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    exercised = set()
    for workload in ("chains", "landscape", "exact"):
        text, result = run(workload, 0)
        want = {e["name"]: e["unit"] for e in spec["end_to_end"]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        if got != want:
            problems.append(f"{workload}: end-to-end metrics {got} != {want}")
        for name in REPORT_ONLY[workload]:
            if not any(ln.strip().startswith(name) and "n/a" not in ln for ln in text.splitlines()):
                problems.append(f"{workload}: report line for {name} missing")
        if not result["correct"]:
            problems.append(f"{workload}: a check failed outside the known defects")

        counts = []
        for _ in range(2):
            text, result = run(workload, 1)
            want = {e["name"]: e["unit"] for e in spec["per_layer"]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{workload}: per-layer metrics differ from BENCHMARK.json")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if k.endswith((".calls", ".rows"))})
            problems += check_spans(Path(f"perfbench/out/spans-{workload}-seed7-tiny.csv"))
        for name, value in result["metrics"].items():
            if value["value"]:
                exercised.add(name)
        if counts[0] != counts[1]:
            diff = {k: (counts[0][k], counts[1][k]) for k in counts[0] if counts[0][k] != counts[1][k]}
            problems.append(f"{workload}: traced counts differ between runs: {diff}")
        print(f"{workload}: checked", flush=True)
    never = [e["name"] for e in spec["per_layer"] if e["name"] not in exercised]
    if never:
        problems.append(f"per-layer metrics that read 0 on every workload: {never}")
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
