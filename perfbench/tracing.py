"""Spans around the calls between the package's modules, for traced runs.

In a traced pass the public names that the modules look up at call time
(module globals such as ``ergmlab.mcmc.batch_motif_densities``) are replaced
by timing wrappers; the originals are put back when the pass ends. No
private function is wrapped and no file of the package changes. Spans are
recorded only while a job runs, stay in memory, and are written out when
the run ends.
"""

from __future__ import annotations

import importlib
import time
import tracemalloc
from collections import defaultdict

# (module whose global is replaced, global name, span name). The span name is
# the module that defines the function, so a call counts toward that layer
# whichever module made it.
PATCHES = [
    ("ergmlab.mcmc", "hom_density_graph_fast", "graphs.hom_density_graph_fast"),
    ("ergmlab.mcmc", "maximize_scalar", "variational.maximize_scalar"),
    ("ergmlab.mcmc", "batch_motif_densities", "mcmc.batch_motif_densities"),
    ("ergmlab.mcmc", "sample_motif_densities", "mcmc.sample_motif_densities"),
    ("ergmlab.mcmc", "run_chain", "mcmc.run_chain"),
    ("ergmlab.mcmc", "chi_square_distance", "mcmc.chi_square_distance"),
    ("ergmlab.mcmc", "enumerate_psi_n", "mcmc.enumerate_psi_n"),
    ("ergmlab.mcmc", "estimate_importance", "mcmc.estimate_importance"),
    ("ergmlab.mcmc", "estimate_mcmle", "mcmc.estimate_mcmle"),
    ("ergmlab.mcmc", "estimate_acceptance_ratio", "mcmc.estimate_acceptance_ratio"),
    ("ergmlab.variational", "maximize_scalar", "variational.maximize_scalar"),
    ("ergmlab.variational", "phase_scan", "variational.phase_scan"),
    ("ergmlab.variational", "degeneracy_constants", "variational.degeneracy_constants"),
    ("ergmlab.variational", "euler_lagrange_solve", "variational.euler_lagrange_solve"),
    ("ergmlab.variational", "delta_h", "graphons.delta_h"),
    ("ergmlab.variational", "hom_density_graphon", "graphons.hom_density_graphon"),
    ("ergmlab.variational", "hom_density_graph_fast", "graphs.hom_density_graph_fast"),
    ("ergmlab.graphons", "cut_norm_diff", "graphons.cut_norm_diff"),
]

# span fields
NAME, START, END, PARENT, JOB, ATTRS = range(6)


class Tracer:
    """Records spans as [name, start, end, parent index, job id, attrs]."""

    def __init__(self):
        self.spans: list[list] = []
        self.jobs: list[tuple[int, str]] = []  # job id -> (pass index, job name)
        self._stack: list[int] = []
        self._job: int | None = None
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run fn inside a span; outside a job, just run it."""
        if self._job is None:
            return fn(*args, **(kwargs or {}))
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._job, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            rec[END] = time.perf_counter()
            self._stack.pop()

    def run_job(self, pass_index: int, job):
        """Run a job as a "job:<name>" span around a span of its top-level call."""
        self._job = len(self.jobs)
        self.jobs.append((pass_index, job.name))
        attrs = {}
        try:
            out = self.call(f"job:{job.name}", self.call, (job.layer, job.fn, job.args, job.kwargs, attrs))
        finally:
            self._job = None
        if job.layer == "cli.main":
            attrs["output_bytes"] = len(out.stdout.encode())
        return out

    # -- replacing module globals ------------------------------------------

    def install(self):
        for module_name, attr, span in PATCHES:
            module = importlib.import_module(module_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(span, orig))

    def uninstall(self):
        for module, attr, orig in reversed(self._saved):
            setattr(module, attr, orig)
        self._saved.clear()

    def _wrap(self, span: str, fn):
        if span == "mcmc.batch_motif_densities":
            def measured(motifs, n, bits):
                attrs = {"rows": int(bits.shape[0])}
                if self._job is None:
                    return fn(motifs, n, bits)
                tracemalloc.start()
                try:
                    return self.call(span, fn, (motifs, n, bits), attrs=attrs)
                finally:
                    attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()

            return measured

        def wrapper(*args, **kwargs):
            return self.call(span, fn, args, kwargs)

        return wrapper

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def layer_totals(self) -> dict[int, dict[str, dict[str, float]]]:
        """Per pass and span name: calls, self_s and the summed or peak attrs."""
        out: dict[int, dict[str, dict[str, float]]] = defaultdict(lambda: defaultdict(lambda: defaultdict(float)))
        for rec, self_s in zip(self.spans, self.self_times()):
            agg = out[self.jobs[rec[JOB]][0]][rec[NAME]]
            agg["calls"] += 1
            agg["self_s"] += self_s
            for key, value in (rec[ATTRS] or {}).items():
                if key == "peak_alloc_mb":
                    agg[key] = max(agg[key], value)
                else:
                    agg[key] += value
        return out

    def write(self, path, origin: float):
        """Write spans as CSV, times in seconds from origin."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,parent,job,pass,job_name,name,start_s,end_s,attrs\n")
            for idx, rec in enumerate(self.spans):
                pass_index, job_name = self.jobs[rec[JOB]]
                attrs = ";".join(f"{k}={v:.6g}" for k, v in (rec[ATTRS] or {}).items())
                fh.write(
                    f"{idx},{rec[PARENT]},{rec[JOB]},{pass_index},{job_name},{rec[NAME]},"
                    f"{rec[START] - origin:.9f},{rec[END] - origin:.9f},{attrs}\n"
                )
