"""What the benchmark under perfbench/ needs of the package, at its tiny size.

perfbench/tracing.py replaces package module globals by name in a traced
run, and perfbench/workloads.py builds each workload's jobs from public
calls and checks every output with an oracle of its own. No other test
imports them, so a renamed public name, or a changed output, would
otherwise show only when the benchmark runs. perfbench is read here, never
changed.
"""

import importlib
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_every_traced_global_resolves():
    missing = [f"{module}.{attr}" for module, attr, _ in tracing.PATCHES
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert missing == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_tiny_job_passes_its_oracle(workload):
    jobs = workloads.build(workload, 1, "tiny")
    assert jobs
    failures = [(job.name, msg) for job in jobs
                if (msg := job.check(job.fn(*job.args, **job.kwargs))) is not None]
    assert failures == []
