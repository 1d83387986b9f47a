"""maximize_scalar against a dense reference grid.

maximize_scalar brackets the roots of the objective's derivative on a grid
of GRID_POINTS points. For random models of 2 or 3 terms (|beta| <= 5,
motifs from the edge to complete:4), no point of a far denser reference
grid may beat its psi by more than 1e-12: 2^18 points per tail, geometric
down to 1e-12 at both ends, plus 2^18 uniform points on [0, 1]. Every
reported interior maximizer must be a local maximum, with f'' <= 0 up to
rounding.
"""

import functools
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ergmlab.graphons import edge_entropy
from ergmlab.graphs import Motif
from ergmlab.variational import ModelSpec, _second_derivative, maximize_scalar

POOL = ["edge", "star:2", "triangle", "star:3", "cycle:4", "complete:4"]
REFERENCE_TAIL = 2**18


@functools.cache
def reference_grid() -> np.ndarray:
    tail = np.geomspace(1e-12, 0.5, REFERENCE_TAIL)
    return np.unique(np.concatenate([tail, 1.0 - tail, np.linspace(0.0, 1.0, REFERENCE_TAIL)]))


@functools.cache
def reference_power(e: int) -> np.ndarray:
    """u^e on the reference grid; e = 0 gives the entropy part -I(u) instead."""
    return reference_grid() ** e if e else -edge_entropy(reference_grid())


@st.composite
def models(draw):
    names = draw(st.lists(st.sampled_from(POOL), min_size=2, max_size=3, unique=True))
    betas = draw(st.lists(st.floats(-5.0, 5.0), min_size=len(names), max_size=len(names)))
    return ModelSpec([(Motif.parse(name), b) for name, b in zip(names, betas)])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(models())
def test_no_reference_grid_point_beats_the_reported_maximum(model):
    report = maximize_scalar(model)
    values = reference_power(0)
    for e, b in zip(model.edges, model.betas):
        values = values + b * reference_power(e)
    assert values.max() - report.psi <= 1e-12, model.terms
    ends = (math.nextafter(0.0, 1.0), math.nextafter(1.0, 0.0))
    for x in report.maximizers:
        if x in ends:  # an endpoint fallback, not a root of f'
            continue
        parts = [b * e * (e - 1) * x ** (e - 2) for e, b in zip(model.edges, model.betas) if e >= 2]
        size = sum(map(abs, parts)) + 0.5 / (x * (1.0 - x))
        assert _second_derivative(model.edges, model.betas, x) <= 64 * math.ulp(size), (model.terms, x)
