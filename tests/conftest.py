"""Hypothesis settings for the whole suite.

The profile leaves out hypothesis's explain phase, which replays a failing
example to say which of its parts mattered: on a failing property test
that phase has raised hypothesis's own AssertionError in place of the
falsifying example. Every test keeps its own example count, deadline and
derandomization.
"""

from hypothesis import Phase, settings

settings.register_profile("ergmlab", phases=[phase for phase in Phase if phase is not Phase.explain])
settings.load_profile("ergmlab")
