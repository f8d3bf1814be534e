"""Shared pytest set-up: a reproducible hypothesis profile.

`derandomize=True` makes every fuzz run draw the same examples, so a
failure on one machine repeats on any other; `deadline=None` keeps a slow
shared runner from failing an example on time alone.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ptlab", derandomize=True, deadline=None)
    settings.load_profile("ptlab")
