"""Shared pytest set-up: a reproducible hypothesis profile and a payload digest.

`derandomize=True` makes every fuzz run draw the same examples, so a
failure on one machine repeats on any other; `deadline=None` keeps a slow
shared runner from failing an example on time alone.
"""

from hashlib import sha256

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("ptlab", derandomize=True, deadline=None)
    settings.load_profile("ptlab")


@pytest.fixture
def digest():
    """A short sha256 of an object's repr, for pinning payloads built from
    Python ints, strings, floats, Fractions and tuples (no numpy scalars,
    whose repr differs between numpy versions)."""
    return lambda obj: sha256(repr(obj).encode()).hexdigest()[:16]
