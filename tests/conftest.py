"""Shared pytest set-up: a reproducible hypothesis profile, a payload digest
and a source patch for fault-injection tests.

`derandomize=True` makes every fuzz run draw the same examples, so a
failure on one machine repeats on any other; `deadline=None` keeps a slow
shared runner from failing an example on time alone.
"""

import inspect
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


@pytest.fixture
def patch_source(monkeypatch):
    """patch(module, name, old, new): replace `old`, which must occur once, in
    the source of `module`.`name`, exec the result in the module's namespace
    and set the patched function on the module for the test."""
    def patch(module, name, old, new):
        source = inspect.getsource(getattr(module, name))
        assert source.count(old) == 1, (name, old)
        namespace = dict(vars(module))
        exec(source.replace(old, new), namespace)
        monkeypatch.setattr(module, name, namespace[name])
    return patch
