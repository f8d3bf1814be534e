"""Fuzzing gadget sidecars: a corrupted packing never yields a gadget.

Each example starts from the sidecar `gen rs --k 3` writes and applies one
corruption to its packing: a float vertex, a float or string host_n, a
wrong kind, a non-triangle tuple, tuples sharing an edge, an out-of-range
vertex, a missing key or another host size. `gen c5-gadget` and
`gen poset-gadget` must exit 3 when the packing is malformed (not integer
tuples of a known kind) and 1 when it is well formed but certifies nothing
in the input, and write no graph either way.
"""

import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab.cli import main

K = 3
N = 6 * K
GADGETS = ("c5-gadget", "poset-gadget")
CORRUPTIONS = ("float vertex", "float host_n", "string host_n", "unknown kind",
               "c5 kind", "non-triangle", "shared edge", "out of range",
               "missing key", "other host_n")


@pytest.fixture(scope="module")
def rs(tmp_path_factory):
    """The rs graph file and its sidecar, read back as JSON."""
    path = tmp_path_factory.mktemp("rs") / "rs.el"
    assert main(["gen", "rs", "--k", str(K), "--out", str(path)]) == 0
    return path, json.loads(Path(f"{path}.json").read_text())


def _gen(kind, rs_path, sidecar, tmp):
    """Exit code of `gen kind` over the rs graph with `sidecar`, and whether
    it wrote the gadget's graph file."""
    side, out = Path(tmp) / "side.json", Path(tmp) / f"{kind}.el"
    side.write_text(json.dumps(sidecar))
    code = main(["gen", kind, "--from", str(rs_path), "--parts-json", str(side),
                 "--out", str(out)])
    return code, out.exists()


def _corrupt(data, packing, kind) -> int:
    """Apply one corruption to `packing` in place; the exit code it documents."""
    tuples = packing["tuples"]
    i = data.draw(st.integers(0, len(tuples) - 1), label="tuple")
    j = data.draw(st.integers(0, 2), label="position")
    if kind == "float vertex":
        tuples[i][j] = float(tuples[i][j])
    elif kind == "float host_n":
        packing["host_n"] = float(N)
    elif kind == "string host_n":
        packing["host_n"] = str(N)
    elif kind == "unknown kind":
        packing["kind"] = data.draw(st.sampled_from(["square", "", None, 3, "Triangle"]))
    elif kind == "missing key":
        del packing[data.draw(st.sampled_from(["kind", "tuples", "host_n"]))]
    elif kind == "out of range":
        tuples[i][j] = data.draw(st.sampled_from([N, N + 7, -1, -N]))
    elif kind == "c5 kind":
        # well-formed 5-tuples, refused for their kind before any verification
        packing["kind"] = "inducedC5"
        packing["tuples"] = [data.draw(st.permutations(range(N)))[:5]]
        return 1
    elif kind == "non-triangle":
        tuples[i] = data.draw(st.lists(st.integers(0, N - 1), min_size=3, max_size=3,
                                       unique=True).filter(lambda t: sorted(t) not in tuples))
        return 1
    elif kind == "shared edge":
        tuples.append(data.draw(st.permutations(tuples[i])))
        return 1
    else:
        packing["host_n"] = N + data.draw(st.integers(1, 50))
        return 1
    return 3


def test_clean_sidecar_builds_both_gadgets(rs):
    with tempfile.TemporaryDirectory() as tmp:
        for kind in GADGETS:
            assert _gen(kind, *rs, tmp) == (0, True)


@settings(max_examples=150)
@given(st.data())
def test_corrupted_sidecar_packing_exits_1_or_3(rs, data):
    rs_path, clean = rs
    sidecar = json.loads(json.dumps(clean))
    kind = data.draw(st.sampled_from(CORRUPTIONS), label="corruption")
    code = _corrupt(data, sidecar["packing"], kind)
    with tempfile.TemporaryDirectory() as tmp:
        for gadget in GADGETS:
            assert _gen(gadget, rs_path, sidecar, tmp) == (code, False), (gadget, kind)
