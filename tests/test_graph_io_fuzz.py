"""Fuzzing the edge-list reader: every malformed file is a ParseError and
makes the CLI exit 3.

Each example is a well-formed undirected or directed file on at most 64
vertices with one corruption applied: a bad header, a bad endpoint line, a
duplicate edge, a wrong edge count, or the other kind's header. The clean
file must parse, so every failure is the corruption's.
"""

import io
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings
from hypothesis import strategies as st

from ptlab.cli import main
from ptlab.graph_io import ParseError, read_digraph, read_graph

CORRUPTIONS = ("header", "endpoint", "duplicate", "wrong-m", "mixed")


def _file(n, m, directed, lines):
    return "\n".join([f"{n} {m}" + (" directed" if directed else "")] + lines) + "\n"


@st.composite
def malformed_files(draw):
    """(directed, clean text, malformed text, corruption); `directed` names
    the reader the malformed text is handed to."""
    directed = draw(st.booleans())
    n = draw(st.integers(2, 64))
    vertex = st.integers(0, n - 1)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    if not directed:
        pair = pair.map(lambda p: (min(p), max(p)))
    edges = draw(st.lists(pair, unique=True, max_size=12))
    lines = [f"{u} {v}" for u, v in edges]
    clean = _file(n, len(edges), directed, lines)
    kind = draw(st.sampled_from([c for c in CORRUPTIONS if edges or c != "duplicate"]))
    m = len(edges)
    tail = " directed" if directed else ""
    if kind == "header":
        header = draw(st.sampled_from([
            f"{n}{tail}", f"{n} {m} {m}{tail}", f"{n} {m} undirected", f"{n} x{tail}",
            f"{n}.0 {m}{tail}", f"-{n} {m}{tail}", f"{n} -1{tail}", f"{n} {m} directed x"]))
        bad = "\n".join([header] + lines) + "\n"
    elif kind == "endpoint":
        u, over = draw(vertex), n + draw(st.integers(0, 5))
        line = draw(st.sampled_from([
            f"{u} {over}", f"-1 {u}", f"{u} {u}", f"{u}", f"{u} {(u + 1) % n} {u}",
            f"{u} y", "1e1 0"] + ([] if directed else ["1 0"])))
        bad = _file(n, m + 1, directed, lines + [line])
    elif kind == "duplicate":
        bad = _file(n, m + 1, directed, lines + [draw(st.sampled_from(lines))])
    elif kind == "wrong-m":
        delta = draw(st.integers(-m, 5).filter(lambda k: k != 0))
        bad = _file(n, m + delta, directed, lines)
    else:
        bad, directed = clean, not directed
    return directed, clean, bad, kind


@settings(max_examples=300)
@given(malformed_files())
def test_malformed_files_raise_parse_error_and_exit_3(case):
    directed, clean, bad, kind = case
    reader = read_digraph if directed else read_graph
    if kind != "mixed":
        reader(io.StringIO(clean))
    with pytest.raises(ParseError):
        reader(io.StringIO(bad))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bad.el"
        path.write_text(bad)
        prop = "poset" if directed else "cograph"
        assert main(["recognize", "--property", prop, "--in", str(path)]) == 3
