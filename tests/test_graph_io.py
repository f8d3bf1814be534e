import io

import pytest

from ptlab.graph_io import ParseError, read_digraph, read_graph, write_digraph, write_graph
from ptlab.graphs import Digraph, cycle_graph, gnp
from ptlab.rng import Stream


def test_roundtrip(tmp_path):
    rng = Stream(2)
    for i in range(20):
        g = gnp(9, 0.4, rng.child(i))
        path = tmp_path / f"g{i}.el"
        write_graph(g, path)
        assert read_graph(path) == g


def test_digraph_roundtrip(tmp_path):
    d = Digraph.from_arcs(4, [(0, 1), (1, 2), (0, 2), (3, 0)])
    path = tmp_path / "d.el"
    write_digraph(d, path)
    assert read_digraph(path) == d


def test_comments_and_whitespace():
    text = "# header comment\n5 5   # n m\n0 1\n1 2\n2 3\n3 4\n0 4\n"
    assert read_graph(io.StringIO(text)) == cycle_graph(5)


@pytest.mark.parametrize("text, fragment", [
    ("", "header"),
    ("2 1\n0 0\n", "self-loop"),
    ("2 1\n1 0\n", "u < v"),
    ("2 2\n0 1\n0 1\n", "duplicate"),
    ("2 1\n0 5\n", "out of range"),
    ("3 2\n0 1\n", "m=2"),
    ("2 1\nx y\n", "non-integer"),
    ("2 1 directed\n0 1\n", "undirected"),
    (b"3 1\n0 1\n\xff\n", "undecodable"),
])
def test_parse_errors(text, fragment):
    source = (io.TextIOWrapper(io.BytesIO(text), encoding="utf-8")
              if isinstance(text, bytes) else io.StringIO(text))
    with pytest.raises(ParseError) as err:
        read_graph(source)
    assert fragment in str(err.value)


def test_digraph_header_required():
    with pytest.raises(ParseError):
        read_digraph(io.StringIO("2 1\n0 1\n"))
    d = read_digraph(io.StringIO("2 2 directed\n0 1\n1 0\n"))
    assert d.has_arc(0, 1) and d.has_arc(1, 0)
