"""Property tests for graphs built without re-validation.

`from_edges` and `with_toggled` (from checked pairs), `induced_subgraph`,
`complement`, cut refinement and tripartite extraction build their results
through the trusted constructor, which skips `Graph.__init__`'s check.
These tests rebuild every derived graph through the validating constructor
and check the algebraic laws the derivations must obey.
"""

import io
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given
from hypothesis import strategies as st

from ptlab import graphs
from ptlab.decomposition import refine_along_cuts
from ptlab.graph_io import read_graph, write_graph
from ptlab.graphs import Graph, complement, induced_subgraph
from ptlab.packing import WitnessPacking, _apply_tripartition


@st.composite
def small_graphs(draw, max_n: int = 10) -> Graph:
    n = draw(st.integers(0, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph.from_edges(n, [p for p, k in zip(pairs, keep) if k])


@st.composite
def derivation_cases(draw):
    """A graph, a vertex subset of it, a list of pairs to toggle, a cut
    threshold beta and a tripartition of its vertices."""
    g = draw(small_graphs())
    beta = draw(st.sampled_from([Fraction(0), Fraction(1, 5), Fraction(2, 5)]))
    assign = draw(st.lists(st.integers(0, 2), min_size=g.n, max_size=g.n))
    if g.n == 0:
        return g, [], [], beta, assign
    vertex = st.integers(0, g.n - 1)
    subset = draw(st.sets(vertex))
    pairs = [] if g.n < 2 else draw(st.lists(
        st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]), max_size=6))
    return g, sorted(subset), pairs, beta, assign


def _revalidate(h: Graph) -> None:
    again = Graph(h.n, h.rows)  # raises ValueError on malformed rows
    assert again == h and again.m == h.m == len(list(h.edges()))


def _from_reversed_and_repeated(g: Graph) -> Graph:
    edges = list(g.edges())
    return Graph.from_edges(g.n, [(v, u) for u, v in reversed(edges)] + edges)


@given(derivation_cases())
def test_derived_graphs_pass_validation(case):
    g, subset, pairs, beta, assign = case
    tripartite, _ = _apply_tripartition(g, assign, WitnessPacking("triangle", (), g.n))
    for h in (g, _from_reversed_and_repeated(g), induced_subgraph(g, subset), complement(g), g.with_toggled(pairs),
              refine_along_cuts(g, beta).modified_graph, tripartite):
        _revalidate(h)


@given(derivation_cases())
def test_complement_laws(case):
    g, subset, *_ = case
    assert complement(complement(g)) == g
    assert (complement(induced_subgraph(g, subset))
            == induced_subgraph(complement(g), subset))
    assert g.m + complement(g).m == g.n * (g.n - 1) // 2


@given(derivation_cases())
def test_toggle_laws(case):
    g, _, pairs, *_ = case
    h = g.with_toggled(pairs)
    assert h.with_toggled(reversed(pairs)) == g
    for u, v in pairs:
        flips = sum(1 for p in pairs if set(p) == {u, v})
        assert h.has_edge(u, v) == (g.has_edge(u, v) != (flips % 2 == 1))


@given(small_graphs())
def test_from_edges_ignores_pair_order_and_repeats(g):
    assert _from_reversed_and_repeated(g) == g


@given(small_graphs(max_n=14))
def test_write_read_roundtrip(g):
    buf = io.StringIO()
    write_graph(g, buf)
    assert read_graph(io.StringIO(buf.getvalue())) == g


def test_fault_injection_breaks_derived_graph_check(monkeypatch):
    trusted = graphs._trusted_graph

    def drop_one_bit(n, rows):
        rows = list(rows)
        for u, row in enumerate(rows):
            if row:
                rows[u] = row & (row - 1)  # u forgets its lowest neighbour only
                break
        return trusted(n, rows)

    monkeypatch.setattr(graphs, "_trusted_graph", drop_one_bit)
    with pytest.raises(ValueError, match="asymmetric"):
        test_derived_graphs_pass_validation()
