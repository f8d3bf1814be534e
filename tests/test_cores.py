"""The recognizers' scan cores on (rows, mask) against brute force.

Each core decides a property on the vertices of a mask in host indexing.
The oracles here share no code with the cores: they enumerate vertex
subsets of the mask and test each by its induced degrees and connectivity,
except comparability, whose oracle is the exhaustive orientation search on
the induced subgraph, and the part-order check, whose oracle orients the
mask's edges by a random labeling and tests every triple.
"""

import random
from itertools import combinations

import pytest

import ptlab.recognizers as R
from ptlab.graphs import Graph, PartLabeling, cycle_graph, induced_subgraph
from ptlab.rng import Stream
from ptlab.testers import universal_tester
from ptlab.verify import all_graphs


def _neighbor_sets(rows):
    return [{v for v in range(len(rows)) if (row >> v) & 1} for row in rows]


def _degrees(nbrs, sub):
    s = set(sub)
    return sorted(len(nbrs[v] & s) for v in sub)


def _connected(nbrs, sub):
    s, seen, todo = set(sub), {sub[0]}, [sub[0]]
    while todo:
        for w in nbrs[todo.pop()] & s - seen:
            seen.add(w)
            todo.append(w)
    return seen == s


def _has(nbrs, vs, sizes, test):
    return any(test(nbrs, sub) for k in sizes for sub in combinations(vs, k))


def _odd_cycle(nbrs, sub):
    """A connected 2-regular induced subgraph is a chordless cycle."""
    return _degrees(nbrs, sub) == [2] * len(sub) and _connected(nbrs, sub)


def _connected_with(degrees):
    return lambda a, s: _degrees(a, s) == degrees and _connected(a, s)


def _oracle(name, rows, vs, part):
    """Does the subgraph induced on `vs` violate the named property? `part`
    gives each vertex's part index for the order check."""
    nbrs = _neighbor_sets(rows)
    co = [set(vs) - nbrs[v] - {v} if v in vs else set() for v in range(len(rows))]
    odd = range(5, len(vs) + 1, 2)
    if name == "triangle-free":
        return _has(nbrs, vs, [3], lambda a, s: _degrees(a, s) == [2, 2, 2])
    if name in ("cograph", "induced-p3-free"):
        return _has(nbrs, vs, [4], lambda a, s: _degrees(a, s) == [1, 1, 2, 2])
    if name == "induced-c5-free":
        return _has(nbrs, vs, [5], lambda a, s: _degrees(a, s) == [2] * 5)
    if name == "perfect":
        return _has(nbrs, vs, odd, _odd_cycle) or _has(co, vs, odd, _odd_cycle)
    if name == "induced-h-free:cycle:4":
        return _has(nbrs, vs, [4], _connected_with([2, 2, 2, 2]))
    if name == "induced-h-free:path:5":
        return _has(nbrs, vs, [5], _connected_with([1, 1, 2, 2, 2]))
    if name == "order":
        arcs = {(u, v) for u in vs for v in nbrs[u] & set(vs) if (part[u], u) < (part[v], v)}
        return any((v, z) in arcs and (u, z) not in arcs
                   for u, v in arcs for z in vs)
    assert name == "comparability"
    return not R._orientable_exhaustive(induced_subgraph(Graph(len(rows), rows), vs))


def _cases(count=1200, seed=20261018):
    """Hosts on 5..10 vertices at several densities, a third of them with a
    planted chordless 5-, 7- or 9-cycle and a third with its complement,
    each with a random mask and a random labeling into 1..4 parts (drawn
    from a second generator)."""
    rnd, rnd_parts = random.Random(seed), random.Random(seed + 1)
    for i in range(count):
        n = rnd.randint(5, 10)
        p = rnd.choice((0.2, 0.35, 0.5, 0.65, 0.8))
        rows = [0] * n
        pairs = {pair: rnd.random() < p for pair in combinations(range(n), 2)}
        if i % 3:
            cyc = rnd.sample(range(n), rnd.choice([k for k in (5, 7, 9) if k <= n]))
            for a, b in combinations(cyc, 2):
                j = abs(cyc.index(a) - cyc.index(b))
                pairs[min(a, b), max(a, b)] = (j in (1, len(cyc) - 1)) == (i % 3 == 1)
        for (u, v), edge in pairs.items():
            if edge:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
        keep = rnd.choice((0.6, 0.8, 1.0))
        k = rnd_parts.randint(1, 4)
        part = [rnd_parts.randrange(k) for _ in range(n)]
        yield rows, [v for v in range(n) if rnd.random() < keep], part


CASES = list(_cases())


def _host_only(core):
    return lambda rows, mask, labeling: core(rows, mask)


def _order_core(rows, mask, labeling):
    return R._order_hit(rows, mask, R._later_masks(labeling))


# every core under test, as (rows, mask, labeling) -> hit or None; the
# general induced-H scan is covered through cycle:4 and path:5
CORES = {name: _host_only(core) for name, core in R._CORES.items()}
CORES.update({name: _host_only(R._core(name))
              for name in ("induced-h-free:cycle:4", "induced-h-free:path:5")})
CORES["order"] = _order_core


def core_mismatches():
    """(name, rows, mask vertices) where a core disagrees with its oracle,
    or returns a hit outside its mask."""
    bad = []
    for rows, vs, part in CASES:
        mask = sum(1 << v for v in vs)
        labeling = PartLabeling(len(rows), [(str(j), [v for v in range(len(rows))
                                                      if part[v] == j]) for j in range(4)],
                                allow_empty=True)
        for name, core in CORES.items():
            hit = core(rows, mask, labeling)
            if (hit is not None) != _oracle(name, rows, vs, part):
                bad.append((name, rows, vs))
            elif name not in ("comparability", "perfect") and hit is not None:
                if not set(hit) <= set(vs):
                    bad.append((name, rows, vs))
    return bad


def test_cores_match_brute_force():
    assert core_mismatches() == []


def test_general_induced_h_cores_take_the_subset_scan():
    for name in ("induced-h-free:cycle:4", "induced-h-free:path:5"):
        assert R._core(name).func is R._find_induced_h


@pytest.mark.parametrize("name", sorted(CORES))
def test_fault_injection_core_ignoring_top_vertex_is_caught(monkeypatch, name):
    core = CORES[name]

    def blind(rows, mask, labeling):
        return core(rows, mask & ~(1 << (mask.bit_length() - 1)) if mask else mask, labeling)

    monkeypatch.setitem(CORES, name, blind)
    assert any(m[0] == name for m in core_mismatches())


@pytest.mark.parametrize("n", range(1, 7))
def test_forcing_agrees_with_exhaustive_on_all_graphs(n):
    full = (1 << n) - 1
    for g in all_graphs(n):
        forced = R._comparability_hit(g.rows, full) is None
        assert forced == R._orientable_exhaustive(g), g.rows


def test_perfect_core_keeps_the_exact_bound():
    rows = [0] * (R.PERFECT_EXACT_BOUND + 1)
    with pytest.raises(ValueError, match="exact perfectness limited"):
        R._CORES["perfect"](rows, (1 << len(rows)) - 1)
    assert R._CORES["perfect"](rows, (1 << R.PERFECT_EXACT_BOUND) - 1) is None
    g = cycle_graph(R.PERFECT_EXACT_BOUND + 2)
    assert universal_tester(g, R.PERFECT_EXACT_BOUND, "perfect", Stream(3)).accepted
    with pytest.raises(ValueError, match="exact perfectness limited"):
        universal_tester(g, R.PERFECT_EXACT_BOUND + 1, "perfect", Stream(3))
