"""The recognizers' scan cores on (rows, mask) against brute force.

Each core decides a property on the vertices of a mask in host indexing.
The oracles, from `ptlab.oracles`, share no code with the cores: they
enumerate vertex subsets of the mask and test each by its induced degrees
and connectivity, except cographs, whose oracle splits the mask by the
definition (disjoint union and complement), comparability, whose oracle is
the exhaustive orientation search on the mask, the part-order check, whose
oracle orients the mask's edges by a random labeling and tests every
triple, and the poset core, whose oracle tests every arc pair and triple of
a random orientation of the host. A `perfect` hit must induce a chordless
odd cycle in g or its complement, and an `induced-c5-free` hit a 5-cycle.
"""

import functools
import hashlib
import random
from itertools import combinations

import pytest

import ptlab.gadgets as GA
import ptlab.oracles as O
import ptlab.recognizers as R
from ptlab.graphs import PartLabeling, _co_rows, _induced_c5_fans, cycle_graph
from ptlab.rng import Stream
from ptlab.testers import universal_tester
from ptlab.verify import all_graphs


def _free_of_connected(degrees):
    """Membership: no vertex subset induces a connected graph with these sorted degrees."""
    k = len(degrees)
    return lambda rows, vs: not any(O.degrees(rows, s) == degrees and len(O.reach(rows, s)) == k
                                    for s in combinations(vs, k))


# each host property's membership oracle on (rows, vertex set)
MEMBER = {"triangle-free": O.triangle_free, "cograph": O.cograph, "perfect": O.perfect,
          "comparability": O.transitively_orientable,
          "induced-p3-free": lambda rows, vs: not O.induced_sets(rows, vs, 4),
          "induced-c5-free": lambda rows, vs: not O.induced_sets(rows, vs, 5),
          "induced-h-free:cycle:4": _free_of_connected([2, 2, 2, 2]),
          "induced-h-free:path:5": _free_of_connected([1, 1, 2, 2, 2])}


def _oracle(name, rows, vs, part, arcs):
    """Does the subgraph induced on `vs` violate the named property? `part`
    gives each vertex's part index for the order check, `arcs` the out-rows
    of the digraph the poset core decides."""
    if name == "poset":
        inside = {(u, v) for u in vs for v in vs if (arcs[u] >> v) & 1}
        return (any((v, u) in inside for u, v in inside)
                or any((v, z) in inside and (u, z) not in inside
                       for u, v in inside for z in vs if z != u))
    if name == "order":
        arcs = {(u, v) for u in vs for v in vs
                if rows[u] >> v & 1 and (part[u], u) < (part[v], v)}
        return any((v, z) in arcs and (u, z) not in arcs
                   for u, v in arcs for z in vs)
    return not MEMBER[name](rows, vs)


def _cases(count=1200, seed=20261018):
    """Hosts on 5..10 vertices at several densities, a third of them with a
    planted chordless 5-, 7- or 9-cycle and a third with its complement,
    each with a random mask and a random labeling into 1..4 parts (drawn
    from a second generator), and a digraph orienting each edge one way,
    the other way or both ways (drawn from a third generator)."""
    rnd, rnd_parts = random.Random(seed), random.Random(seed + 1)
    rnd_arcs = random.Random(seed + 2)
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
        both = rnd_arcs.choice((0.0, 0.0, 0.05, 0.2))
        arcs = [0] * n
        for (u, v), edge in pairs.items():
            if edge:
                r = rnd_arcs.random()  # below `both`: both ways; above: u -> v or v -> u
                if r < (1 + both) / 2:
                    arcs[u] |= 1 << v
                if r < both or r >= (1 + both) / 2:
                    arcs[v] |= 1 << u
        yield rows, [v for v in range(n) if rnd.random() < keep], part, arcs


CASES = list(_cases())


def _host_only(core):
    return lambda rows, mask, extra: core(rows, mask)


def _order_core(rows, mask, extra):
    labeling, _ = extra
    return R._order_hit(rows, mask, R._later_masks(labeling))


def _poset_core(rows, mask, extra):
    _, arcs = extra
    return R._poset_hit(arcs, mask)


# every core under test, as (rows, mask, (labeling, arcs)) -> hit or None;
# the general induced-H scan is covered through cycle:4 and path:5
CORES = {name: _host_only(core) for name, (core, *_) in R._PROPERTIES.items()}
CORES.update({name: _host_only(R._resolve(name)[0])
              for name in ("induced-h-free:cycle:4", "induced-h-free:path:5")})
CORES["order"] = _order_core
CORES["poset"] = _poset_core


def _bad_witness(name, rows, hit):
    """Why a core's hit is not the structure it claims, or None: a `perfect`
    hit must induce a chordless odd cycle of length at least 5 in g (an
    odd hole) or in its complement (an odd antihole), and an
    `induced-c5-free` hit must induce a 5-cycle."""
    if name == "perfect":
        vs, label = hit
        if label == "odd-antihole":
            rows = O.complement(rows, vs)
        elif label != "odd-hole":
            return f"label {label!r}"
        if not O.odd_hole(rows, vs):
            return f"{label} {vs} is not a chordless odd cycle of length >= 5"
    elif name == "induced-c5-free" and not O.induces(rows, hit):
        return f"{hit} does not induce a 5-cycle"
    return None


def core_mismatches(names=None):
    """(name, rows, mask vertices, why) where one of the named cores (default:
    all of `CORES`) disagrees with its oracle, returns a hit outside its
    mask, or returns a perfect or induced-c5-free hit that is not the
    structure it claims."""
    cores = {name: CORES[name] for name in (names or CORES)}
    bad = []
    for rows, vs, part, arcs in CASES:
        mask = sum(1 << v for v in vs)
        labeling = PartLabeling(len(rows), [(str(j), [v for v in range(len(rows))
                                                      if part[v] == j]) for j in range(4)])
        for name, core in cores.items():
            hit = core(rows, mask, (labeling, arcs))
            if (hit is not None) != _oracle(name, rows, vs, part, arcs):
                bad.append((name, rows, vs, "decision"))
            elif name != "comparability" and hit is not None:
                if not set(hit[0] if name in ("poset", "perfect") else hit) <= set(vs):
                    bad.append((name, rows, vs, "outside the mask"))
                elif why := _bad_witness(name, rows, hit):
                    bad.append((name, rows, vs, why))
    return bad


def test_cores_match_brute_force():
    assert core_mismatches() == []


def test_general_induced_h_cores_take_the_subset_scan():
    for name in ("induced-h-free:cycle:4", "induced-h-free:path:5"):
        assert R._resolve(name)[0].func is R._find_induced_h


@pytest.mark.parametrize("name", sorted(CORES))
def test_fault_injection_core_ignoring_top_vertex_is_caught(monkeypatch, name):
    core = CORES[name]

    def blind(rows, mask, extra):
        return core(rows, mask & ~(1 << (mask.bit_length() - 1)) if mask else mask, extra)

    monkeypatch.setitem(CORES, name, blind)
    assert any(m[0] == name for m in core_mismatches([name]))


def test_fault_injection_hole_dfs_keeping_interior_closers_is_caught(patch_source):
    """A hole DFS that stops removing the interior's neighborhoods from its
    live closers closes paths through chords; the witness check catches
    such a cycle even where the decision is right."""
    patch_source(R, "_find_odd_hole", "alive ^= closers", "pass")
    reasons = [m[3] for m in core_mismatches(["perfect"])]
    assert any("not a chordless odd cycle" in why for why in reasons)


@pytest.mark.parametrize("n", range(1, 7))
def test_forcing_agrees_with_exhaustive_on_all_graphs(n):
    full = (1 << n) - 1
    for g in all_graphs(n):
        forced = R._comparability_hit(g.rows, full) is None
        assert forced == O.transitively_orientable(g.rows, range(n)), g.rows


def test_perfect_core_keeps_the_exact_bound():
    rows = [0] * (R.PERFECT_EXACT_BOUND + 1)
    with pytest.raises(ValueError, match="exact perfectness limited"):
        R._resolve("perfect")[0](rows, (1 << len(rows)) - 1)
    assert R._resolve("perfect")[0](rows, (1 << R.PERFECT_EXACT_BOUND) - 1) is None
    g = cycle_graph(R.PERFECT_EXACT_BOUND + 2)
    assert universal_tester(g, R.PERFECT_EXACT_BOUND, "perfect", Stream(3)).accepted
    with pytest.raises(ValueError, match="exact perfectness limited"):
        universal_tester(g, R.PERFECT_EXACT_BOUND + 1, "perfect", Stream(3))


def _pin_inputs():
    """(rows, mask, later, arcs, arcs_mask) for the pin: seeded G(n, p),
    n = 5..16, each with its full mask and two random masks, then 14- and
    15-vertex samples of the rs(6) five-part gadget (with its own part order)
    and of its G(n, p) control, each beside a sample of the poset gadget
    over rs(6). `later` is a part order's later-masks, `arcs` the out-rows
    the poset core reads inside `arcs_mask`."""
    from ptlab.pipelines import match_gnp_control

    rnd = random.Random(20261019)
    for n in range(5, 17):
        for p in (0.15, 0.3, 0.5, 0.7, 0.85):
            for _ in range(4):
                rows, arcs = [0] * n, [0] * n
                for u, v in combinations(range(n), 2):
                    if rnd.random() < p:
                        rows[u] |= 1 << v
                        rows[v] |= 1 << u
                        r = rnd.random()  # below 0.45: u -> v, above 0.55: v -> u
                        if r < 0.55:
                            arcs[u] |= 1 << v
                        if r > 0.45:
                            arcs[v] |= 1 << u
                k = rnd.randint(1, 4)
                part = [rnd.randrange(k) for _ in range(n)]
                later = R._later_masks(PartLabeling(
                    n, [(str(j), [v for v in range(n) if part[v] == j]) for j in range(k)]))
                for keep in (1.0, 0.6, 0.85):
                    mask = sum(1 << v for v in range(n) if rnd.random() < keep)
                    yield rows, mask, later, arcs, mask
    rb = GA.rs_graph(6, GA.ap3_free_set(6, "exact"))
    gb = GA.build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")), rb.certificate)
    pb = GA.build_poset_gadget(rb.graph, rb.labeling.relabel(("V1", "V2", "V3")),
                               rb.certificate)
    control, _ = match_gnp_control(gb.graph.n, len(gb.certificate), Stream(19, (1,)))
    later = R._later_masks(gb.labeling)
    for host in (gb.graph, control):
        for d in (14, 15):
            for _ in range(40):
                mask = sum(1 << v for v in rnd.sample(range(host.n), d))
                arcs_mask = sum(1 << v for v in rnd.sample(range(rb.graph.n), d))
                yield host.rows, mask, later, pb.graph.rows, arcs_mask


def _pin_digest():
    h = hashlib.sha256()
    for rows, mask, later, arcs, arcs_mask in _pin_inputs():
        hits = [R._find_odd_hole(rows, mask),
                R._find_odd_hole(_co_rows(rows, mask), mask),
                R._odd_hole_or_antihole(rows, mask)
                if mask.bit_count() <= R.PERFECT_EXACT_BOUND else "guarded",
                list(_induced_c5_fans(rows, mask)),
                R._comparability_hit(rows, mask),
                R._order_hit(rows, mask, later),
                R._poset_hit(arcs, arcs_mask)]
        h.update(repr(hits).encode())
    return h.hexdigest()[:16]


def test_first_hits_pinned():
    """The first hit of each exhaustive scan core (odd holes and antiholes,
    induced 5-cycle fans, forcing and the order and poset checks) on seeded
    hosts and gadget samples, pinned by digest: a faster core must return
    the same hit for every (rows, mask)."""
    assert _pin_digest() == "7a3a6d113d863f78"


# --- the odd-cycle scan -----------------------------------------------------------

@functools.cache
def _c5_gadget_rows(k):
    """Rows of the five-part c5 gadget over rs(k): 180 vertices at k = 6, 240 at k = 8."""
    rb = GA.rs_graph(k, GA.ap3_free_set(k, "exact"))
    return GA.build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")),
                              rb.certificate).graph.rows


def _odd_cycle_cases():
    """(rows, mask vertices): every graph on at most 6 vertices with all its
    vertices, then random masks of 4 to 60 vertices over the 180- and
    240-vertex c5 gadgets, whose samples of 14 or 15 are mostly bipartite."""
    for n in range(7):
        for rows in O.labeled_graphs(n):
            yield rows, range(n)
    rnd = random.Random(20261020)
    for k in (6, 8):
        rows = _c5_gadget_rows(k)
        for size in (4, 8, 14, 15, 20, 30, 60):
            for _ in range(40):
                yield rows, sorted(rnd.sample(range(len(rows)), size))


def odd_cycle_mismatch():
    """The first case where the odd-cycle scan `R._find_odd_cycle` disagrees
    with the two-colouring oracle, or returns a hit that is not an edge
    inside the mask, as (rows, mask vertices, why); None if there is none."""
    for rows, vs in _odd_cycle_cases():
        mask = sum(1 << v for v in vs)
        hit = R._find_odd_cycle(rows, mask)
        if (hit is None) != O.two_colourable(rows, vs):
            return rows, list(vs), "decision"
        if hit is not None and not (set(hit) <= set(vs) and rows[hit[0]] >> hit[1] & 1):
            return rows, list(vs), f"{hit} is not an edge inside the mask"
    return None


def test_odd_cycle_scan_matches_two_colouring():
    assert odd_cycle_mismatch() is None
    # the gadget cases hold both answers
    rows = _c5_gadget_rows(6)
    rnd = random.Random(5)
    hits = [R._find_odd_cycle(rows, sum(1 << v for v in rnd.sample(range(180), 30)))
            for _ in range(40)]
    assert any(hit is None for hit in hits) and any(hit is not None for hit in hits)


def test_fault_injection_scan_of_the_lowest_component_only_is_caught(patch_source):
    """A scan that colours only the component of the mask's lowest vertex
    misses a triangle beside an isolated vertex."""
    isolated_and_triangle = [0, 0b1100, 0b1010, 0b0110]
    assert R._find_odd_cycle(isolated_and_triangle, 0b1111) is not None
    patch_source(R, "_find_odd_cycle", "rest ^= seen", "rest = 0")
    assert R._find_odd_cycle(isolated_and_triangle, 0b1111) is None
    assert odd_cycle_mismatch() is not None
