"""Fault injection for the benchmark's output checks.

Each test hands one check a correct ptlab output, which must pass, and then
a wrong answer, which must fail. Run with

    python3 benchmarks/faults.py            # or: python3 -m pytest benchmarks/faults.py

The file name keeps the repository's test run from collecting it.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ptlab.decomposition as D  # noqa: E402
import ptlab.extremal as E  # noqa: E402
import ptlab.gadgets as GA  # noqa: E402
import ptlab.graphs as G  # noqa: E402
import ptlab.packing as PK  # noqa: E402
import ptlab.pipelines as PL  # noqa: E402
import ptlab.recognizers as R  # noqa: E402
import ptlab.testers as T  # noqa: E402
from ptlab.rng import Stream  # noqa: E402

import workloads as W  # noqa: E402


def _fake(obj, **changes):
    """A look-alike of a dataclass output with some fields changed and none
    of its constructor's own validation."""
    fields = dict(obj.__dict__)
    fields.update(changes)
    return SimpleNamespace(**fields)


def _says(failures: list[str], words: str) -> bool:
    """The check failed, and for the reason the fault was meant to trip."""
    return any(words in msg for msg in failures)


def _rs(k=6):
    return GA.rs_graph(k, GA.ap3_free_set(k, "exact"))


# --- detect -----------------------------------------------------------------

def test_member_and_c5_reports():
    cograph = G.random_cograph(12, Stream(1))
    rep = T.estimate_detection(cograph, T.TesterConfig("quadruple-density", t=5), 50, Stream(2))
    assert not W.check_report("cograph", rep)
    assert W.check_report("cograph", replace(rep, rejections=1))
    c5 = G.cycle_graph(5)
    rep = T.estimate_detection(c5, T.TesterConfig("quadruple-density", t=1), 50, Stream(3))
    assert not W.check_report("c5", rep)
    assert W.check_report("c5", replace(rep, rejections=49))


def test_binomial_band():
    p = 0.01
    trials, t = 4000, 10
    expect = round(trials * (1 - (1 - p) ** t))
    assert not W.check_binomial(expect, trials, p, t)
    assert W.check_binomial(expect + 120, trials, p, t)
    assert W.check_binomial(0, trials, p, t)


def test_hardness_mechanism_and_farness():
    rows, extra = PL.pipeline_hardness([4], 12, 10, Stream(4))
    assert not W.check_hardness(rows, extra)
    broken = {"mechanism": {k: dict(m, trifree_pass=m["trifree_pass"] - 1)
                            for k, m in extra["mechanism"].items()}}
    assert W.check_hardness(rows, broken)
    gadget_far = next(r.farness for r in rows if r.graph == "gadget")
    low = [replace(r, farness=gadget_far / 2) if r.graph == "control" else r for r in rows]
    assert W.check_hardness(low, extra)


def test_rerun_equality():
    g = _rs(8).graph
    config = T.TesterConfig("triple-density", t=10)
    rep = T.estimate_detection(g, config, 40, Stream(5))
    assert not W.check_rerun(g, config, 40, Stream(5), rep)
    assert W.check_rerun(g, config, 40, Stream(5), replace(rep, rejections=rep.rejections + 1))


# --- search -----------------------------------------------------------------

def test_beta_record():
    rec = E.search_min_p3_density(8, W.BETA, 4, Stream(6))
    assert not W.check_record(rec)
    assert _says(W.check_record(_fake(rec, p3_count=rec.p3_count + 1)), "oracle counts")
    split = G.Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5)])  # disconnected
    assert _says(W.check_record(_fake(rec, graph=split, p3_count=1,
                                      p3_density=Fraction(1, 8 ** 4))), "beta-cut")
    assert _says(W.check_record(_fake(rec, p3_density=rec.p3_density + 1)), "count/n^4")


def test_floor_and_exhaustive_optimum():
    rec = E.search_min_p3_density(5, W.BETA, 10, Stream(7))
    optimum = W.exhaustive_min_p4(5, W.BETA)
    assert not W.check_record(rec, optimum)
    assert _says(W.check_record(rec, optimum + 1), "exhaustive optimum")
    # a density of 0 is the only one below the (beta/100)^12 floor
    assert _says(W.check_record(_fake(rec, p3_count=0, p3_density=Fraction(0))), "floor")


def test_eps_record():
    rec = E.estimate_f(8, W.EPSILON, 1, Stream(8))
    assert not W.check_record(rec)
    near = G.Graph.from_edges(8, [(0, 1), (1, 2), (2, 3)])  # one P4: one toggle away
    assert _says(W.check_record(_fake(rec, graph=near, p3_count=1,
                                      p3_density=Fraction(1, 8 ** 4))), "toggles")


# --- certify ----------------------------------------------------------------

def test_packing_and_cover():
    g = G.gnp(12, 0.4, Stream(11))  # small enough for both brute-force optima
    packing = PK.triangle_packing(g, "exact")
    cover = PK.triangle_cover(g, "exact")
    assert not W.check_packing_cover(g, packing, cover, brute=True)
    tris = PK.triangles_of(g)
    overlap = next(t for t in tris if t not in packing.tuples
                   and any(len(set(t) & set(u)) == 2 for u in packing.tuples))
    assert W.check_packing_cover(g, _fake(packing, tuples=packing.tuples + (overlap,)),
                                 cover, brute=False)
    non_edge = next((u, v) for u in range(g.n) for v in range(u + 1, g.n)
                    if not g.has_edge(u, v))
    assert W.check_packing_cover(g, _fake(packing, tuples=((0,) + non_edge,)),
                                 cover, brute=False)
    assert W.check_packing_cover(g, packing, cover[1:], brute=False)
    smaller = _fake(packing, tuples=packing.tuples[1:])
    assert W.check_packing_cover(g, smaller, cover, brute=True)
    extra = next((u, v) for u, v in g.edges() if (u, v) not in cover)
    assert W.check_packing_cover(g, packing, tuple(sorted(cover + (extra,))), brute=True)


def test_distance():
    for prop, g, flips in W.Certify(10, None).inputs[0]["dist"]:
        d = D.distance_to_property(g, getattr(R, W.Certify.RECOGNIZER[prop]))
        assert not W.check_distance(prop, g, d, flips, brute=True), prop
        assert W.check_distance(prop, g, d + 1, flips + 1, brute=True), prop
        assert W.check_distance(prop, g, flips + 1, flips, brute=False), prop
        if d:
            assert W.check_distance(prop, g, d - 1, flips, brute=True), prop
        assert W.check_distance(prop, g, D.AboveCap(5), flips, brute=False), prop


def test_refinement():
    g = W.two_blocks(12, Stream(12).gen)
    ref = D.refine_along_cuts(g, W.BETA, "exact")
    assert not W.check_refinement(g, W.BETA, ref)
    assert W.check_refinement(g, W.BETA, _fake(ref, edited_pairs=ref.edited_pairs + 1))
    assert W.check_refinement(g, W.BETA, _fake(ref, parts=(tuple(range(g.n)),)))
    assert W.check_refinement(g, W.BETA, _fake(ref, parts=ref.parts[1:]))
    assert W.check_refinement(g, W.BETA, _fake(ref, edited_pairs=g.n * g.n))


def test_ap3_rs_and_gadgets():
    k = 7
    s = GA.ap3_free_set(k, "exact")
    assert not W.check_ap3(k, s)
    assert W.check_ap3(k, _fake(s, elements=(1, 2, 3)))
    rb = GA.rs_graph(k, s)
    assert not W.check_rs(k, s, rb)
    assert W.check_rs(k, s, _fake(rb, certificate=_fake(rb.certificate,
                                                         tuples=rb.certificate.tuples[1:])))
    assert W.check_rs(k, s, _fake(rb, graph=G.complete_graph(rb.graph.n)))
    c5 = GA.build_c5_gadget(rb.graph, rb.labeling.relabel(("V2", "V3", "V5")), rb.certificate)
    assert not W.check_c5_gadget(k, c5)
    first = c5.certificate.tuples[0]
    assert W.check_c5_gadget(k, _fake(c5, certificate=_fake(
        c5.certificate, tuples=c5.certificate.tuples + (first,))))
    assert W.check_c5_gadget(k, _fake(c5, certificate=_fake(
        c5.certificate, tuples=((0, 1, 2, 3, 4),))))
    assert W.check_c5_gadget(k, _fake(c5, farness=c5.farness * 2))
    poset = GA.build_poset_gadget(rb.graph, rb.labeling.relabel(("V1", "V2", "V3")),
                                  rb.certificate)
    assert not W.check_poset_gadget(k, rb.graph, poset)
    assert W.check_poset_gadget(k, G.empty_graph(rb.graph.n), poset)
    assert W.check_poset_gadget(k, rb.graph, _fake(poset, farness=Fraction(1)))


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            print(f"ok   {name}")
    sys.exit(1 if failures else 0)
