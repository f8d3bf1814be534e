"""The three benchmark workloads: detect, search and certify.

A workload is built from a seed (its set-up), then yields rounds of
operations. Every round holds the same operations in the same order, so a
run that stops after whole rounds always attempts the same mix. Each
operation is one top-level call into ptlab's public API; its inputs come
from the seed and the round number only. After the timed phase, `check`
tests the outputs against the oracles in `oracles.py` and against
properties the method must have, and returns one message per failure.

ptlab functions are looked up on their modules when an operation runs, so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import ptlab.decomposition as D
import ptlab.extremal as E
import ptlab.gadgets as GA
import ptlab.graph_io as IO
import ptlab.graphs as G
import ptlab.packing as PK
import ptlab.pipelines as PL
import ptlab.recognizers as R
import ptlab.testers as T
from ptlab.rng import Stream

import oracles as O


class Workload:
    TRACE_ROUNDS = 1     # rounds a traced run makes per 30 seconds

    def keeps(self, r: int) -> bool:
        """Whether the outputs of round r are kept for `check`."""
        return True


@dataclass
class Op:
    kind: str                    # groups outputs for the checks
    units: int                   # work units this call finishes
    call: Callable[[], object]
    data: dict = field(default_factory=dict)   # what the checks need


def _rows(g):
    return g.n, g.rows


# --- detect -----------------------------------------------------------------

class Detect(Workload):
    """Tester batches on the paper's hosts; the unit is one tester trial."""

    name = "detect"
    TRACE_ROUNDS = 12
    FAR_HOSTS = 4

    def __init__(self, seed: int, workdir: Path):
        root = Stream(seed, (1,))
        self.seed = seed
        s20 = GA.ap3_free_set(20, "exact")
        self.rs20 = self._via_file(workdir, "rs20", GA.rs_graph(20, s20).graph)
        rb6 = GA.rs_graph(6, GA.ap3_free_set(6, "exact"))
        gb = GA.build_c5_gadget(rb6.graph, rb6.labeling.relabel(("V2", "V3", "V5")),
                                rb6.certificate)
        self.gadget = self._via_file(workdir, "gadget", gb.graph)
        control, _ = PL.match_gnp_control(gb.graph.n, len(gb.certificate), root.child(0))
        self.control = self._via_file(workdir, "control", control)
        self.cograph = self._via_file(workdir, "cograph",
                                      G.random_cograph(16, root.child(1)))
        self.far = [self._via_file(workdir, f"far{j}", g)
                    for j, g in enumerate(self._far_cographs(root.child(2)))]
        gen = root.child(3).gen
        half = 30
        self.trifree = self._via_file(workdir, "trifree", G.Graph.from_edges(
            2 * half, [(u, v) for u in range(half) for v in range(half, 2 * half)
                       if gen.random() < 0.3]))
        self.c5 = G.cycle_graph(5)
        # (host, graph, tester, trials); each batch takes about 40 ms here
        self.batches = [
            ("rs20", self.rs20, T.TesterConfig("triple-density", t=1), 1000),
            ("rs20", self.rs20, T.TesterConfig("triple-density", t=10), 400),
            ("rs20", self.rs20, T.TesterConfig("triple-density", t=100), 40),
            ("gadget", self.gadget, self._universal(15, "induced-c5-free"), 120),
            ("gadget", self.gadget, self._universal(15, "comparability"), 120),
            ("gadget", self.gadget, self._universal(14, "perfect"), 80),
            ("control", self.control, self._universal(15, "induced-c5-free"), 240),
            ("control", self.control, self._universal(15, "comparability"), 40),
            ("control", self.control, self._universal(14, "perfect"), 160),
            ("cograph", self.cograph, T.TesterConfig("quadruple-density", t=10), 100),
            ("cograph", self.cograph, self._universal(8, "cograph"), 200),
            ("far", None, T.TesterConfig("quadruple-density", t=10), 100),
            ("far", None, self._universal(8, "cograph"), 200),
            ("c5", self.c5, T.TesterConfig("quadruple-density", t=1), 300),
            ("trifree", self.trifree, T.TesterConfig("triple-density", t=10), 250),
            ("trifree", self.trifree, self._universal(12, "triangle-free"), 400),
        ]
        self.hardness = dict(ks=(4,), d=15, trials=20)

    @staticmethod
    def _universal(d: int, prop: str):
        return T.TesterConfig("universal", d=d, property_name=prop)

    @staticmethod
    def _via_file(workdir: Path, name: str, g):
        path = workdir / f"{name}.el"
        IO.write_graph(g, path)
        return IO.read_graph(path)

    def _far_cographs(self, rng: Stream):
        """Graphs at certified edit distance 2 from cograph-hood: a random
        cograph on 10 vertices with pairs flipped, kept when the exact
        oracle certifies the distance."""
        hosts = []
        for j in range(self.FAR_HOSTS):
            for attempt in range(400):
                start = G.random_cograph(10, rng.child(j, attempt, 0))
                cand = G.flip_pairs(start, 2, rng.child(j, attempt, 1))
                if D.distance_to_property(cand, R.is_cograph) == 2:
                    hosts.append(cand)
                    break
            else:
                raise RuntimeError(f"no far cograph found for host {j}")
        return hosts

    def round(self, r: int) -> list[Op]:
        ops = []
        for j, (host, g, config, trials) in enumerate(self.batches):
            if host == "far":
                g = self.far[r % self.FAR_HOSTS]
            rng = Stream(self.seed, (2, r, j))
            ops.append(Op(f"{host}/{config.kind}/{config.t or config.d}/"
                          f"{config.property_name or ''}", trials,
                          lambda g=g, c=config, n=trials, s=rng:
                              T.estimate_detection(g, c, n, s),
                          {"host": host, "graph": g, "config": config,
                           "trials": trials, "rng": rng}))
        h = self.hardness
        ops.append(Op("pipeline_hardness", 4 * h["trials"] * len(h["ks"]),
                      lambda s=Stream(self.seed, (3, r)):
                          PL.pipeline_hardness(h["ks"], h["d"], h["trials"], s)))
        return ops

    def check(self, results) -> list[str]:
        bad = []
        if O.induced_p4_count(*_rows(self.cograph)):
            bad.append("cograph host has an induced P4")
        if O.triangles(*_rows(self.trifree)):
            bad.append("triangle-free host has a triangle")
        for j, g in enumerate(self.far):
            if not (O.toggle_distance_at_least("cograph", g.n, g.rows, 2)
                    and O.toggle_distance_reaches("cograph", g.n, g.rows, 2)):
                bad.append(f"far host {j} is not at distance 2 from cograph-hood")
        tri_p = len(O.triangles(*_rows(self.rs20))) / math.comb(self.rs20.n, 3)
        tally: dict[int, list[int]] = {}
        rerun = None
        for op, rep in results:
            if op.kind == "pipeline_hardness":
                bad.extend(check_hardness(*rep))
                continue
            host, config = op.data["host"], op.data["config"]
            bad.extend(f"{op.kind}: {msg}" for msg in check_report(host, rep))
            if host == "rs20":
                acc = tally.setdefault(config.t, [0, 0])
                acc[0] += rep.rejections
                acc[1] += rep.trials
                if rerun is None and config.t == 10:
                    rerun = (op, rep)
        for t, (rejections, trials) in sorted(tally.items()):
            bad.extend(check_binomial(rejections, trials, tri_p, t))
        if rerun is not None:
            op, rep = rerun
            d = op.data
            bad.extend(check_rerun(d["graph"], d["config"], d["trials"], d["rng"], rep))
        return bad


def check_report(host: str, rep) -> list[str]:
    """Member hosts are never rejected; every quadruple trial on C5 rejects."""
    if host in ("cograph", "trifree") and rep.rejections:
        return [f"member host rejected {rep.rejections} times"]
    if host == "c5" and rep.rejections != rep.trials:
        return [f"only {rep.rejections}/{rep.trials} C5 trials rejected"]
    return []


def check_rerun(g, config, trials: int, rng, rep) -> list[str]:
    """The same batch split over 2 worker processes gives the same report."""
    again = T.estimate_detection(g, config, trials, rng, threads=2)
    return [] if again == rep else [f"2-process rerun {again} differs from {rep}"]


def check_binomial(rejections: int, trials: int, p: float, t: int) -> list[str]:
    """Triple-tester rejections against 1-(1-p)^t, p the triangle share of
    vertex triples; the band is 6 standard errors wide on each side."""
    pred = 1 - (1 - p) ** t
    se = math.sqrt(pred * (1 - pred) / trials)
    if abs(rejections / trials - pred) > 6 * se + 1 / trials:
        return [f"triple t={t}: rate {rejections / trials:.4f} vs predicted {pred:.4f} "
                f"over {trials} trials"]
    return []


def check_hardness(rows, extra) -> list[str]:
    bad = []
    for k, m in extra["mechanism"].items():
        if m["trifree_pass"] != m["trifree_samples"]:
            bad.append(f"hardness k={k}: {m['trifree_pass']} of {m['trifree_samples']} "
                       "triangle-free samples passed the order check")
    far = {(r.k, r.graph): r.farness for r in rows}
    for (k, kind), value in far.items():
        if kind == "control" and value < far[(k, "gadget")]:
            bad.append(f"hardness k={k}: control farness {value} below gadget "
                       f"{far[(k, 'gadget')]}")
    return bad


# --- search -----------------------------------------------------------------

BETA = Fraction(1, 5)
EPSILON = Fraction(1, 32)


class Search(Workload):
    """Certified extremal hill-climbs; the unit is one restart."""

    name = "search"
    TRACE_ROUNDS = 2
    # (n, effort, calls per round). Restarts at n = 10, 12 and of estimate_f
    # are slow and vary a lot, so they are few and the many short n = 8 calls
    # carry the rest. The three slow calls are 3% of a round's calls and
    # nearly always slower than any n = 8 call, so the p50 and the p90 both
    # fall inside the n = 8 calls. A restart gives up after 40 draws with a
    # beta-cut, which happens to about one n = 8 restart in 1500, so each
    # n = 8 call makes three restarts and never fails. The n = 5 calls exist
    # for the exhaustive-optimum check.
    BETA_CALLS = [(5, 10, 4), (8, 3, 80), (10, 1, 1), (12, 1, 1)]
    F_CALLS = [(8, 1, 1)]

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        ops = []
        j = 0
        for n, effort, count in self.BETA_CALLS:
            for _ in range(count):
                rng = Stream(self.seed, (4, r, j))
                ops.append(Op(f"beta/n={n}", effort,
                              lambda n=n, e=effort, s=rng:
                                  E.search_min_p3_density(n, BETA, e, s)))
                j += 1
        for n, effort, count in self.F_CALLS:
            for _ in range(count):
                rng = Stream(self.seed, (4, r, j))
                ops.append(Op(f"f/n={n}", effort,
                              lambda n=n, e=effort, s=rng: E.estimate_f(n, EPSILON, e, s)))
                j += 1
        return ops

    def check(self, results) -> list[str]:
        optimum5 = exhaustive_min_p4(5, BETA)
        bad = []
        for op, rec in results:
            bad.extend(check_record(rec, optimum5 if rec.n == 5 else None))
        return bad


def exhaustive_min_p4(n: int, beta: Fraction) -> int:
    """Fewest induced P4s over all graphs on n vertices without a beta-cut."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    best = None
    for mask in range(1 << len(pairs)):
        rows = O.toggled(n, [0] * n, [p for i, p in enumerate(pairs) if (mask >> i) & 1])
        count = O.induced_p4_count(n, rows)
        if (best is None or count < best) and not O.has_beta_cut(n, rows, beta):
            best = count
    return best


def check_record(rec, optimum: int | None = None) -> list[str]:
    n, rows = _rows(rec.graph)
    where = f"record n={rec.n} {'beta' if rec.beta is not None else 'eps'}"
    bad = []
    count = O.induced_p4_count(n, rows)
    if count != rec.p3_count:
        bad.append(f"{where}: p3_count {rec.p3_count}, oracle counts {count}")
    if rec.p3_density != Fraction(count, n ** 4):
        bad.append(f"{where}: density {rec.p3_density} is not count/n^4")
    if rec.beta is not None:
        floor = (rec.beta / 100) ** 12
        if O.has_beta_cut(n, rows, rec.beta):
            bad.append(f"{where}: the record has a beta-cut")
    else:
        floor = (rec.epsilon / 100) ** 16
        need = math.ceil(rec.epsilon * n * n)
        if not O.toggle_distance_at_least("cograph", n, rows, need):
            bad.append(f"{where}: fewer than {need} toggles reach a cograph")
    if rec.p3_density < floor:
        bad.append(f"{where}: density {rec.p3_density} below floor {floor}")
    if optimum is not None and count < optimum:
        bad.append(f"{where}: {count} induced P4s beats the exhaustive optimum {optimum}")
    return bad


# --- certify ----------------------------------------------------------------

class Certify(Workload):
    """Exact certificates; the unit is one certified instance (one call)."""

    name = "certify"
    TRACE_ROUNDS = 128
    POOL = 128           # rounds of distinct inputs; later rounds reuse them
    BRUTE_ROUNDS = 8     # rounds whose outputs get the costly brute-force checks
    RECOGNIZER = {"triangle-free": "is_triangle_free", "cograph": "is_cograph",
                  "perfect": "is_perfect", "comparability": "is_comparability"}
    GADGET_K = (6, 7, 8)
    # exact packing and cover hosts G(n, p). Exact packing on G(12, 0.5),
    # G(10, 0.7) and G(12, 0.7) has rare draws that take 0.3 s to 15 s, which
    # would make a run's work depend on whether its seed drew one.
    NETS = ((12, 0.3), (11, 0.5), (9, 0.7))

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.inputs = [self._round_inputs(Stream(seed, (5, r))) for r in range(self.POOL)]

    def _round_inputs(self, rng: Stream) -> dict:
        gen = rng.child(0).gen
        nets = [G.gnp(n, p, rng.child(1, i)) for i, (n, p) in enumerate(self.NETS)]
        dist = []
        for i, prop in enumerate(self.RECOGNIZER):
            # flip pairs of a member: a random bipartite graph or cograph
            n = 7 + i % 2
            if prop in ("triangle-free", "comparability"):
                base = G.Graph.from_edges(n, [(u, v) for u in range(n // 2)
                                              for v in range(n // 2, n)
                                              if gen.random() < 0.5])
            else:
                base = G.random_cograph(n, rng.child(2, i))
            dist.append((prop, G.flip_pairs(base, 1 + i % 2, rng.child(3, i)), 1 + i % 2))
        n = int(gen.integers(12, 15))
        refine = G.gnp(n, 0.5, rng.child(4)) if gen.random() < 0.5 else two_blocks(n, gen)
        # rs(k) over the exact 3-AP-free set less one element, for the gadgets
        k = self.GADGET_K[int(gen.integers(0, len(self.GADGET_K)))]
        full = GA.ap3_free_set(k, "exact").elements
        drop = int(gen.integers(0, len(full)))
        s = GA.ApFreeSet(k, full[:drop] + full[drop + 1:])
        return {"nets": nets, "dist": dist, "refine": refine, "k": k, "s": s,
                "rs": GA.rs_graph(k, s)}

    def round(self, r: int) -> list[Op]:
        inp = self.inputs[r % self.POOL]
        ops = []
        for g in inp["nets"]:
            ops.append(Op("packing", 1, lambda g=g: PK.triangle_packing(g, "exact"),
                          {"graph": g}))
            ops.append(Op("cover", 1, lambda g=g: PK.triangle_cover(g, "exact"), {"graph": g}))
        for prop, g, flips in inp["dist"]:
            name = self.RECOGNIZER[prop]
            ops.append(Op("distance", 1,
                          lambda g=g, name=name:
                              D.distance_to_property(g, getattr(R, name)),
                          {"graph": g, "prop": prop, "flips": flips}))
        g = inp["refine"]
        ops.append(Op("refine", 1, lambda g=g: D.refine_along_cuts(g, BETA, "exact"),
                      {"graph": g}))
        k, s, rb = inp["k"], inp["s"], inp["rs"]
        ops.append(Op("ap3", 1, lambda k=k: GA.ap3_free_set(k, "exact"), {"k": k}))
        ops.append(Op("rs", 1, lambda k=k, s=s: GA.rs_graph(k, s), {"k": k, "s": s}))
        ops.append(Op("c5_gadget", 1, lambda rb=rb: GA.build_c5_gadget(
            rb.graph, rb.labeling.relabel(("V2", "V3", "V5")), rb.certificate), {"k": k}))
        ops.append(Op("poset_gadget", 1, lambda rb=rb: GA.build_poset_gadget(
            rb.graph, rb.labeling.relabel(("V1", "V2", "V3")), rb.certificate),
            {"k": k, "host": rb.graph}))
        for op in ops:
            op.data["round"] = r
        return ops

    def keeps(self, r: int) -> bool:
        # later rounds repeat pool inputs; keeping only the first pass also
        # keeps peak memory independent of how many rounds a run makes
        return r < self.POOL

    def check(self, results) -> list[str]:
        bad = []
        by_graph: dict[int, list] = {}
        for op, out in results:
            d = op.data
            brute = d["round"] < self.BRUTE_ROUNDS
            if op.kind in ("packing", "cover"):
                by_graph.setdefault(id(d["graph"]), [d["graph"], brute, None, None])
                by_graph[id(d["graph"])][2 if op.kind == "packing" else 3] = out
            elif op.kind == "distance":
                bad.extend(check_distance(d["prop"], d["graph"], out, d["flips"], brute))
            elif op.kind == "refine":
                bad.extend(check_refinement(d["graph"], BETA, out))
            elif op.kind == "ap3":
                bad.extend(check_ap3(d["k"], out))
            elif op.kind == "rs":
                bad.extend(check_rs(d["k"], d["s"], out))
            elif op.kind == "c5_gadget":
                bad.extend(check_c5_gadget(d["k"], out))
            else:
                bad.extend(check_poset_gadget(d["k"], d["host"], out))
        for g, brute, packing, cover in by_graph.values():
            bad.extend(check_packing_cover(g, packing, cover, brute))
        return bad


def two_blocks(n: int, gen) -> "G.Graph":
    """Two dense halves joined sparsely, so the refinement has cuts to use."""
    side = [v < n // 2 for v in range(n)]
    return G.Graph.from_edges(n, [
        (u, v) for u in range(n) for v in range(u + 1, n)
        if gen.random() < (0.7 if side[u] == side[v] else 0.1)])


def check_packing_cover(g, packing, cover, brute: bool) -> list[str]:
    n, rows = _rows(g)
    bad = []
    where = f"G(n={g.n}) m={g.m}"
    err = O.packing_error(n, rows, packing.tuples)
    if err:
        bad.append(f"{where} packing: {err}")
    err = O.cover_error(n, rows, cover)
    if err:
        bad.append(f"{where} cover: {err}")
    tau, nu = len(packing.tuples), len(cover)
    if not tau <= nu <= 3 * tau:
        bad.append(f"{where}: tau={tau}, nu={nu} break tau <= nu <= 3 tau")
    if brute:
        best = O.max_packing_size(n, rows, limit=50_000)
        if best is not None and best != tau:
            bad.append(f"{where}: packing {tau}, brute-force maximum {best}")
        if nu and O.cover_exists(n, rows, nu - 1, limit=20_000):
            bad.append(f"{where}: a cover of {nu - 1} edges exists, returned {nu}")
    return bad


def check_distance(prop: str, g, d, flips: int, brute: bool) -> list[str]:
    n, rows = _rows(g)
    where = f"distance to {prop} n={n}"
    if not isinstance(d, int):
        return [f"{where}: {d}, but {flips} flips of a member reach the property"]
    if d > flips:
        return [f"{where}: {d} exceeds the {flips} flips applied to a member"]
    if (d == 0) != O.member(prop, n, rows):
        return [f"{where}: {d}, but the oracle says member={O.member(prop, n, rows)}"]
    if brute and not (O.toggle_distance_at_least(prop, n, rows, d)
                      and O.toggle_distance_reaches(prop, n, rows, d)):
        return [f"{where}: {d} differs from the brute-force distance"]
    return []


def check_refinement(g, beta: Fraction, ref) -> list[str]:
    n, rows = _rows(g)
    where = f"refinement n={n}"
    bad = []
    if sorted(v for part in ref.parts for v in part) != list(range(n)):
        bad.append(f"{where}: parts {ref.parts} do not partition the vertices")
    if ref.edited_pairs > beta * n * (n - 1) / 2:
        bad.append(f"{where}: {ref.edited_pairs} edits exceed beta*C(n,2)")
    before = set(O.edge_list(n, rows))
    after = set(O.edge_list(*_rows(ref.modified_graph)))
    if ref.edited_pairs != len(before ^ after):
        bad.append(f"{where}: {ref.edited_pairs} edits, Hamming distance {len(before ^ after)}")
    for part in ref.parts:
        sub = [sum(1 << j for j, w in enumerate(part) if (rows[v] >> w) & 1) for v in part]
        if len(part) > 1 and O.has_beta_cut(len(part), sub, beta):
            bad.append(f"{where}: part {part} still has a beta-cut")
    return bad


def check_ap3(k: int, s) -> list[str]:
    bad = []
    if not all(1 <= e <= k for e in s.elements):
        bad.append(f"ap3 k={k}: elements {s.elements} outside 1..{k}")
    ap = O.three_ap(s.elements)
    if ap:
        bad.append(f"ap3 k={k}: {s.elements} holds the progression {ap}")
    return bad


def check_rs(k: int, s, rb) -> list[str]:
    """Every triangle of rs(k) is planted: k|S| of them, edge-disjoint."""
    n, rows = _rows(rb.graph)
    tris = set(O.triangles(n, rows))
    bad = []
    if tris != set(rb.certificate.tuples) or len(tris) != k * len(s):
        bad.append(f"rs k={k}: {len(tris)} triangles, {len(rb.certificate.tuples)} planted, "
                   f"expected k|S| = {k * len(s)}")
    err = O.packing_error(n, rows, rb.certificate.tuples)
    if err:
        bad.append(f"rs k={k} certificate: {err}")
    return bad


def check_c5_gadget(k: int, gb) -> list[str]:
    n, rows = _rows(gb.graph)
    tuples = gb.certificate.tuples
    bad = [f"c5 gadget k={k}: {t} does not induce a 5-cycle"
           for t in tuples if not O.induces_c5(n, rows, t)]
    for i in range(len(tuples)):
        for j in range(i + 1, len(tuples)):
            if len(set(tuples[i]) & set(tuples[j])) > 1:
                bad.append(f"c5 gadget k={k}: tuples {i} and {j} share two vertices")
    if gb.farness != Fraction(len(tuples), n * n):
        bad.append(f"c5 gadget k={k}: farness {gb.farness} is not |certificate|/n^2")
    return bad


def check_poset_gadget(k: int, host, gb) -> list[str]:
    """The poset gadget's certificate packs edge-disjoint triangles of its host."""
    n, rows = _rows(host)
    bad = []
    err = O.packing_error(n, rows, gb.certificate.tuples)
    if err:
        bad.append(f"poset gadget k={k} certificate: {err}")
    if gb.farness != Fraction(len(gb.certificate.tuples), n * n):
        bad.append(f"poset gadget k={k}: farness {gb.farness} is not |certificate|/n^2")
    return bad


WORKLOADS = {w.name: w for w in (Detect, Search, Certify)}
