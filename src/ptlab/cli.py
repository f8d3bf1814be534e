"""Command-line front end. Exit codes: 0 success, 1 invariant failure
(including a certificate that fails verification), 2 usage error, 3 I/O
error (including a malformed sidecar). PTLAB_SEED is the fallback seed."""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

from .decomposition import distance_to_property, refine_along_cuts
from .extremal import estimate_f, search_min_p3_density
from .gadgets import ap3_free_set, build_c5_gadget, build_poset_gadget, rs_graph
from .graphs import Digraph, PartLabeling, gnp, random_cograph
from .graph_io import ParseError, read_digraph, read_graph, write_digraph, write_graph
from .packing import PackingError, WitnessPacking
from .pipelines import (
    EASY_HEADER,
    HARDNESS_HEADER,
    pipeline_easy,
    pipeline_hardness,
)
from .recognizers import _PROPERTIES, is_poset, property_recognizer
from .reports import ExperimentSpec, make_report, open_target, write_csv, write_report
from .rng import Stream
from .testers import TesterConfig, estimate_detection
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INVARIANT = 1
EXIT_USAGE = 2
EXIT_IO = 3


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    kw = {"default": argparse.SUPPRESS} if suppress else {}
    # a string default goes through `type` only when --seed is absent, so a
    # malformed $PTLAB_SEED is a usage error and an explicit --seed wins
    parser.add_argument("--seed", type=int,
                        **(kw or {"default": os.environ.get("PTLAB_SEED", "0")}),
                        help="master seed (default: $PTLAB_SEED or 0)")
    parser.add_argument("--threads", type=_positive_int, **(kw or {"default": 1}),
                        help="trial-loop chunks, run by at most as many worker processes "
                             "as the host has CPUs (results unchanged)")
    parser.add_argument("--out", **(kw or {"default": None}),
                        help="output path ('-' or omitted: stdout)")
    parser.add_argument("--format", choices=("json", "csv"),
                        **(kw or {"default": "json"}))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptlab",
        description="Property-testing laboratory: generators, recognizers, "
                    "sampling testers, decompositions, and hardness gadgets.")
    _add_global_options(parser, suppress=False)
    # the same options are accepted after the subcommand (SUPPRESS keeps the
    # subparser from clobbering values parsed at the top level)
    common = argparse.ArgumentParser(add_help=False)
    _add_global_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    p = sub.add_parser("gen", help="generate a graph plus a JSON certificate sidecar")
    p.add_argument("kind", choices=("gnp", "cograph", "rs", "c5-gadget", "poset-gadget"))
    p.add_argument("--n", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--k", type=int)
    p.add_argument("--ap", choices=("exact", "behrend"), default="exact")
    p.add_argument("--from", dest="source", help="input graph file (gadget kinds)")
    p.add_argument("--parts-json", help="sidecar with the input's parts "
                                        "(default: <from>.json)")

    p = sub.add_parser("recognize", help="run an exact property recognizer")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--property", required=True,
                   choices=(*_PROPERTIES, "poset", "induced-h-free"))
    p.add_argument("--h", help="graph token for induced-h-free, e.g. cycle:5")

    p = sub.add_parser("test", help="estimate a tester's rejection rate")
    _tester_args(p)
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("curve", help="rejection rate across a budget series")
    _tester_args(p, budget_optional=True)
    p.add_argument("--budgets", type=_int_list, required=True, help="e.g. 1,2,4,8")
    p.add_argument("--trials", type=int, default=1000)

    p = sub.add_parser("decompose", help="refine along beta-cuts")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--mode", choices=("exact", "heuristic"), default="exact")
    p.add_argument("--out-graph", help="write the modified graph here")

    p = sub.add_parser("distance", help="exact edit distance to a property")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--property", required=True)
    p.add_argument("--h", help="graph token for induced-h-free")
    p.add_argument("--cap", type=int, default=5, help="largest distance searched, 0..5")

    p = sub.add_parser("search-extremal",
                       help="hill-climb for cut-free / far graphs with few induced 4-paths")
    p.add_argument("--n", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta")
    group.add_argument("--epsilon")
    p.add_argument("--effort", type=int, default=100)
    p.add_argument("--out-graph")

    p = sub.add_parser("verify-suite", help="run module invariant suites")
    p.add_argument("suite", choices=("all",) + SUITE_NAMES)

    p = sub.add_parser("pipeline-hardness",
                       help="gadget vs farness-matched control detection rates")
    p.add_argument("--k", type=_int_list, default=[4, 6])
    p.add_argument("--d", type=int, default=15)
    p.add_argument("--trials", type=int, default=300)
    p.add_argument("--retries", type=int, default=9)

    p = sub.add_parser("pipeline-easy",
                       help="quadruple-tester curves on certified-distance graphs")
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--distances", type=_int_list, default=[1, 2, 3])
    p.add_argument("--budgets", type=_int_list, default=[1, 2, 4, 8, 16, 32])
    p.add_argument("--trials", type=int, default=400)
    return parser


def _tester_args(p: argparse.ArgumentParser, budget_optional: bool = False) -> None:
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--tester", choices=("universal", "triple", "quadruple"),
                   required=True)
    if not budget_optional:
        p.add_argument("--d", type=int)
        p.add_argument("--t", type=int)
    p.add_argument("--property", help="property name for the universal tester")
    p.add_argument("--h", help="graph token for induced-h-free")


def _property_name(args) -> str:
    if args.property == "induced-h-free":
        if not args.h:
            raise ValueError("induced-h-free needs --h, e.g. --h cycle:5")
        return f"induced-h-free:{args.h}"
    return args.property


def _tester_config(args, budget: int | None = None) -> TesterConfig:
    if args.tester == "universal":
        if not args.property:
            raise ValueError("universal tester needs --property")
        d = budget if budget is not None else args.d
        if d is None:
            raise ValueError("universal tester needs --d")
        return TesterConfig("universal", d=d, property_name=_property_name(args))
    kind = "triple-density" if args.tester == "triple" else "quadruple-density"
    t = budget if budget is not None else args.t
    if t is None:
        raise ValueError(f"{args.tester} tester needs --t")
    return TesterConfig(kind, t=t)


def _emit(args, params: dict, graphs: list, results: dict, table=None) -> int:
    """Write a command's JSON report, or under --format csv its `table`
    (header, rows); `main` refuses csv for commands not in CSV_COMMANDS."""
    if args.format == "csv":
        write_csv(table[1], table[0], args.out)
    else:
        write_report(make_report(
            args.command, ExperimentSpec(args.command, params, args.seed),
            [{"name": name, "n": g.n, "m": g.m} for name, g in graphs], results,
            {"seconds": time.perf_counter() - args.started}), args.out)
    return EXIT_OK


def _load_sidecar(path: str, n: int, names: tuple[str, ...]
                  ) -> tuple[PartLabeling, WitnessPacking | None]:
    """The part labeling and the packing (None if absent) of a gadget sidecar."""
    try:
        data = json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"{path}: not JSON ({exc})") from None
    parts = data.get("parts") if isinstance(data, dict) else None
    if not isinstance(parts, dict) or not parts:
        raise ParseError(f"{path}: no 'parts' object")
    if len(parts) != len(names):
        raise ParseError(f"{path}: need {len(names)} parts, found {len(parts)}")
    try:
        labeling = PartLabeling(n, list(zip(names, parts.values())))
    except (TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed parts ({type(exc).__name__}: {exc})") from None
    if data.get("packing") is None:
        return labeling, None
    try:
        return labeling, WitnessPacking.from_json(data["packing"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed packing ({type(exc).__name__}: {exc})") from None


def cmd_gen(args) -> int:
    if not args.out or args.out == "-":
        raise ValueError("gen needs --out FILE for the graph")
    rng = Stream(args.seed)
    sidecar: dict = {"construction": args.kind, "seed": args.seed,
                     "params": {}, "parts": None, "packing": None, "farness": None}
    bundle = None
    if args.kind == "gnp":
        if args.n is None or args.p is None:
            raise ValueError("gen gnp needs --n and --p")
        g = gnp(args.n, args.p, rng.child(0))
        sidecar["params"] = {"n": args.n, "p": args.p}
    elif args.kind == "cograph":
        if args.n is None:
            raise ValueError("gen cograph needs --n")
        g = random_cograph(args.n, rng.child(0))
        sidecar["params"] = {"n": args.n}
    elif args.kind == "rs":
        if args.k is None:
            raise ValueError("gen rs needs --k")
        s = ap3_free_set(args.k, args.ap)
        bundle = rs_graph(args.k, s)
        sidecar["params"] = {"k": args.k, "ap": args.ap, "s": list(s.elements)}
    else:
        if not args.source:
            raise ValueError(f"gen {args.kind} needs --from FILE")
        inner = read_graph(args.source)
        names = ("V2", "V3", "V5") if args.kind == "c5-gadget" else ("V1", "V2", "V3")
        labeling, packing = _load_sidecar(args.parts_json or args.source + ".json",
                                          inner.n, names)
        build = build_c5_gadget if args.kind == "c5-gadget" else build_poset_gadget
        bundle = build(inner, labeling, packing)
        sidecar["params"] = {"from": args.source, "inner_n": inner.n}
    if bundle is not None:
        g = bundle.graph
        sidecar["parts"] = {name: list(part) for name, part in
                            zip(bundle.labeling.names, bundle.labeling.parts)}
        sidecar["packing"] = bundle.certificate.to_json()
        sidecar["farness"] = float(bundle.farness)
    if isinstance(g, Digraph):
        write_digraph(g, args.out)
    else:
        write_graph(g, args.out)
    Path(args.out + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")
    print(f"wrote {args.out} (n={g.n}, m={g.m}) and {args.out}.json", file=sys.stderr)
    return EXIT_OK


def cmd_recognize(args) -> int:
    if args.property == "poset":
        host = read_digraph(args.infile)
        res = is_poset(host)
    else:
        host = read_graph(args.infile)
        res = property_recognizer(_property_name(args))(host)
    return _emit(args, {"property": args.property, "h": args.h}, [("input", host)],
                 {"member": res.member,
                  "witness": None if res.witness is None else list(res.witness),
                  "label": res.label})


def cmd_test(args) -> int:
    g = read_graph(args.infile)
    config = _tester_config(args)
    rep = estimate_detection(g, config, args.trials, Stream(args.seed).child(0),
                             args.threads)
    return _emit(args, {"tester": args.tester, "trials": args.trials}, [("input", g)],
                 {"report": rep.to_json()},
                 (["kind", "d", "t", "trials", "rejections", "rate",
                   "wilson_lo", "wilson_hi", "queries_per_trial"],
                  [[config.kind, config.d, config.t, rep.trials, rep.rejections,
                    rep.rejection_rate, rep.wilson_lo, rep.wilson_hi,
                    rep.queries_per_trial]]))


def cmd_curve(args) -> int:
    g = read_graph(args.infile)
    rng = Stream(args.seed)
    rows = []
    for budget in args.budgets:
        config = _tester_config(args, budget=budget)
        rep = estimate_detection(g, config, args.trials, rng.child(budget),
                                 args.threads)
        rows.append([budget, rep.trials, rep.rejections, rep.rejection_rate,
                     rep.wilson_lo, rep.wilson_hi, rep.queries_per_trial])
    header = ["budget", "trials", "rejections", "rate", "wilson_lo", "wilson_hi",
              "queries_per_trial"]
    return _emit(args, {"tester": args.tester, "budgets": args.budgets,
                        "trials": args.trials},
                 [("input", g)], {"header": header, "rows": rows}, (header, rows))


def cmd_decompose(args) -> int:
    g = read_graph(args.infile)
    beta = Fraction(args.beta)
    ref = refine_along_cuts(g, beta, mode=args.mode, rng=Stream(args.seed).child(0))
    if args.out_graph:
        write_graph(ref.modified_graph, args.out_graph)
    return _emit(args, {"beta": str(beta), "mode": args.mode}, [("input", g)],
                 {"parts": [list(p) for p in ref.parts],
                  "edited_pairs": ref.edited_pairs,
                  "certified": ref.certified,
                  "edit_budget": float(beta * g.n * (g.n - 1) / 2)})


def cmd_distance(args) -> int:
    g = read_graph(args.infile)
    rec = property_recognizer(_property_name(args))
    d = distance_to_property(g, rec, cap=args.cap)
    results = ({"distance": d, "above_cap": False} if isinstance(d, int)
               else {"distance": None, "above_cap": True, "cap": d.cap})
    return _emit(args, {"property": args.property, "cap": args.cap}, [("input", g)],
                 results)


def cmd_search_extremal(args) -> int:
    rng = Stream(args.seed)
    if args.beta is not None:
        rec = search_min_p3_density(args.n, Fraction(args.beta), args.effort,
                                    rng.child(0))
    else:
        rec = estimate_f(args.n, Fraction(args.epsilon), args.effort, rng.child(0))
    if args.out_graph:
        write_graph(rec.graph, args.out_graph)
    return _emit(args, {"n": args.n, "beta": args.beta, "epsilon": args.epsilon,
                        "effort": args.effort},
                 [("record", rec.graph)], {"record": rec.to_json()})


def cmd_verify_suite(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    failures = 0
    with open_target(args.out) as out:
        for name in names:
            for res in run_suite(name, seed=args.seed):
                print(res.line(), file=out)
                failures += 0 if res.passed else 1
    if failures:
        print(f"{failures} invariant check(s) FAILED", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_pipeline_hardness(args) -> int:
    rows, extra = pipeline_hardness(args.k, args.d, args.trials, Stream(args.seed).child(0),
                                    retries=args.retries, threads=args.threads)
    rows = [r.as_list() for r in rows]
    return _emit(args, {"k": args.k, "d": args.d, "trials": args.trials,
                        "retries": args.retries},
                 [], {"header": HARDNESS_HEADER, "rows": rows, **extra},
                 (HARDNESS_HEADER, rows))


def cmd_pipeline_easy(args) -> int:
    rows = pipeline_easy(args.n, args.distances, args.budgets, args.trials,
                         Stream(args.seed).child(0), threads=args.threads)
    return _emit(args, {"n": args.n, "distances": args.distances,
                        "budgets": args.budgets, "trials": args.trials},
                 [], {"header": EASY_HEADER, "rows": rows}, (EASY_HEADER, rows))


COMMANDS = {
    "gen": cmd_gen,
    "recognize": cmd_recognize,
    "test": cmd_test,
    "curve": cmd_curve,
    "decompose": cmd_decompose,
    "distance": cmd_distance,
    "search-extremal": cmd_search_extremal,
    "verify-suite": cmd_verify_suite,
    "pipeline-hardness": cmd_pipeline_hardness,
    "pipeline-easy": cmd_pipeline_easy,
}
CSV_COMMANDS = ("test", "curve", "pipeline-hardness", "pipeline-easy")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.started = time.perf_counter()
    if args.format == "csv" and args.command not in CSV_COMMANDS:
        print(f"ptlab: {args.command} has no CSV output; use --format json", file=sys.stderr)
        return EXIT_USAGE
    try:
        return COMMANDS[args.command](args)
    except (ParseError, OSError) as exc:
        print(f"ptlab: {exc}", file=sys.stderr)
        return EXIT_IO
    except PackingError as exc:
        print(f"ptlab: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (ValueError, ZeroDivisionError) as exc:
        print(f"ptlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
