"""Run one benchmark workload against the ptlab sources in this checkout.

    python3 benchmarks/run.py --workload detect --seed 1 --seconds 30 --trace 0

Untraced (`--trace 0`): imports ptlab and builds the workload's inputs
(set-up; the import is timed here and in two fresh interpreters, the
build three times, and each reported as a median), then calls ptlab in whole
rounds of operations until `--seconds` have passed, checks every output,
and prints the end-to-end metrics. Set-up and call times are scaled to a
reference host speed by a calibration timed around them (see REF_MS).
Traced (`--trace 1`): runs a fixed number of rounds (the workload's
`TRACE_ROUNDS` per 30 seconds) untraced,
then builds the inputs and runs the same rounds again with every ptlab
public function wrapped by `spans.Tracer`, and prints the per-layer
metrics. A fixed round count keeps the traced work, and so every span
count, the same for a seed whatever the speed of the code.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. Run records and span files
go to `.perfbench/` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import bisect
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_CALLS = 100     # so that at least ten calls lie beyond the p90

# The shared host switches, for seconds at a time, between a fast state and
# one about 1.8 times slower (in CPU time as in wall time), and the share of
# a run spent in each drifts from run to run. So the timed phase times a
# fixed piece of pure-Python work (an oracle's induced-P4 count on a fixed
# 12-vertex graph: sets, tuples, generators and bit tests, like ptlab's inner
# loops) at its start, at its end and every CALIBRATE_EVERY seconds, and
# scales each call by the host speed around it: the median of the LOCAL
# calibrations nearest to the call's midpoint, over REF_MS. A call that took
# as long as LOCAL calibrations' median times x is reported as REF_MS times x.
REF_MS = 2.5
CALIBRATE_EVERY = 0.25
LOCAL = 4
_CAL_N = 12
_CAL_ROWS = [sum(1 << v for v in range(_CAL_N) if v != u and (u * 7 + v * 7) % 5 < 2)
             for u in range(_CAL_N)]


def calibration_loop() -> int:
    return oracles.induced_p4_count(_CAL_N, _CAL_ROWS)


def calibrate(calibration: list) -> float:
    """Time `calibration_loop`, append (midpoint, seconds) to `calibration`
    and return the seconds."""
    t0 = time.perf_counter()
    calibration_loop()
    t1 = time.perf_counter()
    calibration.append(((t0 + t1) / 2, t1 - t0))
    return t1 - t0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["detect", "search", "certify"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_rounds(wl, stop, results: list, latencies: list, per_round: list,
               calibration: list | None = None, spans: list | None = None
               ) -> tuple[int, int]:
    """Run whole rounds until `stop(rounds_done, elapsed)` is true, appending
    (seconds, units) of each round to `per_round`. With a `calibration`
    list, time `calibration_loop` at the start, at the end and between calls
    every CALIBRATE_EVERY seconds, appending (midpoint, seconds), and leave
    that time out of the rounds; with a `spans` list, append each call's
    (start, end). Returns (units, failed)."""
    units = failed = 0
    paused = calibrate(calibration) if calibration is not None else 0.0
    start = last_cal = time.perf_counter()
    while not stop(len(per_round), time.perf_counter() - start - paused):
        round_start = time.perf_counter()
        round_paused = paused
        round_units = 0
        for op in wl.round(len(per_round)):
            if calibration is not None and time.perf_counter() - last_cal >= CALIBRATE_EVERY:
                paused += calibrate(calibration)
                last_cal = time.perf_counter()
            t0 = time.perf_counter()
            try:
                out = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                t1 = time.perf_counter()
                failed += 1
                print(f"failed: {op.kind}: {exc!r}", file=sys.stderr)
            else:
                t1 = time.perf_counter()
                round_units += op.units
                if wl.keeps(len(per_round)):
                    results.append((op, out))
            latencies.append(t1 - t0)
            if spans is not None:
                spans.append((t0, t1))
        per_round.append((time.perf_counter() - round_start - (paused - round_paused),
                          round_units))
        units += round_units
    if calibration is not None:
        calibrate(calibration)
    return units, failed


def host_scaled(spans: list, calibration: list) -> list[float]:
    """Each span's seconds at the reference host speed: scaled by REF_MS over
    the median of the LOCAL calibrations whose midpoints lie nearest to the
    span's midpoint (half before it, half after, where the run has them)."""
    mids = [t for t, _ in calibration]
    scaled = []
    for t0, t1 in spans:
        i = bisect.bisect(mids, (t0 + t1) / 2)
        lo = max(0, min(i - LOCAL // 2, len(mids) - LOCAL))
        local = statistics.median(s for _, s in calibration[lo:lo + LOCAL])
        scaled.append((t1 - t0) * REF_MS / (1e3 * local))
    return scaled


def import_span(src: Path) -> tuple[float, float]:
    """The span, in this process's clock, of importing ptlab in a fresh
    interpreter: the end of the child's import less its duration there."""
    code = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
            "import ptlab; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True,
                          text=True, check=True, timeout=120)
    end = time.perf_counter()
    return end - float(done.stdout), end


def timed_setup(fn, spans: list, calibration: list):
    """Call fn with two calibrations on each side, appending its span."""
    for _ in range(LOCAL // 2):
        calibrate(calibration)
    t0 = time.perf_counter()
    out = fn()
    spans.append((t0, time.perf_counter()))
    for _ in range(LOCAL // 2):
        calibrate(calibration)
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ptlab" / "__init__.py").is_file():
        print(f"benchmark: no ptlab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    # set-up is scaled to the reference host speed like the timed calls
    setup_cal: list = []
    import_spans: list = []
    build_spans: list = []
    ptlab = timed_setup(lambda: importlib.import_module("ptlab"), import_spans, setup_cal)
    import workloads
    if Path(ptlab.__file__).resolve().parent != (src / "ptlab").resolve():
        print(f"benchmark: imported ptlab from {ptlab.__file__}, not {src}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        cls = workloads.WORKLOADS[args.workload]
        for _ in range(1 if args.trace else SETUP_REPEATS):
            wl = timed_setup(lambda: cls(args.seed, workdir), build_spans, setup_cal)

        results: list = []
        latencies: list = []
        per_round: list = []
        calibration: list = []
        spans: list = []
        scaled: list = []
        raw: dict = {}
        if not args.trace:
            units, failed = run_rounds(
                wl, lambda done, elapsed: elapsed >= args.seconds
                and len(latencies) >= MIN_CALLS, results, latencies, per_round,
                calibration, spans)
            cuts = statistics.quantiles(latencies, n=10)
            raw = {"work_per_s": units / sum(latencies),
                   "call_ms_p50": 1e3 * cuts[4], "call_ms_p90": 1e3 * cuts[8],
                   "calibration_ms": 1e3 * statistics.median(s for _, s in calibration)}
            scaled = host_scaled(spans, calibration)
            cuts = statistics.quantiles(scaled, n=10)
            for _ in range(SETUP_REPEATS - 1):
                timed_setup(lambda: import_spans.append(import_span(src)), [], setup_cal)
            imports = host_scaled(import_spans, setup_cal)
            builds = host_scaled(build_spans, setup_cal)
            raw["setup_s"] = (statistics.median(e - s for s, e in import_spans)
                              + statistics.median(e - s for s, e in build_spans))
            metrics = {
                "setup_s": (statistics.median(imports) + statistics.median(builds), "s"),
                "work_per_s": (units / sum(scaled), "units/s"),
                "call_ms_p50": (1e3 * cuts[4], "ms"),
                "call_ms_p90": (1e3 * cuts[8], "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                                "MB"),
            }
        else:
            from spans import Tracer, unit_of
            rounds = max(1, round(cls.TRACE_ROUNDS * args.seconds / 30))
            start = time.perf_counter()
            _, failed = run_rounds(wl, lambda done, elapsed: done >= rounds, [], latencies, [])
            untraced = time.perf_counter() - start
            tracer = Tracer()
            tracer.install()
            try:
                wl = cls(args.seed, workdir)
                start = time.perf_counter()
                units, failed_t = run_rounds(
                    wl, lambda done, elapsed: done >= rounds, results, latencies, per_round)
                traced = time.perf_counter() - start
            finally:
                tracer.uninstall()
            failed += failed_t
            metrics = {name: (value, unit_of(name))
                       for name, value in tracer.layer_metrics(units).items()}
            metrics["trace.overhead_ratio"] = (traced / untraced, "ratio")
            tracer.save(OUT / f"trace-{args.workload}-{args.seed}.npz")
        problems = wl.check(results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in problems:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(latencies),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, raw=raw, rounds=[list(r) for r in per_round],
                  call_s=latencies, scaled_s=scaled, calibration_s=calibration)
    with open(OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh)
    print(f"workload {args.workload} seed {args.seed}: {len(per_round)} rounds, "
          f"{len(latencies)} calls, {failed} failed, "
          f"{'correct' if not problems else f'{len(problems)} check failures'}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit}")
    if raw:
        print("  as timed, before scaling to the reference host speed: "
              + ", ".join(f"{name} {value:.6g}" for name, value in raw.items()))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
