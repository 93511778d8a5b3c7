"""cmhodge benchmark: three closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload escape --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all                 # every workload; rewrites
                                                   # BENCHMARK.json and baseline.json
    python3 perfbench/run.py --record-digests 20260822 7

Each workload runs in its own fresh, single-threaded worker process with
one closed-loop client: the next op starts when the previous one returns.
A run repeats the workload's fixed op list (a round) while one more round
of the mean length still fits in ``--seconds``; it always runs one.  With
``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of one traced round, where each
op also runs untraced next to its traced twin to give the tracing overhead.
Every op's output is checked; a failed check, a nonzero exit or an
exception fails the op.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
DIGESTS_FILE = os.path.join(HERE, "digests.json")
BASELINE_FILE = os.path.join(HERE, "baseline.json")
DEFAULT_SEED = 20260822
RUN_SECONDS = 30
SETUP_SAMPLES = 16
WORKER_TIMEOUT_S = 170

WORKLOADS = [
    {"name": "escape",
     "why": "escape verdicts with the constructive witness at m=7,9,16,11: dense cyclotomic "
            "products, brackets and SpanBasis closure, n=3 to 5"},
    {"name": "selftest",
     "why": "the acceptance battery run_core(seed), one op per criterion: sparse roots of unity, "
            "Galois action, small Poly gcds, Bareiss ranks, the Darboux descent"},
    {"name": "sweep",
     "why": "orient enumerate at m=17 and m=13, then nondeg and rigidity on a sample: enumeration, "
            "orbit ranks and CLI overhead with almost no cyclotomic arithmetic"},
]

END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_ref", "unit": "ref", "better": "lower", "bound": 0.2},
    {"name": "op_ref.p50", "unit": "ref", "better": "lower", "bound": 0.24},
    {"name": "op_ref.tail", "unit": "ref", "better": "lower", "bound": 0.24},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]
# Printed and kept in the baseline, not gated: host drift spreads them by 20-40%.
RAW = [
    {"name": "wall_s", "unit": "s"},
    {"name": "op_ms.p50", "unit": "ms"},
    {"name": "op_ms.tail", "unit": "ms"},
]


def _layer(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = (
    [_layer(f"{layer}.self_s", "s") for layer in
     ("cyclotomic", "polynomials", "linalg", "algebra", "cmfield", "graphs", "cli")]
    + [_layer(f"{fn}.calls", "count") for fn in (
        "cyclotomic.mul", "cyclotomic.inverse", "cyclotomic.galois",
        "polynomials.poly_gcd", "polynomials.poly_xgcd",
        "linalg.rank_rational", "linalg.span_insert",
        "algebra.bracket", "algebra.galois_act_element",
        "acceptance.rational_nilpotent_witness",
        "cmfield.enumerate_group", "cmfield.validate_orientation",
        "verifiers.nondegeneracy_verdict", "verifiers.circulant_rank",
        "graphs.support_graph", "graphs.is_block_system", "cli.main")]
    + [_layer(f"{fn}.self_s", "s") for fn in (
        "cyclotomic.mul", "cyclotomic.inverse", "cyclotomic.galois",
        "polynomials.poly_gcd", "polynomials.poly_xgcd",
        "linalg.rank_rational", "linalg.span_insert",
        "algebra.bracket", "algebra.generated_subalgebra", "algebra.nilpotency_degree",
        "algebra.galois_act_element", "algebra.reynolds_average",
        "acceptance.rational_nilpotent_witness", "cmfield.enumerate_orientations",
        "verifiers.nondegeneracy_verdict", "verifiers.rigidity_verdict",
        "verifiers.escape_verdict")]
    + [_layer(f"acceptance.criterion_{k}.s", "s") for k in range(1, 9)]
    + [_layer("linalg.span_insert.accept_ratio", "ratio", "higher"),
       _layer("algebra.bracket.nonzero_ratio", "ratio", "higher"),
       _layer("cmfield.orientations_listed", "count"),
       _layer("cli.stdout_bytes", "bytes"),
       _layer("trace.overhead_frac", "frac")]
)

# Ratio metrics: the span name whose outcome tally is divided by its calls.
RATIOS = {
    "linalg.span_insert.accept_ratio": "linalg.span_insert",
    "algebra.bracket.nonzero_ratio": "algebra.bracket",
}


class RunError(Exception):
    """A worker process failed; the run prints no result."""


def spawn(workload, seed, *extra):
    """Run one worker; returns (its parsed result line, monotonic time it was started)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker timed out after {exc.timeout} s: {' '.join(cmd[2:])}")
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), started


def tail_percentile(values):
    """(percentile, value, samples beyond): the highest of p99.9, p99, p95, p90 with >= 10 beyond.

    With fewer than 100 samples none qualifies, and the maximum is reported
    as percentile 100 with no sample beyond.  Nearest-rank percentiles.
    """
    xs = sorted(values)
    n = len(xs)
    for tenths in (999, 990, 950, 900):
        rank = -(-tenths * n // 1000)
        if n - rank >= 10:
            return tenths / 10, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def load_digests():
    with open(DIGESTS_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def mark_digest_failures(result, expected, why):
    """Fail, in every round, each op whose first-round digest differs from ``expected``."""
    got = result["digests"]
    if len(expected) != len(got):
        bad = set(range(len(got)))
    else:
        bad = {i for i, (g, e) in enumerate(zip(got, expected)) if g != e}
    for round_ in result["rounds"]:
        for i in bad:
            if round_["ops"][i][3] is None:
                round_["ops"][i][3] = why


def op_rows(result):
    return [row for round_ in result["rounds"] for row in round_["ops"]]


def failures(rows):
    return sorted({f"{row[0]}: {row[3]}" for row in rows if row[3] is not None})[:20]


def measure(workload, seed, seconds):
    """Untraced run: one timed worker plus setup samples; returns the summary."""
    result, started = spawn(workload, seed, "--seconds", str(seconds))
    setups = [result["ready"] - started]
    # Further set-ups right after the timed worker, while the host is busy:
    # an idle host runs the first fraction of a second measurably slower.
    for _ in range(SETUP_SAMPLES):
        res, started = spawn(workload, seed, "--setup-only")
        setups.append(res["ready"] - started)
    expected = load_digests().get(workload, {}).get(str(seed))
    if expected is not None:
        mark_digest_failures(result, expected, "stdout digest differs from the recorded one")
    rows = op_rows(result)
    timed = {}  # op name -> its rows over the rounds; a crashed battery has no timing
    for row in rows:
        if row[2] is not None:
            timed.setdefault(row[0], []).append(row)
    if not timed:
        raise RunError(f"no op completed: {failures(rows)}")
    # Each op's median over the rounds, so the percentiles rank inputs by
    # cost rather than catch one-off host hiccups.
    latencies = [statistics.median(r[1] for r in rs) * 1e3 for rs in timed.values()]
    units = [statistics.median(r[1] / r[2] for r in rs) for rs in timed.values()]
    q, tail, beyond = tail_percentile(latencies)
    _, tail_ref, _ = tail_percentile(units)
    failed = sum(1 for row in rows if row[3] is not None)
    summary = {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_ref": statistics.median(
                sum(row[1] / row[2] for row in r["ops"] if row[2] is not None)
                for r in result["rounds"]),
            "op_ref.p50": statistics.median(units),
            "op_ref.tail": tail_ref,
            "peak_rss_mib": result["peak_rss_mib"],
        },
        "raw": {
            "wall_s": statistics.median(r["wall"] for r in result["rounds"]),
            "op_ms.p50": statistics.median(latencies),
            "op_ms.tail": tail,
        },
        "failed_frac": failed / len(rows),
        "attempted": len(rows),
        "failed": failed,
        "rounds": len(result["rounds"]),
        "tail": {"percentile": q, "samples": len(units), "beyond": beyond},
        "host_ref_ms": statistics.median(r[2] for rs in timed.values() for r in rs) * 1e3,
        "digests_checked": expected is not None,
        "failures": failures(rows),
    }
    return summary


def layer_metrics(traced, overhead):
    """Per-layer metrics from one traced round."""
    table = traced["self_times"]
    tallies = traced["tallies"]
    out = {}
    for spec in PER_LAYER:
        name = spec["name"]
        head, _, kind = name.rpartition(".")
        if name in RATIOS:
            calls = table.get(RATIOS[name], [0])[0]
            value = tallies.get(RATIOS[name], 0) / calls if calls else 0.0
        elif name == "cmfield.orientations_listed":
            value = tallies.get("cmfield.enumerate_orientations", 0)
        elif name == "cli.stdout_bytes":
            value = traced["stdout_bytes"]
        elif name == "trace.overhead_frac":
            value = overhead
        elif name.startswith("acceptance.criterion_"):
            k = int(head.rpartition("_")[2])
            ops = traced["op_seconds"]
            value = ops[k - 1] if len(ops) == 8 else 0.0
        elif "." not in head:  # "<layer>.self_s"
            value = sum(row[2] for span, row in table.items() if span.startswith(head + "."))
        else:
            row = table.get(head, [0, 0.0, 0.0])
            value = row[0] if kind == "calls" else row[2]
        out[name] = value
    return out


def measure_traced(workload, seed):
    """One round, each op run untraced and traced, in a fresh process; returns (summary, result)."""
    result, _ = spawn(workload, seed, "--trace", "1")
    # The worker fails every traced op whose output differs from its untraced twin.
    plain, traced = result["rounds"]
    # Median over ops of traced time over untraced time: one long op caught
    # in a host-speed swing cannot swing the figure.
    overhead = statistics.median(
        t[1] / p[1] for p, t in zip(plain["ops"], traced["ops"]) if p[1] > 0) - 1
    expected = load_digests().get(workload, {}).get(str(seed))
    if expected is not None:
        mark_digest_failures(result, expected, "stdout digest differs from the recorded one")
    rows = op_rows(result)
    failed = sum(1 for row in rows if row[3] is not None)
    summary = {
        "metrics": layer_metrics(result, overhead),
        "attempted": len(rows),
        "failed": failed,
        "failures": failures(rows),
    }
    return summary, result


def describe(workload, summary, specs):
    """Human-readable lines: every metric by name and unit, then the ungated figures."""
    notes = {}
    if "tail" in summary:
        t = summary["tail"]
        notes["op_ref.tail"] = notes["op_ms.tail"] = (
            f"  (p{t['percentile']:g} of {t['samples']} ops, {t['beyond']} beyond)")

    def line(name, value, unit, note=""):
        return f"{workload:9s} {name:44s} {value:14.6f} {unit}{notes.get(name, note)}"

    lines = [line(s["name"], summary["metrics"][s["name"]], s["unit"]) for s in specs]
    if "raw" in summary:
        lines += [line(s["name"], summary["raw"][s["name"]], s["unit"]) for s in RAW]
        lines.append(line("failed_frac", summary["failed_frac"], "frac",
                          f"  ({summary['failed']} of {summary['attempted']} ops, "
                          f"{summary['rounds']} rounds, digests "
                          f"{'checked' if summary['digests_checked'] else 'not recorded'})"))
        lines.append(line("host_ref_ms", summary["host_ref_ms"], "ms",
                          "  (median reference loop time)"))
    lines.extend(f"{workload:9s} FAILED {f}" for f in summary["failures"])
    return lines


def result_line(summary, specs):
    return json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {s["name"]: {"value": summary["metrics"][s["name"]], "unit": s["unit"]}
                    for s in specs},
    })


def benchmark_spec():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
    }


def run_all(seed, seconds):
    """Every workload, untraced then traced; rewrites BENCHMARK.json and baseline.json."""
    baseline = {"seed": seed, "seconds": seconds, "environment": environment(), "workloads": {}}
    ok = True
    for w in WORKLOADS:
        name = w["name"]
        plain = measure(name, seed, seconds)
        traced, result = measure_traced(name, seed)
        for line in describe(name, plain, END_TO_END) + describe(name, traced, PER_LAYER):
            print(line, flush=True)
        ok = ok and plain["failed"] == 0 and traced["failed"] == 0
        baseline["workloads"][name] = {
            "end_to_end": plain["metrics"],
            "raw": plain["raw"],
            "failed_frac": plain["failed_frac"],
            "attempted": plain["attempted"],
            "rounds": plain["rounds"],
            "tail": plain["tail"],
            "host_ref_ms": plain["host_ref_ms"],
            "per_layer": traced["metrics"],
            "trace_failed": traced["failed"],
            "span_table": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                           for k, v in sorted(result["self_times"].items())},
            "op_seconds_traced": dict(zip((r[0] for r in result["rounds"][1]["ops"]),
                                          result["op_seconds"])),
        }
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_spec(), fh, indent=2)
        fh.write("\n")
    with open(BASELINE_FILE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


def record_digests(seeds):
    """Record first-round stdout digests of every workload for each seed."""
    table = {}
    for w in WORKLOADS:
        for seed in seeds:
            result, _ = spawn(w["name"], seed, "--max-rounds", "1")
            failures = [row for row in op_rows(result) if row[3] is not None]
            if failures:
                raise RunError(f"{w['name']} seed {seed}: checks failed: {failures[:3]}")
            table.setdefault(w["name"], {})[str(seed)] = result["digests"]
            print(f"recorded {w['name']} seed {seed}: {len(result['digests'])} digests", flush=True)
    with open(DIGESTS_FILE, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload and rewrite "
                    "BENCHMARK.json and perfbench/baseline.json")
    ap.add_argument("--record-digests", type=int, nargs="+", metavar="SEED")
    args = ap.parse_args(argv)
    try:
        if args.record_digests:
            return record_digests(args.record_digests)
        if args.all:
            return run_all(args.seed, args.seconds)
        if args.workload is None:
            ap.error("give --workload, --all or --record-digests")
        if args.trace:
            summary, _ = measure_traced(args.workload, args.seed)
            specs = PER_LAYER
        else:
            summary = measure(args.workload, args.seed, args.seconds)
            specs = END_TO_END
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    for line in describe(args.workload, summary, specs):
        print(line)
    print(result_line(summary, specs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
