"""One workload in one fresh process: set up, run closed-loop rounds, check outputs.

Run by ``run.py``; prints a single JSON result line on its stdout.  Every
cmhodge call has its stdout captured in memory, so the program's documents
never mix with the result line.  The package is imported from ``src/`` of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import functools
import hashlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402

# escape: one call per rung; conductor and Hodge numbers of a weight-3 orientation.
ESCAPE_LADDER = (
    (7, (1, 2, 2, 1)),
    (9, (1, 2, 2, 1)),
    (16, (1, 3, 3, 1)),
    (11, (2, 3, 3, 2)),
)
# sweep: two enumerations, then nondeg and rigidity on a sample of the second field.
ENUMERATIONS = ((17, 3, (2, 6, 6, 2)), (13, 5, (1, 1, 4, 4, 1, 1)))
SAMPLE_SIZE = 200
REF_EVERY_S = 0.1

SPANS_DIR = os.path.join(ROOT, ".bench_out")


def host_ref_s():
    """A fixed pure-Python Fraction loop, timed as a host-speed reference (about 10 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1200):
        acc += Fraction(k, k + 1) * Fraction(3, 7)
    return time.perf_counter() - start


class HostRef:
    """Host-speed samples taken on a timer in the workload's own thread.

    The host's speed drifts by tens of percent within seconds and between
    minutes, in CPU time as much as in wall time.  While a round runs, a
    SIGALRM handler times ``host_ref_s`` every ``REF_EVERY_S``, between two
    bytecodes of whatever op is running.  An op's time leaves out the
    samples taken inside it, and its reference is the mean of those samples
    and the nearest one on either side.
    """

    def __init__(self):
        self.starts, self.spent, self.refs = [], [], []
        self._busy = False

    def _sample(self, *_):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        ref = host_ref_s()
        self.starts.append(start)
        self.refs.append(ref)
        self.spent.append(time.perf_counter() - start)
        self._busy = False

    def __enter__(self):
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def around(self, t0, t1):
        """(seconds spent sampling inside [t0, t1], mean reference seconds around it)."""
        i = bisect.bisect_left(self.starts, t0)
        j = bisect.bisect_right(self.starts, t1)
        return sum(self.spent[i:j]), statistics.fmean(self.refs[max(i - 1, 0):j + 1])


class CliOp:
    """One CLI call with the check its stdout document must pass."""

    def __init__(self, name, argv, check):
        self.name, self.argv, self.check = name, argv, check


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _escape_ops(rng):
    ops = []
    for m, hodge in ESCAPE_LADDER:
        orientation = inputs.nondegenerate_orientation(rng, m, 3, hodge)
        n = len(inputs.pair_reps(m))

        def check(doc, n=n):
            r = doc["result"]
            if not r["applicable"]:
                return "not applicable"
            if r["closure_dimension"] != n * (2 * n + 1):
                return f"closure dimension {r['closure_dimension']} != {n * (2 * n + 1)}"
            if r["nilpotency_degree"] != 2 * n:
                return f"witness degree {r['nilpotency_degree']} != {2 * n}"
            if r["nondegeneracy"]["orbit_rank"] != n:
                return f"orbit rank {r['nondegeneracy']['orbit_rank']} != {n}"
            return None

        argv = ["escape", "--conductor", str(m), "--weight", "3",
                "--orientation", json.dumps(orientation)]
        ops.append(CliOp(f"escape-m{m}", argv, check))
    return ops


def _sweep_ops(rng):
    m, weight, hodge = ENUMERATIONS[-1]
    n = len(inputs.pair_reps(m))
    sample = [inputs.random_orientation(rng, m, weight, hodge) for _ in range(SAMPLE_SIZE)]
    ops = []
    for em, ew, eh in ENUMERATIONS:
        expected = inputs.orientation_count(len(inputs.pair_reps(em)), ew, eh)
        must_list = sample if em == m else []

        def check(doc, expected=expected, must_list=must_list):
            r = doc["result"]
            listed = {inputs.canonical(o) for o in r["orientations"]}
            if r["count"] != expected or len(r["orientations"]) != expected:
                return f"count {r['count']} != closed form {expected}"
            if len(listed) != expected:
                return "duplicate orientations"
            if any(inputs.canonical(o) not in listed for o in must_list):
                return "a sampled orientation is missing from the enumeration"
            return None

        argv = ["orient", "enumerate", "--conductor", str(em), "--weight", str(ew),
                "--hodge", ",".join(map(str, eh))]
        ops.append(CliOp(f"enumerate-m{em}", argv, check))
    hypotheses = weight > 1 and hodge[0] == 1 and hodge[1] == 1 and (2 * n) % 4 != 0
    for k, orientation in enumerate(sample):
        rank = inputs.orbit_rank(m, orientation)

        def check_nondeg(doc, rank=rank):
            r = doc["result"]
            verdict = "nondegenerate" if rank == n else "degenerate_under_span_assumption"
            if (r["orbit_rank"], r["cartan_bound"], r["verdict"]) != (rank, n, verdict):
                return f"nondeg report {r['orbit_rank']}/{r['verdict']} != {rank}/{verdict}"
            return None

        def check_rigidity(doc):
            r = doc["result"]
            if r["hypotheses_met"] != hypotheses:
                return f"hypotheses_met {r['hypotheses_met']} != {hypotheses}"
            if r["hypotheses_met"] and r["verdict"] != "rigid":
                return "not rigid under the hypotheses"
            return None

        tail = ["--conductor", str(m), "--weight", str(weight),
                "--orientation", json.dumps(orientation)]
        ops.append(CliOp(f"nondeg-{k}", ["nondeg"] + tail, check_nondeg))
        ops.append(CliOp(f"rigidity-{k}", ["rigidity"] + tail, check_rigidity))
    return ops


def _attempt(cli, op):
    """Run one CLI call in process; returns (op, start, end, exit code or None, stdout or error)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a dead run
        return op, start, time.perf_counter(), None, f"{type(exc).__name__}: {exc}"
    return op, start, time.perf_counter(), code, buf.getvalue()


def _timed(start, end, host):
    """(op seconds without host samples, reference seconds or None)."""
    if host is None:
        return end - start, None
    inside, ref = host.around(start, end)
    return end - start - inside, ref


def _checked(attempts, host=None):
    """Rows (name, seconds, reference seconds or None, failure or None, digest, stdout bytes)."""
    rows = []
    for op, start, end, code, out in attempts:
        seconds, ref = _timed(start, end, host)
        if code is None:
            rows.append((op.name, seconds, ref, out, None, 0))
            continue
        failure = f"exit code {code}" if code != 0 else None
        if failure is None:
            try:
                failure = op.check(json.loads(out))
            except (ValueError, KeyError, TypeError) as exc:
                failure = f"unreadable output: {exc!r}"
        rows.append((op.name, seconds, ref, failure, _sha(out), len(out.encode())))
    return rows


def _wall(rows):
    return sum(row[1] for row in rows)


def cli_round(cli, ops, tracer=None):
    """Run every op once and check the outputs afterwards; returns [(wall, rows)].

    Wall is the summed op time.  With a tracer, each op runs untraced and
    traced back to back, in alternating order, so host-speed drift hits both
    alike; returns the untraced and the traced round.
    """
    if tracer is None:
        with HostRef() as host:
            attempts = [_attempt(cli, op) for op in ops]
        rows = _checked(attempts, host)
        return [(_wall(rows), rows)]
    plain, traced = [], []
    for k, op in enumerate(ops):
        for on in (False, True) if k % 2 == 0 else (True, False):
            if on:
                tracer.install()
                try:
                    traced.append(_attempt(cli, op))
                finally:
                    tracer.uninstall()
            else:
                plain.append(_attempt(cli, op))
    return [(_wall(rows), rows) for rows in (_checked(plain), _checked(traced))]


class _Timings(dict):
    """``run_core``'s timings_out, which also stamps when each criterion ended.

    run_core stores a criterion's time just before it starts the next one's
    clock, so consecutive stamps bracket each criterion.
    """

    def __init__(self):
        super().__init__()
        self.stamps = [time.perf_counter()]

    def __setitem__(self, criterion, seconds):
        super().__setitem__(criterion, seconds)
        self.stamps.append(time.perf_counter())


def _battery(acceptance, seed, host=None):
    """Rows of one ``run_core(seed)``; with ``host``, samples run while it does."""
    timings = _Timings()
    try:
        with host or contextlib.nullcontext():
            records = acceptance.run_core(seed, timings_out=timings)
    except Exception as exc:  # noqa: BLE001 - a crash is a failed op, not a dead run
        return [("run_core", 0.0, None, f"{type(exc).__name__}: {exc}", None, 0)]
    rows = []
    for k, record in enumerate(records, start=1):
        failure = None
        if record.get("criterion") != k or record.get("pass") is not True:
            failure = f"criterion {record.get('criterion')} did not pass"
        inside, ref = host.around(*timings.stamps[k - 1:k + 1]) if host else (0.0, None)
        text = json.dumps(record, sort_keys=True)
        rows.append((f"criterion-{k}", timings[k] - inside, ref, failure, _sha(text), 0))
    return rows


def selftest_round(acceptance, seed, tracer=None):
    """One ``run_core(seed)``, each criterion an op timed by ``timings_out``; [(wall, rows)].

    Wall is the summed criterion time.  With a tracer, an untraced battery is
    followed by a traced one.
    """
    if tracer is None:
        rows = _battery(acceptance, seed, HostRef())
        return [(_wall(rows), rows)]
    plain = _battery(acceptance, seed)
    tracer.install()
    try:
        traced = _battery(acceptance, seed)
    finally:
        tracer.uninstall()
    return [(_wall(rows), rows) for rows in (plain, traced)]


def load_cmhodge():
    """Import cmhodge from this checkout's src/ directory, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "cmhodge", "__init__.py")):
        print(f"no cmhodge sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import cmhodge
    import cmhodge.acceptance
    import cmhodge.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(cmhodge.__file__))) != SRC:
        print(f"cmhodge was imported from {cmhodge.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return cmhodge


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=tracing.OP_ROOTS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--max-rounds", type=int, default=0, help="0: no limit")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: one round with every op run untraced and traced")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cmhodge = load_cmhodge()
    rng = random.Random(f"{args.workload}:{args.seed}")
    build = {"escape": _escape_ops, "sweep": _sweep_ops}.get(args.workload)  # selftest: run_core
    ops = build(rng) if build else None
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    if ops is None:
        run_round = functools.partial(selftest_round, cmhodge.acceptance, args.seed)
    else:
        run_round = functools.partial(cli_round, cmhodge.cli, ops)

    rounds = []
    first_digests = None
    tracer = None
    if args.trace:
        tracer = tracing.Tracer(cmhodge, op_roots=tracing.OP_ROOTS[args.workload])
    while True:
        for wall, rows in run_round(tracer):
            if first_digests is None:
                first_digests = [row[4] for row in rows]
            rounds.append({"wall": wall, "ops": [
                [name, seconds, ref, failure if d == f else failure or "output differs from the first round"]
                for (name, seconds, ref, failure, d, _), f in zip(rows, first_digests)
            ]})
        if tracer is not None or len(rounds) == args.max_rounds:
            break
        elapsed = sum(r["wall"] for r in rounds)
        if elapsed + elapsed / len(rounds) > args.seconds:
            break

    result = {
        "ready": ready,
        "rounds": rounds,
        "digests": first_digests,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        spans = tracer.spans()
        os.makedirs(SPANS_DIR, exist_ok=True)
        tracer.write(os.path.join(SPANS_DIR, f"spans-{args.workload}-{args.seed}.jsonl"))
        result["self_times"] = tracing.self_times(spans)
        result["op_seconds"] = tracing.op_durations(spans, tracer.op_roots)
        result["tallies"] = dict(tracer.tallies)
        result["stdout_bytes"] = sum(row[5] for row in rows)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
