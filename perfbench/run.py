#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload matrix --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``matrix`` (compile every Table 2/3 cell), ``exec-interp``,
``exec-threaded`` and ``exec-specialized`` (run the compiled programs
on one engine) and ``serve`` (a closed loop against ``repro serve``).
``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public functions and reports the
per-layer breakdown.  The last line of standard output is one JSON
object; the lines before it say the same for a reader.  The exit code
is non-zero when any op failed or disagreed with its reference.
"""

import argparse
import importlib.util
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("matrix", "exec-interp", "exec-threaded", "exec-specialized",
             "serve")
#: Set-ups per untraced run: this process plus the helper processes,
#: each under its own PYTHONHASHSEED, whose deterministic results must
#: equal this process's.
SETUPS = 3
#: PYTHONHASHSEED of the measuring process; helper ``i`` uses ``i``.
MAIN_HASHSEED = "0"
#: Keys whose deterministic results each helper process reports.
SAMPLE_KEYS = 12
SETUP_TIMEOUT = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def make_workload(name, seed, in_process):
    if name == "serve":
        from serve import Serve

        return Serve(seed, ROOT, in_process)
    from workloads import make

    return make(name, seed)


def jsonable(value):
    """Tuples become lists, so keys compare equal after a JSON trip."""
    return json.loads(json.dumps(value, default=str))


def set_up(args, tracer=None):
    """Import the program and set the workload up.

    Returns ``(workload, patcher, seconds)``: ``patcher`` holds the
    traced run's layer wrappers (removed again) and ``seconds`` is the
    set-up time, calibrated between set-up steps like the ops (see
    :mod:`calibrate`).
    """
    from calibrate import SetupClock

    clock = SetupClock()
    workload = make_workload(args.workload, args.seed,
                             in_process=bool(args.trace))
    clock.mark()
    patcher = None
    try:
        if tracer is not None:
            import layers

            root = tracer.open(layers.SETUP)
            patcher = layers.install(tracer)
            workload.patcher = patcher
        try:
            workload.setup(clock.mark)
        finally:
            if patcher is not None:
                patcher.restore()
                tracer.close(root)
    except BaseException:
        workload.close()
        raise
    clock.mark()
    return workload, patcher, clock.calibrated


def setup_only(args):
    """Helper process: set up, report the time and the key sample."""
    workload, _, seconds = set_up(args)
    try:
        det = jsonable([[key, workload.det_for(key)]
                        for key in workload.sample_keys(SAMPLE_KEYS)])
    finally:
        workload.close()
    print(json.dumps({"setup_s": seconds, "det": det}))
    return 0


def helper_setups(args):
    """Set up again in fresh processes; returns their reports."""
    reports = []
    for index in range(SETUPS - 1):
        env = dict(os.environ, PYTHONHASHSEED=str(index + 1))
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", "0",
                   "--setup-only"]
        proc = subprocess.run(command, cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=SETUP_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError("set-up helper failed:\n" + proc.stderr[-2000:])
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        report["hashseed"] = index + 1
        reports.append(report)
    return reports


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)
    spec = importlib.util.find_spec("repro")
    if spec is None or not os.path.abspath(spec.origin).startswith(
            SRC + os.sep):
        print("perfbench: the program's source is not at %s" % SRC,
              file=sys.stderr)
        return 2
    if args.setup_only:
        return setup_only(args)
    if os.environ.get("PYTHONHASHSEED") != MAIN_HASHSEED:
        # string hashing changes dict and set layouts and with them the
        # speed of a run by a few percent, so the measuring process
        # always hashes alike; the helpers use other seeds
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED=MAIN_HASHSEED))
    helpers = [] if args.trace else helper_setups(args)

    from benchstats import Tally
    from spans import Tracer

    tracer = Tracer() if args.trace else None
    workload, patcher, setup_s = set_up(args, tracer)
    tally = Tally()
    try:
        workload.drive(args.seconds, tally, tracer, patcher)
        for report in helpers:
            check_helper(workload, report, tally)
    finally:
        workload.close()

    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d-trace%d"
                        % (args.workload, args.seed, args.trace))
    lines = ["perfbench %s seed=%d seconds=%g trace=%d"
             % (args.workload, args.seed, args.seconds, args.trace)]
    extra = workload.report(tally)
    if args.trace:
        tracer.write(stem + ".spans.json")
        metrics = traced_metrics(workload, tracer, extra)
        if workload.canonical:
            import layers

            for key in layers.drifted_keys(tracer.spans):
                tally.fail("traced counters of %s drifted" % (key,))
        if args.workload == "serve":
            from serve import WORKERS

            lines.append("traced: the service runs in the benchmark "
                         "process on %d worker threads" % WORKERS)
    else:
        metrics = end_to_end(workload, tally,
                             [setup_s] + [h["setup_s"] for h in helpers])
    from benchstats import describe_latency

    for cls, samples in sorted(tally.by_class.items()):
        lines.append("  latency %-10s %s" % (cls or "op",
                                             describe_latency(samples)))
    for name, value in sorted(extra.items()):
        if name not in metrics:
            lines.append("  %-34s %.6g" % (name, value))
    for name, entry in sorted(metrics.items()):
        lines.append("  %-34s %.6g %s" % (name, entry["value"],
                                          entry["unit"]))
    lines.append("  ops attempted %d, failed %d (failed_share %.6g)"
                 % (tally.attempted, tally.failed, tally.failed_share))
    for reason, count in sorted(tally.reasons.items()):
        lines.append("  failure x%d: %s" % (count, reason))
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    with open(stem + ".json", "w") as handle:
        json.dump(dict(result, seed=args.seed, workload=args.workload,
                       extra=extra, reasons=tally.reasons,
                       latencies_ms={cls or "op": [1e3 * s for s in samples]
                                     for cls, samples
                                     in tally.by_class.items()}),
                  handle, indent=1)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def check_helper(workload, report, tally):
    """The helper's deterministic results must equal this process's."""
    for key, det in report["det"]:
        key = tuple(key)
        if jsonable(workload.det_for(key, tally.first_det)) != det:
            tally.fail("deterministic results of %s differ under "
                       "PYTHONHASHSEED=%d" % (key, report["hashseed"]))


def end_to_end(workload, tally, setups):
    from benchstats import peak_rss_kib, qualifies, smoothed_percentile

    if workload.name == "serve":
        # the client's latencies, calibrated up to the response headers
        samples = [s for values in tally.by_class.values() for s in values]
        peak_kib = peak_rss_kib() + workload.server_peak_kib
    else:
        samples = workload.calibrated
        peak_kib = peak_rss_kib()
    ops_per_s = len(samples) / sum(samples)
    if not qualifies(len(samples), 90.0):
        tally.fail("too few ops (%d) for a p90 with 10 samples beyond"
                   % len(samples))
    return {
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_kib / 1024.0, "MiB"),
        "ops_per_s": metric(ops_per_s, "1/s"),
        "op_p50_ms": metric(1e3 * smoothed_percentile(samples, 50.0), "ms"),
        "op_p90_ms": metric(1e3 * smoothed_percentile(samples, 90.0), "ms"),
    }


#: Figures from :meth:`report` that the traced run also lists.
PER_LAYER_EXTRAS = {"matrix.checks_removed_pct": "%",
                    "exec.dyn_checks_per_kinstr": "1/kinstr"}


def traced_metrics(workload, tracer, extra):
    import layers
    from spans import coverage

    values = layers.layer_metrics(tracer.spans, workload.canonical)
    values["trace.coverage"] = coverage(tracer.spans, layers.OP)
    values["trace.overhead_pct"] = overhead_pct(workload)
    statuses = getattr(workload, "traced_statuses", [])
    values["service.coalesced"] = getattr(workload, "coalesced", 0)
    values["service.traps"] = getattr(workload, "traced_traps", 0)
    values["service.status_4xx"] = sum(1 for s in statuses if 400 <= s < 500)
    values["service.status_5xx"] = sum(1 for s in statuses if s >= 500)
    for name in PER_LAYER_EXTRAS:
        values[name] = extra.get(name, 0.0)
    return {name: metric(value, layer_unit(name))
            for name, value in values.items()}


def layer_unit(name):
    if name in PER_LAYER_EXTRAS:
        return PER_LAYER_EXTRAS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name == "trace.coverage":
        return "ratio"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def overhead_pct(workload):
    """How much slower a traced op is than the same op untraced."""
    pairs = getattr(workload, "pairs", None)
    if pairs:
        plain = sum(p for p, _ in pairs)
        traced = sum(t for _, t in pairs)
        return 100.0 * (traced / plain - 1.0) if plain else 0.0
    plain_total = traced_total = 0.0
    by_mode = {False: {}, True: {}}
    for traced, classes in workload.segments:
        for cls, samples in classes.items():
            by_mode[traced].setdefault(cls, []).extend(samples)
    for cls, plain in by_mode[False].items():
        traced = by_mode[True].get(cls)
        if traced:
            plain_total += sum(plain)
            traced_total += len(plain) * sum(traced) / len(traced)
    return 100.0 * (traced_total / plain_total - 1.0) if plain_total else 0.0


def _terminate(signum, frame):
    # unwind through the ``finally`` blocks, which stop the server
    sys.exit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
