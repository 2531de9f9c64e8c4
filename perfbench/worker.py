"""Child process of the benchmark: set up one workload, time it, check it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --src DIR --workdir DIR [--setup-only]

Prints ``ready <scale>`` as soon as the inputs are built (the parent times
set-up up to that line and multiplies it by the scale, see ``speed.py``),
then one JSON line with the figures.  ``run.py`` starts this with ``src``
on ``PYTHONPATH`` and the math libraries pinned to one thread.
"""

import argparse
import gc
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import speed

# the untraced end-to-end run takes the median of at least this many passes
MIN_PASSES = 3


def _args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--src", type=Path, required=True)
    p.add_argument("--workdir", type=Path, required=True)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


class Ledger:
    """Outcome of every pass: attempted and failed items.

    A pass whose output matches the first pass byte for byte shares its
    verdict; any other output is checked on its own, after timing ends.
    """

    def __init__(self, workload):
        self.w = workload
        self.passes = 0
        self.same_as_reference = 0
        self.failed = 0
        self.reference = None

    def record(self, codes, snapshot):
        self.passes += 1
        if self.reference is None:
            self.reference = (codes, snapshot)
        if codes is not None and (codes, snapshot) == self.reference:
            self.same_as_reference += 1
        elif codes is None:
            self.failed += self.w.items
        else:
            self.failed += self.w.check(codes, snapshot)

    def finish(self):
        """Check the reference output; returns (attempted, failed)."""
        codes, snapshot = self.reference
        ref_failed = self.w.items if codes is None else self.w.check(codes, snapshot)
        failed = self.failed + ref_failed * self.same_as_reference
        return self.passes * self.w.items, failed


def run_pass(workload, ledger, probe=None, tracer=None):
    """One timed pass; returns its raw wall time in seconds and the factor
    that rescales it to the reference host speed (1 without a probe)."""
    gc.collect()
    if tracer is not None:
        idx = tracer.open(tracer.HARNESS)
    t0 = perf_counter()
    try:
        codes = workload.run()
    except Exception:  # a crash of the program counts as failed items
        traceback.print_exc(file=sys.stderr)
        codes = None
    t1 = perf_counter()
    if tracer is not None:
        tracer.close(idx)
    ledger.record(codes, workload.snapshot() if codes is not None else None)
    return t1 - t0, probe.scale(t0, t1) if probe is not None else 1.0


def fill(seconds, min_passes, one_pass):
    """Call ``one_pass`` at least ``min_passes`` times, then while another
    pass as long as the last one still ends within ``seconds``.

    ``one_pass`` returns a tuple whose first item is the pass's wall time.
    """
    results = []
    t0 = perf_counter()
    while len(results) < min_passes or perf_counter() - t0 + results[-1][0] <= seconds:
        results.append(one_pass())
    return results


def layer_metrics(tracer, lo, hi, counts, output_bytes, scale=1.0):
    """Per-layer figures of one traced pass, spans[lo:hi]; times are
    multiplied by the pass's ``scale``."""
    st, bookkeeping = tracer.self_times(lo, hi)
    evals = counts["roots.evals"]
    eval_cost = evals * tracer.cost_eval  # counted inside the root finders' spans

    def secs(*names):
        return sum(st.get(n, (0.0, 0, 0))[0] for n in names)

    def layer(prefix, field):
        i = {"busy": 0, "spans": 1, "entries": 2}[field]
        return sum(v[i] for k, v in st.items() if k.startswith(prefix + "."))

    render = secs("cli.render_csv", "cli.render_json", "cli.render_text")
    parse = secs("cli.main", "cli.build_parser")
    write = secs("cli.emit")
    a_calls, a_busy = layer("analytics", "entries"), layer("analytics", "busy")
    bisections = st.get("roots.bisect_root", (0.0, 0, 0))[1]
    metrics = {
        "cli.parse_s": parse,
        "cli.compute_s": layer("cli", "busy") - parse - render - write,
        "cli.render_s": render,
        "cli.write_s": write,
        "cli.output_bytes": output_bytes,
        "analytics.calls": a_calls,
        "analytics.busy_s": a_busy,
        "analytics.us_per_call": 1e6 * a_busy / a_calls if a_calls else 0.0,
        "budget.calls": layer("budget", "entries"),
        "budget.busy_s": layer("budget", "busy"),
        "fock_oracle.calls": layer("fock_oracle", "entries"),
        "fock_oracle.busy_s": layer("fock_oracle", "busy"),
        "fock_oracle.build_s": secs("fock_oracle.build_noon_input"),
        "fock_oracle.apply_detector_s": secs("fock_oracle.apply_detector"),
        "fock_oracle.inner_s": secs("fock_oracle.inner"),
        "fock_oracle.amplitudes": counts["fock_oracle.amplitudes"],
        "optimal_search.calls": layer("optimal_search", "entries"),
        "optimal_search.busy_s": layer("optimal_search", "busy"),
        "optimal_search.capped": counts["optimal_search.capped"],
        "roots.calls": layer("roots", "entries"),
        "roots.busy_s": layer("roots", "busy") - eval_cost,
        "roots.evals": evals,
        "roots.evals_per_solve": evals / bisections if bisections else 0.0,
        "harness.self_s": secs("harness.pass"),
        "trace.spans": hi - lo,
        "trace.bookkeeping_s": bookkeeping + eval_cost,
    }
    return {k: v * scale if k.endswith("_s") or k.endswith("us_per_call") else v
            for k, v in metrics.items()}


def traced_passes(workload, ledger, probe, seconds):
    import spans

    tracer = spans.Tracer()
    tracer.calibrate()
    tracer.install()

    def one_pass():
        tracer.reset_counts()
        lo = len(tracer.span_name)
        raw, scale = run_pass(workload, ledger, probe, tracer)
        return (raw, scale, lo, len(tracer.span_name), dict(tracer.counts),
                workload.output_bytes())

    try:
        passes = fill(seconds, 1, one_pass)
    finally:
        tracer.uninstall()
    # report the pass of median wall time, so that its layers add up to it
    raw, scale, lo, hi, counts, out_bytes = sorted(passes, key=lambda p: p[0] * p[1])[
        (len(passes) - 1) // 2]
    layers = layer_metrics(tracer, lo, hi, counts, out_bytes, scale)
    layers["trace.wall_s"] = raw * scale
    return tracer, layers, [p[0] * p[1] for p in passes]


def main(argv=None):
    args = _args(argv)
    probe = speed.SpeedProbe()
    probe.start()
    try:
        return run(args, probe, perf_counter())
    finally:
        probe.stop()


def run(args, probe, started):
    import noonloss
    import numpy
    import workloads

    if not Path(noonloss.__file__).resolve().is_relative_to(args.src.resolve()):
        print(f"error: imported noonloss from {noonloss.__file__}, not from {args.src}",
              file=sys.stderr)
        return 3
    w = workloads.make(args.workload, args.seed, args.workdir)
    print(f"ready {probe.scale(started, perf_counter())!r}", flush=True)
    if args.setup_only:
        return 0

    ledger = Ledger(w)
    report = {"python": sys.version.split()[0], "numpy": numpy.__version__, "items": w.items}
    untraced = args.seconds / 2 if args.trace else args.seconds
    min_passes = 1 if args.trace else MIN_PASSES
    passes = fill(untraced, min_passes, lambda: run_pass(w, ledger, probe))
    report["raw_walls"] = [raw for raw, _ in passes]
    report["walls"] = [raw * scale for raw, scale in passes]
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latency = getattr(w, "latency_ns", None)
    if latency:
        lat = sorted(ns * scale for k, (_, scale) in enumerate(passes)
                     for ns in latency[k * w.items:(k + 1) * w.items])
        report["solve_us"] = {"p50": statistics.median(lat) / 1e3,
                              "p99": lat[min(len(lat) - 1, int(0.99 * len(lat)))] / 1e3,
                              "samples": len(lat)}
    if args.trace:
        tracer, layers, traced_walls = traced_passes(w, ledger, probe, args.seconds / 2)
        layers["trace.overhead_s"] = layers["trace.wall_s"] - statistics.median(report["walls"])
        report["layers"] = layers
        report["traced_walls"] = traced_walls
        spans_file = args.workdir / f"spans-{args.workload}.npz"
        tracer.save(spans_file)
        report["spans_file"] = str(spans_file)
        del tracer
    report["attempted"], report["failed"] = ledger.finish()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
