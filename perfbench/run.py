"""noonloss benchmark: one workload per call, run in fresh child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout; without it the benchmark stops with exit code 2 and prints no
result.  Workloads, metrics and their predicted effects are described in
``perfbench/README.md``.

Every time reported is rescaled to a fixed host speed (``speed.py``): the
host shares its cores, and raw times of unchanged code drift by up to 1.7x
with its load.  Raw pass times are printed too.

With ``--trace 0`` the result carries the end-to-end metrics: set-up time is
the median over seven fresh interpreters (start, imports, inputs built),
three before and three after the timed run and the timed run's own, and the
timed passes (at least three) fill ``--seconds``.  With ``--trace 1`` half
of ``--seconds`` runs untraced passes and half runs passes with every layer
wrapped, and the result carries the per-layer metrics of the traced pass of
median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 6
# every child must be done this long after the benchmark starts
DEADLINE_S = 170.0


def _args(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def start_worker(args, *, setup_only):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--src", str(SRC), "--workdir", str(WORKDIR)]
    if setup_only:
        cmd.append("--setup-only")
    return subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True)


def run_worker(args, deadline, *, setup_only):
    """Start one worker; returns (set-up seconds, report or None, exit code)."""
    t0 = time.perf_counter()
    proc = start_worker(args, setup_only=setup_only)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None, -1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    word, _, scale = first.partition(" ")
    if word != "ready":
        return None, None, proc.returncode or -1
    lines = rest.strip().splitlines()
    report = json.loads(lines[-1]) if lines and not setup_only else None
    return setup * float(scale), report, proc.returncode


def environment(report):
    """Machine and interpreter the figures were taken on."""
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": report["python"], "numpy": report["numpy"]}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        env["cpu"] = None
    for level in ("2", "3"):
        try:
            sizes = {(p / "size").read_text().strip()
                     for p in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")
                     if (p / "level").read_text().strip() == level}
            env[f"l{level}_cache"] = ",".join(sorted(sizes)) or None
        except OSError:
            env[f"l{level}_cache"] = None
    return env


def main(argv=None):
    # the metric names and units are those listed in BENCHMARK.json
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _args(argv, spec)
    if not (SRC / "noonloss" / "__init__.py").is_file():
        print(f"error: no noonloss sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    WORKDIR.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S

    setups = []

    def sample_setups(count):
        for _ in range(count):
            setup, _, code = run_worker(args, deadline, setup_only=True)
            if code != 0 or setup is None:
                print(f"error: set-up of {args.workload} failed (exit {code})", file=sys.stderr)
                return False
            setups.append(setup)
        return True

    # set-up samples before and after the timed run, so that they are spread
    # over the run like the passes are
    if not args.trace and not sample_setups(SETUP_SAMPLES // 2):
        return 1
    setup, report, code = run_worker(args, deadline, setup_only=False)
    if code != 0 or report is None:
        print(f"error: worker for {args.workload} failed (exit {code})", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    setups.append(setup)
    if not args.trace and not sample_setups(SETUP_SAMPLES - SETUP_SAMPLES // 2):
        return 1

    print("env " + json.dumps(environment(report)))
    print(f"workload {args.workload} seed {args.seed}: items/pass {report['items']}")
    print("passes, raw s:    " + " ".join(f"{w:.3f}" for w in report["raw_walls"]))
    print("passes, scaled s: " + " ".join(f"{w:.3f}" for w in report["walls"]))
    if args.trace:
        values = dict(report["layers"])
        solve = report.get("solve_us", {"p50": 0.0, "p99": 0.0})
        values["solve_us_p50"], values["solve_us_p99"] = solve["p50"], solve["p99"]
        print("traced passes, scaled s: " + " ".join(f"{w:.3f}" for w in report["traced_walls"])
              + f"; spans in {report['spans_file']}")
        listed = spec["per_layer"]
    else:
        wall = statistics.median(report["walls"])
        values = {"wall_s": wall, "items_per_s": report["items"] / wall,
                  "setup_s": statistics.median(setups), "peak_rss_mb": report["peak_rss_mb"]}
        if "solve_us" in report:
            s = report["solve_us"]
            print(f"solve latency over {s['samples']} solves: p50 {s['p50']:.3f} us, "
                  f"p99 {s['p99']:.3f} us")
        listed = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    attempted, failed = report["attempted"], report["failed"]
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
