"""The benchmark's own tests: every workload at a tiny size passes its check,
corrupted outputs count as failures, and the tracer's accounting adds up.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import spans
import speed
import workloads
from noonloss import cli, fock_oracle, optimal_search, roots
from noonloss.analytics import LossChannel
from worker import Ledger, layer_metrics, run_pass

TINY = {
    "sweep_eta_json": {"steps": 400},
    "sweep_fig_csv": {"steps": 3000},
    "verify_oracle": {"max_n": 4},
    "optimize_grid": {"points": 400},
}


def tiny(name, tmp_path, seed=7):
    return workloads.make(name, seed, tmp_path, **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_workload_passes_its_check(name, tmp_path):
    w = tiny(name, tmp_path)
    codes = w.run()
    assert codes == [0] * len(codes)
    assert w.check(codes, w.snapshot()) == 0


def test_same_seed_same_inputs(tmp_path):
    a = tiny("optimize_grid", tmp_path / "a", seed=3)
    b = tiny("optimize_grid", tmp_path / "b", seed=3)
    assert a.etas == b.etas and a.budgets == b.budgets
    assert tiny("sweep_fig_csv", tmp_path / "c", 3).argvs[0][:-1] == \
        tiny("sweep_fig_csv", tmp_path / "d", 3).argvs[0][:-1]


def test_optimize_grid_spans_the_regimes(tmp_path):
    w = tiny("optimize_grid", tmp_path)
    w.run()
    n_star, _, n_tilde = w.snapshot()
    assert min(n_star) == 1 and max(n_star) == optimal_search.DEFAULT_N_CAP
    assert min(n_tilde) == 1
    assert any(nt == b.n_total for nt, b in zip(n_tilde, w.budgets))


def test_perturbed_json_row_is_a_failure(tmp_path):
    w = tiny("sweep_eta_json", tmp_path)
    codes = w.run()
    doc = json.loads(w.snapshot()[0])
    doc[123]["min_phase"] *= 1.0 + 1e-7
    corrupted = (json.dumps(doc).encode(),)
    assert w.check(codes, corrupted) == 1


def test_finite_value_where_true_value_overflows_is_a_failure(tmp_path):
    w = tiny("sweep_fig_csv", tmp_path)
    codes = w.run()
    fig2, fig3 = w.snapshot()
    lines = fig3.decode().splitlines()
    last = lines[-1].split(",")
    assert last[1] == "inf"
    lines[-1] = f"{last[0]},1.5e308"
    assert w.check(codes, (fig2, "\n".join(lines).encode() + b"\n")) == 1


def test_inf_where_true_value_is_finite_is_a_failure(tmp_path):
    w = tiny("sweep_fig_csv", tmp_path)
    codes = w.run()
    fig2, fig3 = w.snapshot()
    lines = fig2.decode().splitlines()
    n, _, sql = lines[1].split(",")
    lines[1] = f"{n},inf,{sql}"
    assert w.check(codes, ("\n".join(lines).encode() + b"\n", fig3)) == 1


def test_corrupted_oracle_fails_every_point(tmp_path):
    w = tiny("verify_oracle", tmp_path)
    w.argvs[0].insert(1, "--corrupt-prefactor")
    codes = w.run()
    assert codes == [cli.EXIT_VERIFY_FAIL]
    assert w.check(codes, w.snapshot()) == w.items


def test_wrong_optimum_is_a_failure(tmp_path):
    w = tiny("optimize_grid", tmp_path)
    w.run()
    n_star, precision, n_tilde = (list(x) for x in w.snapshot())
    i = next(k for k, n in enumerate(n_star) if 10 < n < 10 ** 6)
    j = next(k for k, n in enumerate(n_tilde) if k != i and 10 < n < w.budgets[k].n_total - 2)
    k = next(k for k in range(len(precision)) if k not in (i, j))
    n_star[i] += 2
    n_tilde[j] += 2
    precision[k] *= 1.0 + 1e-10
    assert w.check([0], (n_star, precision, n_tilde)) == 3


def test_ledger_checks_a_pass_that_differs_from_the_first(tmp_path):
    w = tiny("optimize_grid", tmp_path)
    ledger = Ledger(w)
    run_pass(w, ledger)
    run_pass(w, ledger)
    n_star, precision, n_tilde = w.snapshot()
    ledger.record([0], ([n + 1 for n in n_star], precision, n_tilde))
    ledger.record(None, None)
    attempted, failed = ledger.finish()
    assert attempted == 4 * w.items
    assert w.items < failed < 3 * w.items


@pytest.fixture
def tracer():
    t = spans.Tracer()
    t.calibrate(n=2000, repeats=2)
    t.install()
    yield t
    t.uninstall()


def test_tracer_patches_where_callers_look_and_restores(tmp_path):
    original = roots.bisect_root
    t = spans.Tracer()
    t.install()
    try:
        for module in (roots, optimal_search, spans.budget):
            assert module.bisect_root is not original
        assert cli.cmd_verify.__wrapped__ is not None
    finally:
        t.uninstall()
    assert optimal_search.bisect_root is original and roots.bisect_root is original
    assert not hasattr(cli.cmd_verify, "__wrapped__")


@pytest.mark.parametrize("name", sorted(TINY))
def test_layers_account_for_the_traced_pass(name, tmp_path, tracer):
    w = tiny(name, tmp_path)
    ledger = Ledger(w)
    wall, scale = run_pass(w, ledger, tracer=tracer)
    assert scale == 1.0
    layers = layer_metrics(tracer, 0, len(tracer.span_name), tracer.counts, w.output_bytes())
    busy = [v for k, v in layers.items()
            if k.endswith("_s") and k.split(".")[0] in spans.LAYERS
            and k not in ("fock_oracle.build_s", "fock_oracle.apply_detector_s",
                          "fock_oracle.inner_s")]
    total = sum(busy) + layers["harness.self_s"] + layers["trace.bookkeeping_s"]
    assert total == pytest.approx(wall, rel=1e-3, abs=1e-4)
    assert ledger.finish()[1] == 0


def test_counts_are_exact(tmp_path, tracer):
    optimal_search.n_min_integer(0.9)
    span_names = [tracer.names[i] for i in tracer.span_name]
    kernel_calls = span_names.count("analytics.d_log_precision_dN")
    assert kernel_calls > 10
    assert tracer.counts["roots.evals"] == kernel_calls
    optimal_search.n_min_integer(1 - 1e-12)
    assert tracer.counts["optimal_search.capped"] == 1

    tracer.reset_counts()
    fock_oracle.oracle_moments(3, LossChannel(0.5), 0.3)
    # raising branch: N + 1 terms (k quanta into b); lowering branch: one term
    assert tracer.counts["fock_oracle.amplitudes"] == 3 + 1 + 1


def test_speed_scale_removes_probe_time_and_rescales():
    probe = speed.SpeedProbe()
    # samples ending at 1.0 and 2.0 s, the loop at twice and four times REF_S
    probe.ends, probe.loops, probe.busy = [1.0, 2.0], [2 * speed.REF_S, 4 * speed.REF_S], [0.1, 0.1]
    assert probe.scale(0.0, 2.0) == pytest.approx((1.0 - 0.2 / 2.0) / 3.0)
    # no sample inside: the nearest earlier one, nothing to remove
    assert probe.scale(2.5, 3.0) == pytest.approx(0.25)
    assert probe.scale(0.0, 0.5) == pytest.approx(0.5)


def test_speed_probe_samples_while_work_runs():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 3 * speed.INTERVAL_S:
            speed.reference_loop(100)
        t1 = time.perf_counter()
    finally:
        probe.stop()
    assert len(probe.ends) >= 3
    assert 0.05 < probe.scale(t0, t1) < 2.0


def test_bad_against_log_overflow_band():
    log_max = workloads.LOG_MAX
    got = [math.inf, math.inf, 1.0, math.inf, 2.0]
    logs = [log_max + 1.0, log_max, 0.0, 0.0, math.log(2.0) + 1e-12]
    assert workloads.bad_against_log(got, logs).tolist() == [False, False, False, True, False]


def test_run_refuses_a_directory_without_the_program(tmp_path):
    bench = Path(workloads.__file__).resolve().parent
    shutil.copytree(bench, tmp_path / bench.name,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(bench.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{bench.name}/run.py", "--workload", "optimize_grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_benchmark_json_lists_what_the_worker_reports(tmp_path, tracer):
    bench = Path(workloads.__file__).resolve().parent
    spec = json.loads((bench.parent / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["wall_s", "items_per_s", "setup_s", "peak_rss_mb"]
    w = tiny("optimize_grid", tmp_path)
    run_pass(w, Ledger(w), tracer=tracer)
    layers = layer_metrics(tracer, 0, len(tracer.span_name), tracer.counts, 0)
    added = {"trace.wall_s", "trace.overhead_s", "solve_us_p50", "solve_us_p99"}
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(set(layers) | added)
