"""Tests of the benchmark itself: every workload at tiny size, and planted errors.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import csv
import io
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from entcat import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def last_json(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_json_names_the_workloads_and_layer_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.NAMES)
    layers = tracing.metric_units()
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers)
    assert [m["unit"] for m in SPEC["per_layer"]] == list(layers.values())


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_clean_at_tiny_size(name):
    result = last_json(run_bench("--workload", name))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_traced_run_reports_every_layer_metric():
    metrics = last_json(run_bench("--workload", "sim-aux-rich", "--trace", "1"))["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["cli.main.calls"] == 2
    assert value["simulate.simulate_detailed.calls"] == 1
    assert value["simulate.validate_waiting_factor.calls"] == 1
    # simulate reaches waiting_factor through its own module namespace.
    assert value["network.waiting_factor.calls"] == 1
    assert value["network.waiting_factor.distinct_ratio"] == 1.0
    assert value["simulate.edge_slots"] == 32 * 500
    assert value["simulate.deliveries"] > 0
    assert value["catalysis.search_catalyst.calls"] == 0


def test_tracer_wraps_every_namespace_and_uninstalls():
    import entcat
    from entcat import network, simulate

    original = network.waiting_factor
    tracer = tracing.Tracer()
    replaced = tracer.install()
    try:
        assert simulate.waiting_factor is network.waiting_factor is entcat.waiting_factor
        assert network.waiting_factor is not original
        edge = network.EdgeParams(alpha=0.8, copies=2, catalyst_dim=4)
        network.rate_catalytic(edge, network.AuxConfig(network.AUX_RICH), 8)
    finally:
        tracer.uninstall(replaced)
    assert network.waiting_factor is original and simulate.waiting_factor is original
    names = [s[0] for s in tracer.spans]
    assert names.count("network.waiting_factor") == 2
    assert "catalysis.search_catalyst" in names  # called from network's namespace
    values = tracer.metrics([1.0])
    top = values["network.rate_catalytic.self_s"]["value"]
    assert 0 < top < tracer.spans[0][3] - tracer.spans[0][2]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "sim-finite-aux", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Planted errors: each kind of check rejects a wrong output
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of every tiny workload op, keyed by (workload, subcommand)."""
    workdir = tmp_path_factory.mktemp("bench")
    found = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, seed=5, size="tiny", workdir=workdir)
        for path, text in wl.files.items():
            path.write_text(text)
        for op in wl.ops:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                assert cli.main(list(op.argv)) == 0
            text = stdout.getvalue() if op.out is None else op.out.read_text()
            found[(name, op.argv[0])] = (op, text)
    return found


def test_real_outputs_pass_every_check(outputs):
    for key, (op, text) in outputs.items():
        assert op.check(text) == [], key


def edit_sweep(text, pick, edit):
    """Apply ``edit`` to the first data row for which ``pick(row)`` holds."""
    rows = list(csv.DictReader(io.StringIO(text)))
    row = next(r for r in rows if pick(r))
    edit(row)
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=checks.SWEEP_HEADER, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def scale(field, factor):
    def edit(row):
        row[field] = repr(float(row[field]) * factor)
    return edit


def in_window(mode="aux_rich", dim="2"):
    return lambda r: r["window_flag"] == "ok" and r["mode"] == mode and r["catalyst_dim"] == dim


def suboptimal_catalyst(row):
    """A consistent but worse catalyst: c0 moved, p_cat the exact ratio there."""
    from fractions import Fraction

    c0 = Fraction(row["c0"]) + Fraction(1, 100)
    p = float(checks.exact_two_qubit_p(Fraction(row["alpha"]), 2, c0))
    row["c0"], row["p_cat"] = repr(float(c0)), repr(p)


SWEEP_PLANTS = [
    ("z_cat", in_window(), scale("z_cat", 1 + 1e-6), "z_cat"),
    ("z_locc", in_window(), scale("z_locc", 1 - 1e-6), "z_locc"),
    ("p_locc", in_window(), scale("p_locc", 1 + 1e-6), "p_locc"),
    ("window", in_window(), lambda r: r.update(window_flag="out_of_window"), "window_flag"),
    ("cycle_none", in_window("none"), scale("t_edge_cycle_s", 1.001), "t_edge_cycle_s"),
    ("rate_cat", in_window(), scale("rate_cat_hz", 1.001), "rate_cat_hz"),
    ("rate_locc", lambda r: True, scale("rate_locc_hz", 0.999), "rate_locc_hz"),
    ("p_cat_exact", in_window(), scale("p_cat", 1 + 1e-6), "exact ratio"),
    ("suboptimal", in_window(), suboptimal_catalyst, "below the best 2-dim catalyst"),
    ("n_cat", in_window("none"), lambda r: r.update(n_cat=str(int(r["n_cat"]) + 1)), "n_cat"),
]


@pytest.mark.parametrize("label,pick,edit,message", SWEEP_PLANTS, ids=[p[0] for p in SWEEP_PLANTS])
def test_sweep_check_rejects_planted_error(outputs, label, pick, edit, message):
    op, text = outputs[("sweep-long-chain", "sweep")]
    errors = op.check(edit_sweep(text, pick, edit))
    assert any(message in e for e in errors), errors


def test_sweep_check_rejects_dim4_below_dim2(outputs):
    op, text = outputs[("sweep-dim4", "sweep")]
    rows = list(csv.DictReader(io.StringIO(text)))
    alpha = next(r["alpha"] for r in rows if r["window_flag"] == "ok" and r["catalyst_dim"] == "2")
    base = next(float(r["p_cat"]) for r in rows if r["alpha"] == alpha and r["catalyst_dim"] == "2")
    planted = edit_sweep(
        text, lambda r: r["alpha"] == alpha and r["catalyst_dim"] == "4",
        lambda r: r.update(p_cat=repr(base - 1e-6)),
    )
    assert any("below dim-2 value" in e for e in op.check(planted))


def test_sweep_check_rejects_missing_row(outputs):
    op, text = outputs[("sweep-dim4", "sweep")]
    assert any("rows, expected" in e for e in op.check("\n".join(text.splitlines()[:-1]) + "\n"))


def edit_record(text, edit):
    record = json.loads(text)
    edit(record)
    return json.dumps(record) + "\n"


def bump(field, by=1, edge=0):
    return lambda rec: rec["counters"][edge].update({field: rec["counters"][edge][field] + by})


SIM_PLANTS = [
    ("attempts", "sim-aux-rich", bump("catalysis_failures"), "attempts != successes + failures"),
    ("consumed", "sim-finite-aux", bump("catalysts_consumed", edge=1), "consumed != failures"),
    ("loading", "sim-aux-rich", bump("primary_attempts", edge=3), "primary_attempts != loading_slots"),
    ("successes", "sim-aux-rich", bump("catalysis_successes", 2), "successes for"),
    ("stock", "sim-finite-aux", bump("catalysts_produced", 5), "final stock"),
    ("rate", "sim-aux-rich", lambda r: r.update(mean_completion_s=r["mean_completion_s"] * 1.2), "sigma"),
    ("timeout", "sim-finite-aux", lambda r: r.update(timed_out=True), "timed out"),
]


@pytest.mark.parametrize("label,name,edit,message", SIM_PLANTS, ids=[p[0] for p in SIM_PLANTS])
def test_simulate_check_rejects_planted_error(outputs, label, name, edit, message):
    op, text = outputs[(name, "simulate")]
    errors = op.check(edit_record(text, edit))
    assert any(message in e for e in errors), errors


Z_PLANTS = [
    ("analytic", lambda r: r.update(analytic=r["analytic"] * (1 + 1e-6)), "analytic"),
    ("mean", lambda r: r.update(empirical_mean=r["empirical_mean"] + 10 * r["std_error"]), "sigma from"),
    ("std_error", lambda r: r.update(std_error=r["std_error"] * 2), "std_error"),
    ("passed", lambda r: r.update(passed=not r["passed"]), "passed flag"),
]


@pytest.mark.parametrize("label,edit,message", Z_PLANTS, ids=[p[0] for p in Z_PLANTS])
def test_validate_z_check_rejects_planted_error(outputs, label, edit, message):
    op, text = outputs[("sim-aux-rich", "validate-z")]
    errors = op.check(edit_record(text, edit))
    assert any(message in e for e in errors), errors


def test_output_that_changes_between_rounds_fails(monkeypatch):
    monkeypatch.setenv("PERFBENCH_SPAWN", "0")
    import worker

    calls = itertools.count()

    def drifting_main(argv):
        print(f"call {next(calls)}")
        return 0 if argv[0] == "ok" else 1

    monkeypatch.setattr(worker.entcat.cli, "main", drifting_main)
    ops = (
        workloads.Op(("ok",), None, 1, lambda text: []),
        workloads.Op(("broken",), None, 1, lambda text: []),
    )
    result = worker.run_workload(workloads.Workload("drift", ops, {}), 0.3, worker.speed.SpeedProbe())
    rounds = result["rounds"]
    assert rounds >= 2 and result["attempted"] == 2 * rounds
    # Every round of the failing op fails, and every round but the first of
    # the op whose output drifts.
    assert result["failed"] == rounds + rounds - 1
    assert not result["correct"]


def test_check_that_raises_fails_the_op(monkeypatch):
    monkeypatch.setenv("PERFBENCH_SPAWN", "0")
    import worker

    monkeypatch.setattr(worker.entcat.cli, "main", lambda argv: print("not a number") or 0)
    op = workloads.Op(("garbled",), None, 1, lambda text: [] if float(text) else [])
    result = worker.run_workload(workloads.Workload("garbled", (op,), {}), 0.0, worker.speed.SpeedProbe())
    assert result["failed"] == result["attempted"] == 1
    assert not result["correct"]
    assert "check raised" in result["errors"][0]
