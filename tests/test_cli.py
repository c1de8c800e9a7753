import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import entcat
from entcat import _engine, catalysis, cli
from entcat.cli import main, parse_config
from entcat.errors import InvalidInputError, NumericFailureError

import oracles


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rng_streams(seed, shape):
    """Every stream of a run keyed one at a time: ``_rng(seed, *index)`` in C order."""
    return (_engine._rng(seed, *index) for index in np.ndindex(*shape))


def count_engine_calls(monkeypatch) -> dict:
    """From now on, count the engine's delivery blocks, aux-path reads and key passes.

    The spies wrap what the engine holds when this is called, so a later
    patch of one of those functions replaces its spy.
    """
    calls = dict.fromkeys(("blocks", "aux_reads", "key_passes", "streams"), 0)
    block, completions, philox_keys = (_engine._Runs.block, _engine._completions,
                                       _engine._philox_keys)

    def spy_block(self, count):
        calls["blocks"] += 1
        return block(self, count)

    def spy_completions(rng, *args):
        words = rng.bit_generator.random_raw

        def read(size):
            calls["aux_reads"] += 1
            return words(size)

        return completions(SimpleNamespace(bit_generator=SimpleNamespace(random_raw=read)), *args)

    def spy_keys(prefix, suffixes):
        calls["key_passes"] += 1
        calls["streams"] += len(suffixes)
        return philox_keys(prefix, suffixes)

    monkeypatch.setattr(_engine._Runs, "block", spy_block)
    monkeypatch.setattr(_engine, "_completions", spy_completions)
    monkeypatch.setattr(_engine, "_philox_keys", spy_keys)
    return calls


def calls_at_default_sizes(capsys, monkeypatch, *argvs) -> tuple:
    """The engine's calls for the runs ``argvs`` at the default sizes, and a counter for later runs.

    The counter is zeroed, so it counts only the runs made after this call.
    """
    calls = count_engine_calls(monkeypatch)
    for argv in argvs:
        assert run_cli(capsys, *argv)[0] == 0
    default = dict(calls)
    calls.update(dict.fromkeys(calls, 0))
    return default, calls


def key_chunk_reached(builder: dict, default: dict, calls: dict) -> bool:
    """Whether a builder that shrinks the key chunk made the runs take more key passes.

    Runs of at most 5 streams take one pass at any chunk size.
    """
    shrunk = "_KEY_CHUNK" in builder
    return not shrunk or calls["key_passes"] > default["key_passes"] or default["streams"] <= 5


class TestMonotones:
    def test_bell(self, capsys):
        code, out, _ = run_cli(capsys, "monotones", "0.5,0.5")
        assert code == 0
        assert out.strip() == "1,0.5"

    def test_two_copy_spectrum(self, capsys):
        code, out, _ = run_cli(capsys, "monotones", "0.64,0.16,0.16,0.04")
        assert code == 0
        assert out.strip() == "1,0.36,0.2,0.04"

    def test_unsorted_input(self, capsys):
        code, out, _ = run_cli(capsys, "monotones", "0.4,0.4,0.1,0.1")
        assert code == 0
        assert out.strip() == "1,0.6,0.2,0.1"

    def test_parse_failure_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "monotones", "0.5,spam")
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("spectrum", ["1,inf", "nan,0.5"])
    def test_non_finite_is_an_input_error(self, capsys, spectrum):
        code, out, err = run_cli(capsys, "monotones", spectrum)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_sum_is_an_input_error_without_a_warning(self, capsys):
        code, out, err = run_cli(capsys, "monotones", "1e308,1e308")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


class TestProb:
    def test_concentration(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--initial", "0.75,0.25",
                               "--final", "0.5,0.5")
        assert code == 0
        assert out.strip() == "0.5"

    def test_catalyzed_known_instance(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--initial", "0.4,0.4,0.1,0.1",
                               "--final", "0.5,0.25,0.25", "--catalyst", "0.6,0.4")
        assert code == 0
        assert out.strip() == "1"

    def test_identity(self, capsys):
        code, out, _ = run_cli(capsys, "prob", "--initial", "0.7,0.3",
                               "--final", "0.7,0.3")
        assert code == 0
        assert out.strip() == "1"

    def test_non_finite_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "prob", "--initial", "0.5,nan", "--final", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


class TestCatalyst:
    def test_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "catalyst", "--n", "2", "--alpha", "0.8")
        assert code == 0
        coeffs, prob = out.split()
        assert prob.startswith("p=")
        c = [float(x) for x in coeffs.split(",")]
        assert c[0] == pytest.approx(0.59196, abs=1e-5)
        assert float(prob[2:]) == pytest.approx(0.88227, abs=2e-5)

    def test_dim4_dominates(self, capsys):
        code, out, _ = run_cli(capsys, "catalyst", "--n", "2", "--alpha", "0.8",
                               "--dim", "4")
        assert code == 0
        assert float(out.split()[1][2:]) >= 0.88227

    def test_window_lower_edge(self, capsys):
        # 0.7071067811865476**2 rounds to just above 1/2: n = 2 is the
        # window's last copy count, where the closed-form c0 is 1/2 itself.
        code, out, _ = run_cli(capsys, "catalyst", "--n", "2", "--alpha", "0.7071067811865476")
        assert (code, out) == (0, "0.5,0.5  p=1\n")

    def test_outside_window_exit_code(self, capsys):
        # n_star(0.6) = 2, so at alpha = 0.6 no copy count lies in [2, n_star - 1].
        for n, alpha, window in (("5", "0.8", "[2, 3]"),
                                 ("2", "0.6", "empty, as n_star(alpha) = 2")):
            code, out, err = run_cli(capsys, "catalyst", "--n", n, "--alpha", alpha)
            assert (code, out) == (1, "")
            assert err == (
                f"error: catalysis unnecessary or unsupported for n={n}: "
                f"the catalysis window at alpha={alpha} is {window}\n"
            )

    def test_dimension_cap_names_the_sizes(self, capsys):
        # n = 25 is in the window at alpha = 0.99, but 2**25 * 4 entries
        # are past the cap, so the search refuses before building anything.
        code, out, err = run_cli(capsys, "catalyst", "--n", "25", "--alpha", "0.99", "--dim", "4")
        assert (code, out) == (1, "")
        assert err == "error: combined dimension 2**25 * 4 exceeds the cap 1048576\n"


class TestSweep:
    def test_default_row_count_header(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, _ = run_cli(capsys, "sweep", "--steps", "20", "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("alpha,mode,catalyst_dim,")
        assert len(lines) == 21

    def test_none_mode_copy_column(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--steps", "12", "--alpha-min", "0.75",
                               "--alpha-max", "0.95", "--mode", "none", "--out", "-")
        assert code == 0
        lines = out.splitlines()
        n_cat_col = lines[0].split(",").index("n_cat")
        counts = [int(row.split(",")[n_cat_col]) for row in lines[1:]
                  if row.split(",")[-1] == "ok"]
        assert counts == sorted(counts)

    def test_finite_mode_rejected(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--mode", "finite", "--steps", "3")
        assert code == 1
        assert "finite" in err

    def test_bad_dim_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--dim", "2,x", "--steps", "3")
        assert code == 1
        assert err.startswith("error: ")
        assert out == ""

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_steps_below_one_is_an_input_error(self, capsys, steps):
        code, out, err = run_cli(capsys, "sweep", "--steps", steps)
        assert code == 1
        assert err.startswith("error: ")
        assert "--steps" in err
        assert out == ""

    @pytest.mark.parametrize("flag", ["--l0-km", "--cf-km-s"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_edge_is_an_input_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "sweep", "--steps", "3", flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path):
        target = tmp_path / "absent" / "sweep.csv"
        code, out, err = run_cli(capsys, "sweep", "--steps", "3", "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ")

    def test_dims_two_three_four(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n", "3", "--dim", "2,3,4", "--steps", "60")
        assert code == 0
        lines = out.splitlines()
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        assert len(rows) == 180
        p_cat = {}
        for row in rows:
            if row["window_flag"] == "ok":
                p_cat.setdefault(row["alpha"], {})[int(row["catalyst_dim"])] = float(row["p_cat"])
        assert p_cat
        for by_dim in p_cat.values():
            assert by_dim[2] <= by_dim[3] <= by_dim[4]

    @pytest.mark.parametrize(
        "flag,value", [("--mode", "aux_rich,aux_rich"), ("--dim", "2,2"), ("--dim", "4,4")]
    )
    def test_repeated_mode_or_dim_is_an_input_error(self, capsys, flag, value):
        code, out, err = run_cli(capsys, "sweep", "--steps", "3", flag, value)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and "repeat" in err

    @pytest.mark.parametrize(
        "argv,digest",
        [
            # Every mode and dimension in one call: the rows share each
            # catalyst, copy count and waiting factor, and must still print
            # the same bytes.
            pytest.param(
                "--n 2 --dim 2,3,4 --mode aux_rich,none --steps 60",
                "bab6983b3f835ffa6cb8b9741986eb30d21036bc76d9a4ebdc7f0a4fb2825534",
                id="2-bab6983b3f835ffa6cb8b9741986eb30d21036bc76d9a4ebdc7f0a4fb2825534",
            ),
            pytest.param(
                "--n 3 --dim 2,3,4 --mode aux_rich,none --steps 60",
                "6b9b48e701b065fab95b7c62538215d701ab42af3e2a065271998ff40ded7563",
                id="3-6b9b48e701b065fab95b7c62538215d701ab42af3e2a065271998ff40ded7563",
            ),
            # The long chain at dimension 2 up to alpha = 1 - 1e-6, where
            # n_cat runs to 1001.
            pytest.param(
                "--n 2 --edges 256 --mode aux_rich,none --dim 2 --steps 200",
                "6926712aca2fa5521f26cdb828f476a6fb7e9c080a83839d5957e901fa365600",
                id="long-chain",
            ),
            # N = 4096 takes H_N from its Euler-Maclaurin expansion once
            # p <= 1e-2.
            pytest.param(
                "--edges 4096 --steps 40",
                "e4f2566d6af8516ff8a6dcadefdd60a50e83393d9ac5d3d78c1c3330b4224379",
                id="edges-4096",
            ),
        ],
    )
    def test_output_bytes_are_pinned(self, capsys, argv, digest):
        code, out, _ = run_cli(capsys, "sweep", *argv.split(), "--out", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_reader_closing_stdout_early_exits_1_quietly(self):
        # The rows fill the pipe many times over, so the writer is still
        # writing when the reader leaves after the header line.
        env = {**os.environ, "PYTHONPATH": str(Path(entcat.__file__).parents[1])}
        argv = [sys.executable, "-m", "entcat.cli", "sweep", "--steps", "3000",
                "--mode", "aux_rich,none", "--out", "-"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=env) as proc:
            assert proc.stdout.readline().startswith(b"alpha,mode,catalyst_dim,")
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert (code, err) == (1, b"")

    def test_stdout_equals_file(self, capsys, tmp_path):
        out_file = tmp_path / "s.csv"
        args = ["sweep", "--steps", "8", "--alpha-min", "0.72", "--alpha-max", "0.9"]
        code, out, _ = run_cli(capsys, *args, "--out", "-")
        assert code == 0
        code2, _, _ = run_cli(capsys, *args, "--out", str(out_file))
        assert code2 == 0
        assert out == out_file.read_text()


class TestSimulateCommand:
    def test_abstract_forced_probability(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "# forced-parameter run\n"
            "mode = abstract\n"
            "n_edges = 2\n"
            "trials = 50000\n"
            "seed = 4\n"
            "p_cat = 0.5\n"
            "t_cycle_s = 1.0\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 0
        record = json.loads(out)
        assert abs(record["mean_completion_s"] - 8.0 / 3.0) <= 3 * record["std_error_s"]

    def test_detailed_starvation_flagged(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = detailed\n"
            "n_edges = 2\n"
            "alpha = 0.8\n"
            "n = 2\n"
            "P0 = 0.5\n"
            "aux_mode = finite\n"
            "aux.1.alpha = 0.8\n"
            "aux.1.P = 1.0\n"
            "aux.1.T_s = 1000.0\n"
            "initial_stock = 0\n"
            "max_slots = 1500\n"
            "seed = 4\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 0
        record = json.loads(out)
        assert record["timed_out"] is True
        assert record["rate_hz"] == 0.0

    def test_byte_identical_reruns(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = detailed\nn_edges = 2\nalpha = 0.8\nn = 2\nP0 = 0.5\n"
            "aux_mode = aux_rich\nmax_slots = 4000\nseed = 12\n"
        )
        out1 = tmp_path / "a.jsonl"
        out2 = tmp_path / "b.jsonl"
        assert run_cli(capsys, "simulate", "--config", str(conf), "--out", str(out1))[0] == 0
        assert run_cli(capsys, "simulate", "--config", str(conf), "--out", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_finite_aux_pipeline(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = detailed\nn_edges = 1\nalpha = 0.8\nn = 2\nP0 = 0.5\n"
            "aux_mode = finite\n"
            "aux.1.alpha = 0.8\naux.1.P = 1.0\naux.1.T_s = 2.5e-4\n"
            "initial_stock = 0\nmax_slots = 8000\nseed = 6\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 0
        record = json.loads(out)
        assert record["deliveries"] > 0
        assert record["counters"][0]["catalysts_produced"] > 0

    def test_flags_override_config(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = abstract\nn_edges = 1\ntrials = 10\nseed = 1\n"
            "p_cat = 1.0\nt_cycle_s = 2.0\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf),
                               "--trials", "25", "--seed", "99", "--out", "-")
        assert code == 0
        record = json.loads(out)
        assert record["config"]["trials"] == 25
        assert record["seed"] == 99
        assert record["deliveries"] == 25

    def test_bad_stock_capacity_is_an_input_error(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text("mode = detailed\nalpha = 0.8\nstock_capacity = lots\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: config line 3: bad value for stock_capacity")

    def test_bad_aux_value_is_an_input_error(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text("aux_mode = finite\naux.1.alpha = high\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: config line 2: bad value for aux.1.alpha")

    @pytest.mark.parametrize("aux_mode", ["", "aux_mode = aux_rich\n", "aux_mode = none\n"])
    def test_aux_paths_outside_finite_mode_are_an_input_error(self, capsys, tmp_path, aux_mode):
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = detailed\nalpha = 0.8\n" + aux_mode
            + "aux.1.alpha = 0.8\naux.1.P = 0.9\naux.1.T_s = 2.5e-4\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: aux mode ")
        assert "takes no paths" in err

    def test_cycle_time_in_detailed_mode_is_an_input_error(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text("mode = detailed\nalpha = 0.8\np_cat = 0.5\nt_cycle_s = 1.0\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 1
        assert out == ""
        assert err.startswith("error: a forced cycle time applies to abstract mode only")

    @pytest.mark.parametrize("setting", [
        "mode = detailed\nalpha = 0.8\nL0_km = nan\n",
        "mode = detailed\nalpha = 0.8\ncf_km_s = inf\n",
        "p_cat = 0.5\nt_cycle_s = nan\n",
        "mode = detailed\nalpha = 0.8\naux_mode = finite\n"
        "aux.1.alpha = 0.8\naux.1.P = 0.9\naux.1.T_s = nan\n",
    ])
    def test_non_finite_value_is_an_input_error(self, capsys, tmp_path, setting):
        conf = tmp_path / "sim.conf"
        conf.write_text(setting)
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("setting", [
        "mode = detailed\nalpha = 0.8\nstock_capacity = 3\n",
        "mode = detailed\nalpha = 0.8\naux_mode = none\nstock_capacity = 3\n",
        "mode = detailed\nalpha = 0.8\ninitial_stock = 1\n",
        "alpha = 0.8\ninitial_stock = 1\n",
        "alpha = 0.8\nmax_slots = 500\n",
        "mode = detailed\nn = 3\nP0 = 0.4\n",
        # Both overrides given: the run reads no edge and no aux mode.
        "p_cat = 0.5\nt_cycle_s = 1.0\nalpha = 0.8\nn = 3\naux_mode = none\n",
        "p_cat = 0.5\nt_cycle_s = 1.0\naux_mode = none\n",
    ])
    def test_setting_the_run_ignores_is_an_input_error(self, capsys, tmp_path, setting):
        conf = tmp_path / "sim.conf"
        conf.write_text(setting)
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("mode", ["abstract", "detailed"])
    def test_negative_seed_is_an_input_error(self, capsys, tmp_path, mode):
        conf = tmp_path / "sim.conf"
        conf.write_text(f"mode = {mode}\nalpha = 0.8\nseed = -3\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -3\n"

    def test_detailed_run_at_the_window_lower_edge(self, capsys, tmp_path):
        # The catalyst there is (1/2, 1/2), which the edge rebuilds from its own pairs.
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = detailed\nn_edges = 2\nalpha = 0.7071067811865476\nn = 2\nP0 = 0.5\n"
            "aux_mode = none\nmax_slots = 4000\nseed = 3\n"
        )
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 0
        assert json.loads(out)["deliveries"] > 0

    def test_config_without_edge_keys_is_an_input_error(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text("mode = detailed\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert (code, out) == (1, "")
        assert err == (
            "error: edge parameters are required unless an abstract run is given both"
            " p_cat_override and cycle_time_override_s\n"
        )

    def test_edge_keys_without_alpha_name_the_keys(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text("p_cat = 0.5\nt_cycle_s = 1.0\nn = 3\nP0 = 0.4\n")
        code, _, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 1
        assert err == "error: edge keys ['n', 'P0'] need alpha\n"

    @pytest.mark.parametrize("given", [
        "alpha = 0.8\n",
        "mode = detailed\nalpha = 0.8\naux_mode = finite\n"
        "aux.1.alpha = 0.8\naux.1.P = 0.9\naux.1.T_s = 2.5e-4\n",
    ])
    def test_written_out_defaults_change_nothing(self, capsys, tmp_path, given):
        defaults = (
            "n_edges = 1\ntrials = 1\nseed = 0\nmax_slots = 100000\ninitial_stock = 0\n"
            "stock_capacity = unlimited\nn = 2\nL0_km = 25\ncf_km_s = 2e5\nP0 = 0.5\n"
            "catalyst_dim = 2\n"
        )
        if "mode = detailed" not in given:
            defaults += "mode = abstract\naux_mode = aux_rich\n"
        outputs = []
        for name, text in (("short", given), ("long", given + defaults)):
            conf = tmp_path / f"{name}.conf"
            conf.write_text(text)
            out = tmp_path / f"{name}.jsonl"
            assert run_cli(capsys, "simulate", "--config", str(conf), "--out", str(out))[0] == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    # One config per aux mode and stock setting, and a run that times out,
    # with the sha256 of its JSONL line.
    PINNED = [
        pytest.param(
            "mode = detailed\nn_edges = 4\nalpha = 0.8\nmax_slots = 20000\ntrials = 2\nseed = 3\n",
            "a9ed776404f07fdf373cf634e04277efbb52656e60ce1f231c40eb8ce9a919f1",
            id="detailed-aux-rich"),
        pytest.param(
            "mode = detailed\nn_edges = 4\nalpha = 0.8\naux_mode = none\n"
            "max_slots = 20000\ntrials = 2\nseed = 3\n",
            "0253585e2786025f2f2db90090e930036be9beb550ba51bc59ee3283f1d84c8b",
            id="detailed-none-stock-0"),
        pytest.param(
            "mode = detailed\nn_edges = 4\nalpha = 0.8\naux_mode = none\ninitial_stock = 1\n"
            "max_slots = 20000\ntrials = 2\nseed = 3\n",
            "019a489dd690710d275f9119107cb620d5d64960be8e1c0400be7aea0f081bf6",
            id="detailed-none-stock-1"),
        pytest.param(
            "mode = detailed\nn_edges = 4\nalpha = 0.8\naux_mode = finite\n"
            "aux.1.alpha = 0.8\naux.1.P = 0.9\naux.1.T_s = 1e-3\n"
            "aux.2.alpha = 0.75\naux.2.P = 0.3\naux.2.T_s = 3.3e-4\n"
            "initial_stock = 1\nstock_capacity = 2\nmax_slots = 20000\ntrials = 2\nseed = 3\n",
            "66d6cc230ed36a174a7563ea7443be8814b31653ea5acf85b73e6f1fdef50ddb",
            id="detailed-finite-capacity-2"),
        pytest.param(
            "mode = detailed\nn_edges = 4\nalpha = 0.8\nmax_slots = 1\ntrials = 2\nseed = 3\n",
            "1ded78c650ece0422d0738fe7618f6aaa468bff7b0adac09259a5e005eebb3b7",
            id="detailed-timed-out"),
        pytest.param(
            "n_edges = 8\nalpha = 0.8\nn = 2\nP0 = 0.5\ntrials = 20000\nseed = 3\n",
            "0176dc3c560f1ca6bddaac8f1c4244bdb678e94a846bee29564f38eb88337acf",
            id="abstract-from-edge"),
        pytest.param(
            "n_edges = 8\np_cat = 0.5\nt_cycle_s = 1e-3\ntrials = 20000\nseed = 3\n",
            "9ea9a1b07161f05cebc989f443dca73cc8ad029dd21f97d52a82b83e3e682309",
            id="abstract-forced"),
    ]

    # How a run's streams are built: every stream from the vectorised key
    # pass, in chunks of 5 keys, so that chunks end inside a trial and a list
    # of batches; every key from its own SeedSequence in the pass's place;
    # and every stream keyed one at a time by _rng, in the key builder's place.
    STREAM_BUILDERS = [
        pytest.param(dict(_KEY_CHUNK=5), id="pass-in-chunks-of-5"),
        pytest.param(dict(_philox_keys=oracles.seedsequence_keys), id="seedsequence-per-key"),
        pytest.param(dict(_streams=rng_streams), id="rng-per-stream"),
    ]

    @pytest.mark.parametrize("setting,digest", PINNED)
    def test_output_bytes_are_pinned(self, capsys, tmp_path, setting, digest):
        # The whole JSONL line: the config echo, the statistics, their key
        # order and the counters of every edge.
        conf = tmp_path / "sim.conf"
        conf.write_text(setting)
        code, out, _ = run_cli(capsys, "simulate", "--config", str(conf), "--out", "-")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    # Tiny read and block sizes: (first block loads, memory bound, aux path
    # read).  At p_cat = 0.88 and N = 4 they give stream reads of at most 4
    # draws and blocks of 1 delivery, or reads of 20 and blocks of 2, where
    # the streams take half the bound.
    TINY_SIZES = [pytest.param((1, 4, 3), id="blocks-of-1"),
                  pytest.param((3, 20, 5), id="blocks-of-2")]

    @pytest.mark.parametrize("sizes", TINY_SIZES)
    @pytest.mark.parametrize("setting,digest", [p for p in PINNED if "detailed" in p.id])
    def test_detailed_bytes_do_not_depend_on_read_and_block_sizes(self, capsys, tmp_path,
                                                                  monkeypatch, setting, digest,
                                                                  sizes):
        # The detailed simulator sizes its stream reads and delivery blocks
        # from demand; with tiny sizes every record keeps the default bytes.
        conf = tmp_path / "sim.conf"
        conf.write_text(setting)
        argv = ("simulate", "--config", str(conf), "--out", "-")
        default, calls = calls_at_default_sizes(capsys, monkeypatch, argv)
        for name, size in zip(("_FIRST_BLOCK_LOADS", "_BLOCK_LOADS", "_DRAW_BLOCK"), sizes):
            monkeypatch.setattr(_engine, name, size)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        # The sizes reached the engine: more blocks, except in a run of one
        # slot, which takes one block of one delivery at any sizes, and more
        # reads of the aux paths there are.
        assert calls["blocks"] > default["blocks"] or json.loads(out)["timed_out"]
        assert calls["aux_reads"] > default["aux_reads"] or not default["aux_reads"]

    @pytest.mark.parametrize("builder", STREAM_BUILDERS)
    @pytest.mark.parametrize("setting,digest", PINNED)
    def test_bytes_do_not_depend_on_how_streams_are_built(self, capsys, tmp_path, monkeypatch,
                                                          setting, digest, builder):
        conf = tmp_path / "sim.conf"
        conf.write_text(setting)
        argv = ("simulate", "--config", str(conf), "--out", "-")
        default, calls = calls_at_default_sizes(capsys, monkeypatch, argv)
        for name, value in builder.items():
            monkeypatch.setattr(_engine, name, value)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert key_chunk_reached(builder, default, calls)

    @pytest.mark.parametrize("builder", STREAM_BUILDERS[:2])
    def test_long_seed_bytes_do_not_depend_on_how_streams_are_built(self, capsys, tmp_path,
                                                                    monkeypatch, builder):
        # A seed of 2**64 + 5 takes three 32-bit words, so each key is six
        # words, past SeedSequence's pool of four.  Three trials at N = 3
        # with one aux path take 27 streams, and validate-z takes
        # 2 * 8192 + 777 trials, so the last chunk of keys and the last
        # batch are both short.
        conf = tmp_path / "sim.conf"
        conf.write_text(
            "mode = detailed\nn_edges = 3\nalpha = 0.8\naux_mode = finite\n"
            "aux.1.alpha = 0.8\naux.1.P = 0.9\naux.1.T_s = 1e-3\n"
            "initial_stock = 1\nstock_capacity = 2\nmax_slots = 5000\ntrials = 3\n"
            f"seed = {2**64 + 5}\n")
        runs = (("simulate", "--config", str(conf), "--out", "-"),
                ("validate-z", "--edges", "8", "--p", "0.3", "--trials", str(2 * 8192 + 777),
                 "--seed", str(2**64 + 5)))
        default, calls = calls_at_default_sizes(capsys, monkeypatch, *runs)
        outputs = []
        for built in (self.STREAM_BUILDERS[2].values[0], builder):
            calls.update(dict.fromkeys(calls, 0))  # the last builder's calls are kept
            with monkeypatch.context() as patch:
                for name, value in built.items():
                    patch.setattr(_engine, name, value)
                for argv in runs:
                    code, out, _ = run_cli(capsys, *argv)
                    assert code == 0
                    outputs.append(out)
        assert outputs[:2] == outputs[2:]
        assert json.loads(outputs[0])["deliveries"] > 0
        assert key_chunk_reached(builder, default, calls)

    def test_unwritable_out_is_an_input_error(self, capsys, tmp_path):
        conf = tmp_path / "sim.conf"
        conf.write_text("p_cat = 0.5\nt_cycle_s = 1.0\n")
        target = tmp_path / "absent" / "run.jsonl"
        code, out, err = run_cli(capsys, "simulate", "--config", str(conf), "--out", str(target))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ")

    def test_missing_config_is_an_input_error(self, capsys, tmp_path):
        missing = tmp_path / "absent.conf"
        code, out, err = run_cli(capsys, "simulate", "--config", str(missing), "--out", "-")
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot read config {missing}")


class TestValidateZ:
    def test_reports_pass(self, capsys):
        code, out, _ = run_cli(capsys, "validate-z", "--edges", "2", "--p", "0.5",
                               "--trials", "30000", "--seed", "1")
        assert code == 0
        record = json.loads(out)
        assert record["passed"] is True
        assert record["analytic"] == pytest.approx(8.0 / 3.0, abs=1e-12)

    PINNED_ARGV = ("validate-z", "--edges", "32", "--p", "0.1", "--trials", "500000", "--seed", "7")
    PINNED_OUT = (
        '{"n_edges": 32, "p": 0.1, "trials": 500000, "empirical_mean": 39.022982, '
        '"analytic": 39.02007718543327, "std_error": 0.01710945811890214, '
        '"deviation_sigmas": 0.16977829143033557, "passed": true}\n'
    )

    def test_output_bytes_are_pinned(self, capsys):
        # Each trial's largest count comes from one Philox uniform per trial.
        code, out, _ = run_cli(capsys, *self.PINNED_ARGV)
        assert code == 0
        assert out == self.PINNED_OUT

    @pytest.mark.parametrize("builder", TestSimulateCommand.STREAM_BUILDERS)
    def test_output_bytes_do_not_depend_on_how_streams_are_built(self, capsys, monkeypatch,
                                                                 builder):
        # 62 batches: in chunks of 5 keys the last chunk holds 2.
        default, calls = calls_at_default_sizes(capsys, monkeypatch, self.PINNED_ARGV)
        for name, value in builder.items():
            monkeypatch.setattr(_engine, name, value)
        code, out, _ = run_cli(capsys, *self.PINNED_ARGV)
        assert code == 0
        assert out == self.PINNED_OUT
        assert key_chunk_reached(builder, default, calls)

    @pytest.mark.filterwarnings("error")
    def test_p_it_cannot_sample_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "validate-z", "--edges", "4", "--p", "1e-300",
                                 "--trials", "1000", "--seed", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    def test_negative_seed_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "validate-z", "--edges", "4", "--p", "0.5",
                                 "--trials", "10", "--seed", "-1")
        assert (code, out) == (1, "")
        assert err == "error: seed must be a non-negative integer, got -1\n"


class TestConfigParsing:
    def test_aux_groups(self):
        values = parse_config(
            "aux_mode = finite\n"
            "aux.1.alpha = 0.8\naux.1.P = 0.5\naux.1.T_s = 1e-3\n"
            "aux.2.alpha = 0.9\naux.2.P = 0.25\naux.2.T_s = 5e-4\n"
        )
        assert len(values["aux_paths"]) == 2
        assert values["aux_paths"][1].alpha == 0.9

    def test_comments_and_blanks(self):
        values = parse_config("# header\n\nseed = 5  # inline\n")
        assert values == {"seed": 5}

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_config("bogus = 1\n")

    def test_incomplete_aux_group_rejected(self):
        with pytest.raises(InvalidInputError):
            parse_config("aux.1.alpha = 0.8\n")

    @pytest.mark.parametrize("text,message", [
        ("seed = 1\nseed 5\n", "config line 2: expected 'key = value', got 'seed 5'"),
        ("aux.x.alpha = 0.8\n", "config line 1: unknown key 'aux.x.alpha'"),
        ("aux.1.bogus = 1\n", "config line 1: unknown key 'aux.1.bogus'"),
        ("aux.1 = 0.8\n", "config line 1: unknown key 'aux.1'"),
    ], ids=["no_equals", "aux_index", "aux_field", "aux_no_field"])
    def test_malformed_line_rejected(self, text, message):
        with pytest.raises(InvalidInputError) as info:
            parse_config(text)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("seed = 1\nseed = 2\n", "config line 2: seed repeats the key set on line 1"),
        # aux.01 and aux.1 are the same group, so the second path would vanish.
        ("aux.1.alpha = 0.8\naux.1.P = 0.5\naux.01.alpha = 0.9\n",
         "config line 3: aux.01.alpha repeats the key set on line 1"),
        ("aux.2.T_s = 1e-3\naux.2.T_s = 5e-4\n",
         "config line 2: aux.2.T_s repeats the key set on line 1"),
    ])
    def test_repeated_key_rejected(self, text, message):
        with pytest.raises(InvalidInputError) as info:
            parse_config(text)
        assert str(info.value) == message

    def test_unlimited_capacity(self):
        values = parse_config("stock_capacity = unlimited\n")
        assert values["stock_capacity"] == "unlimited"

    def test_numeric_failure_exit_code(self, capsys, monkeypatch):
        def fail(problem, d_c):
            raise NumericFailureError("search did not certify")

        monkeypatch.setattr(catalysis, "optimal_catalyst", fail)
        code, out, err = run_cli(capsys, "catalyst", "--n", "2", "--alpha", "0.8")
        assert (code, out, err) == (2, "", "numeric failure: search did not certify\n")

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_errors_and_other_runs_leave_it_as_it_was(self, capsys):
        sweep = ["sweep", "--n", "3", "--dim", "2,3", "--mode", "aux_rich,none", "--steps", "9"]
        code, first, _ = run_cli(capsys, *sweep)
        assert code == 0
        assert run_cli(capsys, "sweep", "--no-such-flag")[0] == 1
        assert run_cli(capsys, "--help")[0] == 0
        # Other values for the same flags, which must not stay behind.
        assert run_cli(capsys, "sweep", "--mode", "none", "--dim", "4", "--steps", "2")[0] == 0
        code, again, _ = run_cli(capsys, *sweep)
        assert (code, again) == (0, first)


# Prints which of the engine and the search modules a fresh interpreter has
# loaded after building the parser, whether each function perfbench traces
# is loaded by then, and what each CLI call in argv[2] (a JSON list) loads.
IMPORT_PROBE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from tracing import TARGETS
import entcat.cli

def loaded():
    return [name for name in ("entcat._engine", "entcat._search") if name in sys.modules]

entcat.cli._build_parser()
states = {"parser": loaded(), "traced": {
    target: callable(getattr(sys.modules.get("entcat." + target.split(".")[0]),
                             target.split(".")[1], None))
    for target in TARGETS}}
for argv in json.loads(sys.argv[2]):
    with contextlib.redirect_stdout(io.StringIO()):
        states[argv[0] + " " + argv[-1]] = (entcat.cli.main(argv), loaded())
print(json.dumps(states))
"""


class TestImports:
    """What ``import entcat.cli`` compiles, and what compiles on first use."""

    @staticmethod
    def probe(*argvs):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(root / "perfbench"), json.dumps(argvs)],
            capture_output=True, text=True, check=True, env=env,
        )
        return json.loads(out.stdout)

    def test_engine_and_search_load_on_first_use(self, tmp_path):
        # The parser and a dimension-2 sweep and catalyst load neither; the
        # dimension-4 catalyst loads the search and validate-z the engine.
        states = self.probe(["sweep", "--steps", "3", "--out", "-"],
                            ["catalyst", "--n", "2", "--alpha", "0.8", "--dim", "2"],
                            ["catalyst", "--n", "2", "--alpha", "0.8", "--dim", "4"],
                            ["validate-z", "--edges", "4", "--p", "0.5", "--trials", "10"])
        assert states.pop("parser") == []
        # The five modules the tracer reads each hold their traced functions.
        traced = states.pop("traced")
        assert {target.split(".")[0] for target in traced} == {
            "cli", "network", "catalysis", "spectra", "simulate"}
        assert all(traced.values())
        assert states == {"sweep -": [0, []], "catalyst 2": [0, []],
                          "catalyst 4": [0, ["entcat._search"]],
                          "validate-z 10": [0, ["entcat._engine", "entcat._search"]]}
        conf = tmp_path / "sim.conf"
        conf.write_text("mode = detailed\nn_edges = 4\nalpha = 0.8\nmax_slots = 300\nseed = 3\n")
        states = self.probe(["simulate", "--config", str(conf), "--out", "-"])
        assert states["parser"] == []
        assert states["simulate -"] == [0, ["entcat._engine"]]
