import json

import pytest

from entcat.cli import main, parse_config
from entcat.errors import InvalidInputError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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

    def test_outside_window_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "catalyst", "--n", "5", "--alpha", "0.8")
        assert code == 1
        assert "window" in err


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

    def test_output_bytes_are_pinned(self, capsys):
        # Each trial's largest count comes from one Philox uniform per trial.
        code, out, _ = run_cli(capsys, "validate-z", "--edges", "32", "--p", "0.1",
                               "--trials", "500000", "--seed", "7")
        assert code == 0
        assert out == (
            '{"n_edges": 32, "p": 0.1, "trials": 500000, "empirical_mean": 39.022982, '
            '"analytic": 39.02007718543327, "std_error": 0.01710945811890214, '
            '"deviation_sigmas": 0.16977829143033557, "passed": true}\n'
        )

    @pytest.mark.filterwarnings("error")
    def test_p_it_cannot_sample_is_an_input_error(self, capsys):
        code, out, err = run_cli(capsys, "validate-z", "--edges", "4", "--p", "1e-300",
                                 "--trials", "1000", "--seed", "1")
        assert (code, out) == (1, "")
        assert err.startswith("error: ")


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

    def test_unlimited_capacity(self):
        values = parse_config("stock_capacity = unlimited\n")
        assert values["stock_capacity"] == "unlimited"

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()

    def test_help_exit_code(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()
