"""End-to-end CLI tests (exit codes, file outputs, overrides)."""

import json

import pytest

from mlosim import ConfigError, cli
from mlosim.cli import config_from_args, build_parser, main


def run_cli(*argv):
    return main(list(argv))


class TestConfigResolution:
    def test_flags_override_file(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"num_scenarios": 50, "iterations": 10, "master_seed": 3}))
        args = build_parser().parse_args(
            ["--config", str(cfg_file), "--scenarios", "4", "--workers", "2"]
        )
        cfg = config_from_args(args)
        assert cfg.num_scenarios == 4  # flag wins
        assert cfg.iterations == 10  # file value preserved
        assert cfg.master_seed == 3
        assert cfg.workers == 2

    def test_single_strategy_selection(self):
        args = build_parser().parse_args(["--strategy", "frl"])
        cfg = config_from_args(args)
        assert [s.value for s in cfg.strategies] == ["frl"]

    def test_all_strategies(self):
        args = build_parser().parse_args(["--strategy", "all"])
        assert len(config_from_args(args).strategies) == 4

    def test_aps_list_parsing(self):
        args = build_parser().parse_args(["--aps", "2,4,8"])
        assert config_from_args(args).n_values == (2, 4, 8)


class TestMain:
    def test_successful_small_run(self, tmp_path, capsys):
        code = run_cli(
            "--scenarios", "2", "--iterations", "15", "--aps", "2",
            "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "mean min rate" in out
        assert (tmp_path / "summary.json").exists()
        assert (tmp_path / "fig5_means.csv").exists()

    def test_density_sweep_run(self, tmp_path):
        code = run_cli(
            "--scenarios", "2", "--iterations", "10", "--aps", "1,2",
            "--seed", "5", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "fig7_density.csv").exists()
        assert not (tmp_path / "fig5_means.csv").exists()

    def test_invalid_config_exits_nonzero(self, tmp_path, capsys):
        code = run_cli("--scenarios", "0", "--out", str(tmp_path))
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exits_nonzero(self, tmp_path, capsys):
        code = run_cli("--config", str(tmp_path / "nope.json"))
        assert code != 0
        assert "error" in capsys.readouterr().err

    def test_malformed_config_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = run_cli("--config", str(bad))
        assert code != 0

    def test_unknown_strategy_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--strategy", "greedy"])

    def test_seed_changes_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_cli("--scenarios", "2", "--iterations", "10", "--aps", "2",
                "--seed", "1", "--out", str(out_a))
        run_cli("--scenarios", "2", "--iterations", "10", "--aps", "2",
                "--seed", "2", "--out", str(out_b))
        a = json.loads((out_a / "summary.json").read_text())
        b = json.loads((out_b / "summary.json").read_text())
        assert a["batches"] != b["batches"]

    @pytest.mark.parametrize(
        "config",
        [
            {"physical": {"bogus": 1}},
            {"physical": {"noise_floor_dbm": "nan"}},
            {"physical": {"tx_power_dbm": "inf"}},
            {"physical": {"attenuation_factor": "-inf"}},
            {"physical": {"walls_per_meter": -0.1}},
            {"physical": {"bandwidth_hz_per_link": None}},
            {"physical": {"tx_power_dbm": 4000}},
            {"physical": {"pathloss_intercept_db": -4000}},
            {"physical": {"noise_floor_dbm": -4000}},
            {"k": 0},
            {"k": 17},
            {"area_side_m": "nan"},
            {"area_side_m": -100.0},
            {"d_m": "nan"},
            {"d_m": 0.0},
            {"d_m": 100.0},
            {"strategies": ["frl", "frl"]},
        ],
    )
    def test_unknown_or_out_of_range_config_exits_with_error(self, tmp_path, capsys, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        # Rejected while the config is built, before any world is sampled.
        with pytest.raises(ConfigError):
            config_from_args(build_parser().parse_args(["--config", str(cfg)]))
        code = run_cli("--config", str(cfg), "--scenarios", "1", "--iterations", "5",
                       "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("simulate: error:") and "Traceback" not in err
        assert not (tmp_path / "summary.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_area_beyond_the_float_range_exits_with_error_alone(self, tmp_path, capsys):
        # Its squared distances would overflow to inf in the link budget.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"area_side_m": 1e200, "d_m": 1e199}))
        out = tmp_path / "out"
        code = run_cli("--config", str(cfg), "--scenarios", "1", "--iterations", "2",
                       "--aps", "2", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("simulate: error: area side") and err.count("\n") == 1
        assert not out.exists()

    # Rates, or the sums of T rates and of num_scenarios min rates that the
    # outputs average, that would not be finite (inf or NaN in summary.json,
    # numpy warnings), and a d_m too small for the area's coordinates to
    # resolve (a GeometryError mid-run): each is rejected while the config
    # is built, naming its field.
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("config, names", [
        ({"physical": {"bandwidth_hz_per_link": 1e306}}, "bandwidth_hz_per_link=1e+306"),
        ({"d_m": 1e-5}, "d_m=1e-05"),
        ({"area_side_m": 1.0, "d_m": 1e-5}, "d_m=1e-05"),
        ({"physical": {"noise_floor_dbm": -300, "sensitivity_dbm": -290}},
         "noise_floor_dbm=-300.0"),
        ({"d_m": 1e-6}, "d_m=1e-06"),
    ], ids=["bandwidth", "d_m", "d_m-in-small-area", "noise", "d_m-unresolved"])
    def test_config_of_unbounded_rates_exits_with_error_alone(self, tmp_path, capsys, config,
                                                              names):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run_cli("--config", str(cfg), "--aps", "4", "--scenarios", "2",
                       "--iterations", "20", "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("simulate: error:") and names in err and err.count("\n") == 1
        assert not out.exists()

    # The file is checked with the flags filling only the fields it leaves
    # out: its rates sum finitely over the 20 iterations and 2 worlds that
    # the flags ask for, though not over the defaults' 2000 and 500.
    @pytest.mark.filterwarnings("error")
    def test_file_value_that_fits_the_flags_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"physical": {"bandwidth_hz_per_link": 1e305}}))
        out = tmp_path / "out"
        code = run_cli("--config", str(cfg), "--aps", "4", "--scenarios", "2",
                       "--iterations", "20", "--out", str(out))
        assert code == 0 and capsys.readouterr().err == ""
        summary = (out / "summary.json").read_text()
        assert "Infinity" not in summary and "NaN" not in summary

    @pytest.mark.parametrize("aps", ["8,x", "", "8,,4"])
    def test_malformed_aps_rejected_by_parser(self, tmp_path, capsys, aps):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run_cli("--aps", aps, "--scenarios", "1", "--iterations", "5", "--out", str(out))
        err = capsys.readouterr().err
        assert exc.value.code != 0
        assert "argument --aps" in err and "Traceback" not in err
        assert not out.exists()

    def test_duplicate_aps_rejected(self, tmp_path, capsys):
        code = run_cli("--aps", "4,4", "--scenarios", "1", "--iterations", "5",
                       "--out", str(tmp_path))
        assert code == 1
        assert "AP counts must be distinct" in capsys.readouterr().err
        assert not (tmp_path / "summary.json").exists()

    def test_out_of_memory_exits_with_error(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 3.6 TiB for an array")

        monkeypatch.setattr(cli, "run_experiment", exhausted)
        code = run_cli("--scenarios", "1", "--iterations", "5", "--aps", "2",
                       "--out", str(tmp_path))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("simulate: error: Unable to allocate") and "Traceback" not in err

    @pytest.mark.parametrize(
        "config,argv,names",
        [
            ({"iterations": None}, [], "iterations"),
            ({"n_values": 5}, [], "n_values"),
            ([1], [], "JSON object"),
            ({"strategies": "frl"}, [], "strategies"),
            ({"iterations": 1.7}, [], "iterations"),
            ({"num_scenarios": True}, [], "num_scenarios"),
            ({"workers": 2.9}, [], "workers"),
            ({"physical": 5}, [], "physical"),
            ({}, ["--seed", "-1"], "seed"),
            ({"physical": {"tx_power_dbm": True}}, [], "tx_power_dbm"),
            ({"physical": {"noise_floor_dbm": "-90"}}, [], "noise_floor_dbm"),
            # Its arrays would need terabytes: rejected before any is allocated.
            ({}, ["--iterations", "100000000000"], "iterations"),
            # Its batch state alone would fill the machine's memory.
            ({}, ["--scenarios", "1000000000"], "num_scenarios"),
            # Its bandit tables over 2**16 - 1 link subsets would need 6 GiB.
            ({"k": 16}, ["--aps", "1000"], "k=16"),
        ],
    )
    def test_mistyped_config_exits_with_error(self, tmp_path, capsys, config, argv, names):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        code = run_cli("--config", str(cfg), "--scenarios", "1", "--iterations", "5",
                       "--aps", "2", *argv, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("simulate: error:") and names in err
        assert "Traceback" not in err and err.count("\n") == 1
        assert not out.exists()
