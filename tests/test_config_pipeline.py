import json

import pytest

from mkglab.cli import main as cli_main
from mkglab.config import (ConfigError, default_config, dump_config,
                           parse_config, run_config_hash)
from mkglab.pipeline import convergence_study, run_pipeline

SMALL = """
[grid]
r_max = 60.0
n_cells = 600

[data]
family = gaussian
amplitude = 0.05

[scheme]
cfl = 0.5
t_end = 48.0
boundary = none
monitor_stride = 10

[extraction]
q_rays = -5, 0, 5
q_min = -10.0
q_max = 10.0
t_fracs = 0.3, 0.5, 0.65, 0.8, 0.9, 1.0

[interior]
y_list = 0.1, 0.3, 0.5
t_list = 15, 30, 45
"""


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config("")
        ref = default_config()
        assert cfg.grid == ref.grid
        assert cfg.scheme["cfl"] == 0.5
        assert cfg.weights == {"s": 0.9, "gamma": 0.4}

    def test_small_document(self):
        cfg = parse_config(SMALL)
        assert cfg.grid["n_cells"] == 600
        assert cfg.extraction["q_rays"] == [-5.0, 0.0, 5.0]
        assert cfg.interior["t_list"] == [15.0, 30.0, 45.0]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[grid]\nr_max = 10.0\nnonsense = 3\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[nope]\nx = 1\n")

    def test_duplicate_key_named(self):
        with pytest.raises(ConfigError, match="duplicate key scheme.cfl"):
            parse_config("[scheme]\ncfl = 0.5\ncfl = 0.6\n")

    def test_constraint_s_too_large(self):
        with pytest.raises(ConfigError, match="weights.s"):
            parse_config("[weights]\ns = 1.2\n")

    def test_cfl_invariant(self):
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("[scheme]\ncfl = 1.5\n")

    def test_causality_shield(self):
        txt = "[scheme]\nboundary = none\nt_end = 390.0\n"
        with pytest.raises(ConfigError, match="causality shield"):
            parse_config(txt)

    @pytest.mark.parametrize("text, key", [
        ("[extraction]\nstencil_spacing_cells = 0\n",
         "extraction.stencil_spacing_cells"),
        ("[data]\nwidth = 0\n", "data.width"),
        ("[extraction]\nt_fracs = 0.5\n", "extraction.t_fracs"),
        ("[interior]\nt_list = -5, 100\n", "interior.t_list"),
        ("[interior]\nt_list = 0\n", "interior.t_list"),
        ("[extraction]\nq_min = -1\nq_max = 1\nq_spacing_cells = 21\n"
         "[grid]\nr_max = 40\nn_cells = 400\n", "extraction.q_spacing_cells"),
    ])
    def test_configs_that_cannot_run_rejected(self, text, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(text)

    def test_empty_t_list_accepted(self):
        assert parse_config("[interior]\nt_list =\n").interior["t_list"] == []

    def test_line_numbers_reported(self):
        try:
            parse_config("[grid]\nr_max = ten\n")
        except ConfigError as exc:
            assert "line 2" in str(exc)
        else:
            pytest.fail("expected ConfigError")

    def test_exhaustive_violation_list(self):
        txt = "[weights]\ns = 1.2\ngamma = -1\n"
        try:
            parse_config(txt)
        except ConfigError as exc:
            msg = str(exc)
            assert "weights.s" in msg and "gamma" in msg
        else:
            pytest.fail("expected ConfigError")

    def test_hash_and_dump_stable(self):
        cfg = parse_config(SMALL)
        assert run_config_hash(cfg) == run_config_hash(parse_config(SMALL))
        assert dump_config(cfg) == dump_config(parse_config(SMALL))
        cfg2 = parse_config(SMALL.replace("0.05", "0.06"))
        assert run_config_hash(cfg2) != run_config_hash(cfg)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(SMALL)
    report = run_pipeline(cfg, out_dir=str(out), module_checks=False)
    return cfg, report, out


class TestRunPipeline:
    def test_outputs_exist(self, small_run):
        _, _, out = small_run
        for name in ("monitors.csv", "radiation.csv", "interior.csv",
                     "envelopes.csv", "report.json", "config.txt"):
            assert (out / name).exists()

    def test_report_structure(self, small_run):
        _, report, out = small_run
        rep = json.loads((out / "report.json").read_text())
        assert rep["config_hash"] == report.config_hash
        ids = {c["id"] for c in rep["checks"]}
        assert {"lorenz_stability", "charge_conservation", "AL_limit",
                "phi0_cauchy", "interior_limit"} <= ids
        for c in rep["checks"]:
            assert {"id", "description", "measured", "tolerance",
                    "passed"} <= set(c)

    def test_monitor_header_and_hash(self, small_run):
        cfg, report, out = small_run
        first = (out / "monitors.csv").read_text().splitlines()[0]
        assert report.config_hash in first

    def test_radiation_columns(self, small_run):
        _, _, out = small_run
        header = (out / "radiation.csv").read_text().splitlines()[1]
        assert header.split(",") == ["q", "Re_Phi0", "Im_Phi0", "J_Lbar",
                                     "A_L_limit_err", "A_Lbar_mod"]

    def test_radiation_identity_invariant(self, small_run):
        _, report, _ = small_run
        assert report.extras["J_identity_residual"] < 1e-12

    def test_interior_columns(self, small_run):
        _, _, out = small_run
        header = (out / "interior.csv").read_text().splitlines()[1]
        assert header.split(",")[:5] == ["t", "y_norm", "tA0_sim", "K0_pred",
                                         "abs_err"]

    def test_determinism_byte_identical(self, small_run, tmp_path):
        cfg, _, out = small_run
        out2 = tmp_path / "again"
        run_pipeline(cfg, out_dir=str(out2), module_checks=False)
        for name in ("monitors.csv", "radiation.csv", "interior.csv",
                     "envelopes.csv", "report.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_zero_amplitude_data(self, tmp_path):
        cfg = parse_config(SMALL.replace("amplitude = 0.05", "amplitude = 0.0"))
        report = run_pipeline(cfg, out_dir=str(tmp_path / "zero"),
                              module_checks=False)
        assert report.charge_Q == 0.0
        mon = report.monitor_summary
        assert mon["lorenz_sup"] == 0.0
        assert mon["charge_drift_max"] == 0.0


class TestConvergenceStudy:
    def test_orders_and_flags(self):
        cfg = parse_config(SMALL)
        cfg.grid["n_cells"] = 300
        cfg.scheme["t_end"] = 24.0
        study = convergence_study(cfg, levels=3)
        assert len(study["levels"]) == 3
        p_free = study["orders"]["free_wave"][-1]
        assert 1.6 < p_free < 2.4
        assert study["orders"]["lorenz_residual"][-1] >= 1.5

    def test_unstable_level_reported(self):
        cfg = parse_config(SMALL)
        cfg.grid["n_cells"] = 300
        cfg.scheme["cfl"] = 1.5    # deliberately unstable, guard must catch
        cfg.scheme["t_end"] = 24.0
        study = convergence_study(cfg, levels=2)
        assert any("unstable" in info["status"] for info in study["levels"])


class TestCLI:
    def test_run_and_report(self, tmp_path):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text(SMALL + "\n[output]\ndirectory = "
                           + str(tmp_path / "out") + "\n")
        code = cli_main(["run", str(cfgfile), "--quick"])
        assert code in (0, 1)  # checks may fail at this coarse resolution
        assert (tmp_path / "out" / "report.json").exists()
        code2 = cli_main(["report", str(tmp_path / "out")])
        assert code2 == code

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[weights]\ns = 2.0\n")
        assert cli_main(["run", str(bad)]) == 2

    def test_missing_config(self):
        assert cli_main(["run", "/nonexistent/x.cfg"]) == 2

    def test_oracle_subcommand(self):
        assert cli_main(["oracle", "mms"]) == 0

    def test_asys_subcommand(self, tmp_path):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text(SMALL)
        code = cli_main(["asys", str(cfgfile), "--s-end", "5.0",
                         "--out", str(tmp_path / "asys_out")])
        assert code == 0
        assert (tmp_path / "asys_out" / "asys.csv").exists()

    def test_asys_bad_s_range_is_config_error(self, tmp_path, capsys):
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text(SMALL)
        code = cli_main(["asys", str(cfgfile), "--s-end", "1", "--ds", "0.3",
                         "--out", str(tmp_path / "asys_out")])
        assert code == 2
        assert "nearest reachable end is 0.9" in capsys.readouterr().err
        # one step leaves too few states for the certificate
        assert cli_main(["asys", str(cfgfile), "--s-end", "0.01", "--ds", "0.01",
                         "--out", str(tmp_path / "asys_out")]) == 2
        assert not (tmp_path / "asys_out").exists()
