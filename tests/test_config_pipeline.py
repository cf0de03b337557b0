import itertools
import json
import math
import re
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from mkglab import asymptotic_system as asys
from mkglab import cli, pipeline
from mkglab.cli import main as cli_main
from mkglab.config import (ConfigError, default_config, dump_config,
                           parse_config, run_config_hash)
from mkglab.core import Weights
from mkglab.evolution import (EvolutionUnstable, SchemeParams, slice_step,
                              time_grid)
from mkglab.grid import RadialGrid
from mkglab.pipeline import (Check, agreement_check, convergence_study,
                             mms_check, run_pipeline)

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


# 620 steps at monitor_stride 40: the last step is observed off the stride
STRIDE_OFF = (SMALL.replace("t_end = 48.0", "t_end = 31.0")
              .replace("monitor_stride = 10", "monitor_stride = 40")
              .replace("t_list = 15, 30, 45", "t_list = 10, 20, 30"))

# y t = 27 lies beyond r_max = 20
BEYOND_GRID = """
[grid]
r_max = 20.0
n_cells = 200
[scheme]
t_end = 30.0
[extraction]
q_rays = 0
q_min = -5.0
q_max = 5.0
[interior]
y_list = 0.9
t_list = 30
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
        # the knobs that became constants are unknown keys, named with their line
        ("[extraction]\nstencil_spacing_cells = 2\n",
         "line 2: unknown key extraction.stencil_spacing_cells"),
        ("[grid]\nn_cells = 400\n[extraction]\ndomain_frac = 0.95\n",
         "line 4: unknown key extraction.domain_frac"),
        ("[tolerances]\nal_limit_rel = 0.05\n",
         "line 2: unknown key tolerances.al_limit_rel"),
        ("[tolerances]\n\ninterior_rel = 0.10\n",
         "line 3: unknown key tolerances.interior_rel"),
        ("[data]\nwidth = 0\n", "data.width"),
        ("[extraction]\nt_fracs = 0.5\n", "extraction.t_fracs"),
        ("[interior]\nt_list = -5, 100\n", "interior.t_list"),
        ("[interior]\nt_list = 0\n", "interior.t_list"),
        ("[extraction]\nq_min = -1\nq_max = 1\nq_spacing_cells = 21\n"
         "[grid]\nr_max = 40\nn_cells = 400\n", "extraction.q_spacing_cells"),
        ("[data]\nar_family = file\n", "data.ar_family"),
        ("[data]\nfamily = file\nphi0_file = /nonexistent\n", "data.family"),
        ("[data]\nphidot_file = /nonexistent\n", "data.phidot_file"),
        ("[data]\nfamily = polygauss\npower = 1\n", "data.family"),
        (STRIDE_OFF.replace("q_rays = -5, 0, 5", "q_rays = -12, 0")
         .replace("q_min = -10.0", "q_min = -5.0"),
         "extraction.q_rays entry -12.0 lies below extraction.q_min"),
        (BEYOND_GRID, "interior.y_list entry 0.9 times interior.t_list entry 30.0"),
        # a repeated slice or point gives two equal errors, and criterion 7
        # asks the error to fall strictly in t
        (SMALL.replace("t_list = 15, 30, 45", "t_list = 15, 30, 30, 45"),
         "interior.t_list repeats"),
        (SMALL.replace("y_list = 0.1, 0.3, 0.5", "y_list = 0.3, 0.1, 0.3"),
         "interior.y_list repeats"),
        # two times on one step (dt = 0.05) are one slice, as a repeat is
        (SMALL.replace("t_list = 15, 30, 45", "t_list = 15, 15.01, 30, 45"),
         "interior.t_list repeats"),
        (SMALL.replace("t_fracs = 0.3, 0.5, 0.65, 0.8, 0.9, 1.0",
                       "t_fracs = 0.9999999, 1.0"), "extraction.t_fracs"),
    ])
    def test_configs_that_cannot_run_rejected(self, text, key):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            parse_config(text)

    def test_interior_point_allows_for_a_late_slice(self):
        # y t = r_max exactly, but the slice at t may be captured dt / 2 late
        text = BEYOND_GRID.replace("y_list = 0.9", "y_list = 0.5") \
            .replace("r_max = 20.0", "r_max = 15.0")
        with pytest.raises(ConfigError, match=r"\(\+ dt/2 = 0\.01875\) lies "
                                              r"beyond grid\.r_max = 15\.0"):
            parse_config(text)
        parse_config(text.replace("t_list = 30", "t_list = 29.9"))

    @settings(max_examples=300, deadline=None)
    @given(r_max=hst.integers(-2, 200).map(lambda k: k / 4),
           n_cells=hst.integers(-1, 40), ghost_count=hst.integers(0, 4),
           s=hst.integers(3, 12).map(lambda k: k / 10),
           gamma=hst.integers(-3, 12).map(lambda k: k / 10),
           cfl=hst.integers(-3, 15).map(lambda k: k / 10),
           t_end=hst.integers(-4, 60).map(float),
           boundary=hst.sampled_from(["sommerfeld", "none", "dirichlet"]),
           monitor_stride=hst.integers(-1, 3))
    def test_bounds_are_the_objects(self, r_max, n_cells, ghost_count, s, gamma,
                                    cfl, t_end, boundary, monitor_stride):
        """A grid, weights or scheme section is rejected exactly when its
        object objects (plus the config's own cap cfl <= 0.9), and every
        message names a key of its section."""
        text = (f"[grid]\nr_max = {r_max!r}\nn_cells = {n_cells}\n"
                f"ghost_count = {ghost_count}\n"
                f"[weights]\ns = {s!r}\ngamma = {gamma!r}\n"
                f"[scheme]\ncfl = {cfl!r}\nt_end = {t_end!r}\n"
                f"boundary = {boundary}\nmonitor_stride = {monitor_stride}\n"
                "[interior]\nt_list =\n")
        try:
            parse_config(text)
            lines = []
        except ConfigError as exc:
            lines = [ln.strip() for ln in str(exc).splitlines()[1:]]

        def objects(build) -> bool:
            try:
                build()
            except ValueError:
                return True
            return False

        expected = {
            "grid": objects(lambda: RadialGrid(r_max, n_cells, ghost_count)),
            "weights": objects(lambda: Weights(s, gamma)),
            "scheme": bool(SchemeParams(cfl, t_end, boundary,
                                        monitor_stride).validate(r_max))
            or cfl > 0.9,
        }
        schema = default_config()
        for section, rejected in expected.items():
            msgs = [ln for ln in lines if ln.startswith(section + ".")]
            assert bool(msgs) == rejected, (section, lines)
            for msg in msgs:
                key = msg[len(section) + 1:].split()[0]
                assert key in schema.section(section), msg

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
        # every row but the base-domain envelope row (a run without the
        # doubling companion has no bound on it) is its gate's row
        gated = [c for c in rep["checks"] if c["id"] != "envelope_stability"]
        assert len(gated) == len(rep["checks"]) - 1
        for c in gated:
            desc, bound, test = pipeline.GATES[c["id"]]
            assert (c["description"], c["tolerance"]) == (desc, bound)
            assert not c["passed"] or test(c["measured"], bound)

    def test_monitor_header_and_hash(self, small_run):
        cfg, report, out = small_run
        first = (out / "monitors.csv").read_text().splitlines()[0]
        assert report.config_hash in first

    def test_radiation_columns(self, small_run):
        _, _, out = small_run
        header = (out / "radiation.csv").read_text().splitlines()[1]
        assert header.split(",") == ["q", "Re_Phi0", "Im_Phi0", "J_Lbar",
                                     "A_L_limit_err", "A_Lbar_mod"]

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

    def test_fracs_on_one_step_share_a_slice(self, small_run, tmp_path):
        # 0.9999999 t_end lies on the step of t_end: one slice, not a second
        # copy with a zero Cauchy increment
        text = SMALL.replace("0.9, 1.0", "0.9, 0.9999999, 1.0")
        assert text != SMALL
        run_pipeline(parse_config(text), out_dir=str(tmp_path), module_checks=False)
        rows = [json.loads((out / "report.json").read_text())["checks"]
                for out in (small_run[2], tmp_path)]
        assert rows[0] == rows[1]

    def test_lorenz_burn_in_holds_an_event_after_t0(self, tmp_path):
        # STRIDE_OFF monitors every 2.0 time units, more than 5% of t_end
        # (1.55), and its residual at t = 0 is 0: the burn-in window holds
        # the event at t = 2 too, so the check divides by a measured level
        report = run_pipeline(parse_config(STRIDE_OFF), out_dir=str(tmp_path),
                              module_checks=False)
        mon = report.monitor_summary
        assert mon["lorenz_burn_in_max"] > 0.0
        check = next(c for c in report.checks if c.id == "lorenz_stability")
        assert check.measured == mon["lorenz_sup"] / mon["lorenz_burn_in_max"]

    def test_hand_built_config_validated(self, tmp_path):
        cfg = parse_config(SMALL)
        cfg.scheme["cfl"] = 1.5
        cfg.interior["t_list"] = [100.0]
        with pytest.raises(ConfigError, match=r"scheme\.cfl(.|\n)*interior\.t_list"):
            run_pipeline(cfg, out_dir=str(tmp_path / "bad"), module_checks=False)
        assert not (tmp_path / "bad").exists()

    def test_zero_amplitude_data(self, tmp_path):
        cfg = parse_config(SMALL.replace("amplitude = 0.05", "amplitude = 0.0"))
        report = run_pipeline(cfg, out_dir=str(tmp_path / "zero"),
                              module_checks=False)
        assert report.charge_Q == 0.0
        mon = report.monitor_summary
        assert mon["lorenz_sup"] == 0.0
        assert mon["charge_drift_max"] == 0.0

    def test_full_run_locates_the_companion_sups(self, tmp_path):
        # the doubling companion's rows give where their sups sit, on the
        # companion's domain: r_max and t_end doubled
        cfg = parse_config(SMALL)
        run_pipeline(cfg, out_dir=str(tmp_path), full_criteria=True,
                     module_checks=False)
        lines = (tmp_path / "envelopes.csv").read_text().splitlines()[2:]
        doubled = [line.split(",") for line in lines if "_doubled," in line]
        assert len(doubled) == 2
        for _, sup, t, r in doubled:
            assert math.isfinite(float(sup))
            assert 0.0 <= float(t) <= 2.0 * cfg.scheme["t_end"]
            assert 0.0 <= float(r) <= 2.0 * cfg.grid["r_max"]


class TestChargeConjugation:
    def test_conjugate_data_give_the_conjugate_run(self, monkeypatch, tmp_path):
        # phidot_scale -> -phidot_scale conjugates the data: Q, A and the
        # current flip sign, phi is conjugated, and every check measures
        # the same number, bit for bit
        finals, pipeline_evolve = [], pipeline.evolve

        def evolve(*args, **kwargs):
            result = pipeline_evolve(*args, **kwargs)
            finals.append(result.final)
            return result

        monkeypatch.setattr(pipeline, "evolve", evolve)
        reports = []
        for scale in (1.0, -1.0):
            cfg = parse_config(SMALL)
            cfg.data["phidot_scale"] = scale
            reports.append(run_pipeline(cfg, out_dir=str(tmp_path / str(scale)),
                                        module_checks=False))
        plus, minus = reports
        assert plus.charge_Q != 0.0
        assert minus.charge_Q == -plus.charge_Q
        assert (minus.extras["asym_source_mass"]
                == -plus.extras["asym_source_mass"] != 0.0)
        assert ([(c.id, repr(c.measured), c.passed) for c in minus.checks]
                == [(c.id, repr(c.measured), c.passed) for c in plus.checks])
        f_plus, f_minus = finals
        assert np.array_equal(f_minus.phi, np.conj(f_plus.phi))
        assert np.array_equal(f_minus.a0, -f_plus.a0)
        assert np.array_equal(f_minus.ar, -f_plus.ar)


# a short run on which every check can run
PROBE = (SMALL.replace("r_max = 60.0", "r_max = 40.0")
         .replace("n_cells = 600", "n_cells = 400")
         .replace("t_end = 48.0", "t_end = 20.0")
         .replace("t_list = 15, 30, 45", "t_list = 5, 10, 15"))


def radiation_rows(out) -> list[list[str]]:
    """The rows of out's radiation.csv below its hash and header lines."""
    return [line.split(",") for line in
            (out / "radiation.csv").read_text().splitlines()[2:]]


class TestChecksThatCannotRun:
    @pytest.fixture(scope="class")
    def probe_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("probe")
        report = run_pipeline(parse_config(PROBE), module_checks=False,
                              out_dir=str(out))
        assert not any(c.detail.startswith("cannot run") for c in report.checks)
        return report, out

    @pytest.mark.parametrize("old, new, ids, reason", [
        ("t_list = 5, 10, 15", "t_list =", {"interior_limit"},
         "interior.t_list is empty"),
        ("q_rays = -5, 0, 5", "q_rays =",
         {"AL_limit", "phi0_cauchy", "charge_phase_slope",
          "albar_log_correlation", "albar_mod_cauchy"},
         "extraction.q_rays is empty"),
        ("q_rays = -5, 0, 5", "q_rays = -5, 0, 39", {"AL_limit", "phi0_cauchy"},
         "ray q=39 has 0 samples, needs >= 3"),
    ])
    def test_reported_failed_with_reason(self, probe_run, tmp_path, old, new,
                                         ids, reason):
        assert old in PROBE
        report = run_pipeline(parse_config(PROBE.replace(old, new)),
                              out_dir=str(tmp_path), module_checks=False)
        assert [c.id for c in report.checks] == [c.id for c in probe_run[0].checks]
        assert ids <= {c.id for c in report.checks}
        for c in report.checks:
            if c.id in ids:
                assert not c.passed
                assert math.isnan(c.measured)
                assert c.detail == f"cannot run: {reason}"
        rep = json.loads((tmp_path / "report.json").read_text())
        assert not rep["all_passed"]

    @pytest.mark.parametrize("rays, column", [("39, 0, 5", None), ("", "nan")])
    def test_AL_limit_err_is_the_central_ray_s(self, probe_run, tmp_path, rays,
                                               column):
        """radiation.csv's A_L_limit_err column holds the A_L limit error of
        the central ray alone (a short first ray leaves it as it is), and
        nan with no ray; the table's other columns do not read the rays."""
        text = PROBE.replace("q_rays = -5, 0, 5", f"q_rays = {rays}".rstrip())
        run_pipeline(parse_config(text), out_dir=str(tmp_path), module_checks=False)
        want = radiation_rows(probe_run[1])
        assert len({row[4] for row in want}) == 1
        assert math.isfinite(float(want[0][4]))
        if column:
            for row in want:
                row[4] = column
        assert radiation_rows(tmp_path) == want


# the checks a run without the module checks reports, in order
RUN_CHECK_IDS = ["lorenz_stability", "charge_conservation", "AL_limit",
                 "phi0_cauchy", "charge_phase_slope", "albar_log_correlation",
                 "albar_mod_cauchy", "interior_limit", "envelope_stability"]


@hst.composite
def tiny_configs(draw) -> str:
    """A config on a tiny grid, drawn over the keys that decide the run's
    steps, slices, rays and interior points."""
    def entries(values, lo=0, hi=3, unique=False) -> str:
        return ", ".join(repr(v) for v in draw(hst.lists(
            values, min_size=lo, max_size=hi, unique=unique)))

    r_max = draw(hst.integers(8, 30).map(float))
    n_cells = draw(hst.integers(16, 64))
    t_end = draw(hst.integers(1, 2 * int(r_max)).map(float))
    q_min = draw(hst.integers(-int(r_max), 0).map(float))
    cfl = draw(hst.integers(3, 9)) / 10
    stride = draw(hst.integers(1, 50))
    q_rays = entries(hst.integers(-int(r_max), int(r_max)).map(float))
    q_max = q_min + draw(hst.integers(1, int(r_max)))
    q_spacing = draw(hst.integers(1, 4))
    t_fracs = entries(hst.integers(1, 20).map(lambda k: k / 20), 2, 4)
    # parsing rejects a repeated interior entry (the parse probes cover
    # that rule), so the two interior lists are drawn without repeats
    y_list = entries(hst.integers(1, 19).map(lambda k: k / 20), unique=True)
    t_list = entries(hst.integers(1, int(t_end)).map(float), unique=True)
    return (f"[grid]\nr_max = {r_max!r}\nn_cells = {n_cells}\n"
            "[data]\namplitude = 0.05\n"
            f"[scheme]\ncfl = {cfl!r}\nt_end = {t_end!r}\nmonitor_stride = {stride}\n"
            f"[extraction]\nq_rays = {q_rays}\nq_min = {q_min!r}\nq_max = {q_max!r}\n"
            f"q_spacing_cells = {q_spacing}\nt_fracs = {t_fracs}\n"
            f"[interior]\ny_list = {y_list}\nt_list = {t_list}\n")


class TestAcceptedConfigsRun:
    @settings(max_examples=150, deadline=None)
    @given(text=tiny_configs())
    def test_rejected_or_runs_to_the_end(self, text):
        """parse_config rejects the config, or its run reaches t_end,
        captures every requested slice and reports every check."""
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            # a key or section the schema lacks means the strategy has
            # drifted from the schema, not a config that cannot run
            assert "unknown" not in str(exc), exc
            return
        results, run_evolve = [], pipeline.evolve

        def evolve(*args):
            results.append(run_evolve(*args))
            return results[-1]

        with tempfile.TemporaryDirectory() as out, \
                mock.patch.object(pipeline, "evolve", evolve):
            report = run_pipeline(cfg, out_dir=out, module_checks=False)
        result, = results
        t_end = cfg.scheme["t_end"]
        assert result.final.t == pytest.approx(t_end, rel=1e-12)
        n_steps, dt = time_grid(t_end, cfg.scheme["cfl"] * RadialGrid(**cfg.grid).h)
        rounding = 4.0 * np.finfo(float).eps * n_steps * t_end
        requested = [f * t_end for f in cfg.extraction["t_fracs"]]
        requested += cfg.interior["t_list"]
        assert set(result.slices) == {slice_step(t, dt) for t in requested}
        for t in requested:
            assert abs(result.slices[slice_step(t, dt)].t - t) <= 0.5 * dt + rounding
        assert [c.id for c in report.checks] == RUN_CHECK_IDS
        # the data are nonzero, so the Lorenz burn-in window holds a
        # measured residual whatever the monitor spacing
        assert report.monitor_summary["lorenz_burn_in_max"] > 0


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


class TestRunsRecordWhatTheirChecksRead:
    def test_base_run_and_free_wave_level(self, monkeypatch, tmp_path):
        calls, run_evolve = [], pipeline.evolve

        def evolve(initial, grid, scheme, plan=None):
            calls.append((plan, run_evolve(initial, grid, scheme, plan)))
            return calls[-1][1]

        monkeypatch.setattr(pipeline, "evolve", evolve)
        cfg = parse_config(SMALL)
        run_pipeline(cfg, out_dir=str(tmp_path), module_checks=False)
        (plan, result), = calls
        # of q_rays = -5, 0, 5 the checks read the central ray and the lowest
        assert plan.ray_qs == (-5.0, 0.0) == tuple(result.rays)
        pipeline._free_wave_error(cfg)
        (_, free), = calls[1:]
        assert free.snapshots == [] and free.rays == {}


class TestRefinementOrdersCheck:
    def test_coupled_ladder_runs_no_linear_evolve(self, monkeypatch):
        linear, plans = [], []

        def evolve(initial, grid, scheme, plan=None):
            linear.append(scheme.linear)
            plans.append((plan.ray_qs, plan.snapshot_every))
            raise EvolutionUnstable("stopped once the scheme is recorded")

        monkeypatch.setattr(pipeline, "evolve", evolve)
        rows = pipeline._refinement_orders_check(parse_config(SMALL),
                                                 lambda msg: None)
        assert linear == [False, False, False]
        # the order rows read no ray and no snapshot, so none is recorded
        assert plans == [((), 0)] * 3
        assert [c.id for c in rows] == ["lorenz_order", "charge_order"]
        assert not any(c.passed for c in rows)


class TestFreeWaveOrderCheck:
    def test_two_calls_return_equal_rows(self):
        # each level's wall time goes to the progress line, not the row
        cfg, said = parse_config(SMALL), []
        rows = [pipeline._free_wave_order_check(cfg, said.append).row()
                for _ in range(2)]
        assert rows[0] == rows[1]
        assert len(said) == 6 and all(msg.endswith(" s") for msg in said)

    def test_a_system_clock_step_moves_no_level_time(self, monkeypatch):
        # the system clock jumps an hour at each reading; the level times
        # come from a monotonic clock, so the 60 s clause still holds.  The
        # levels' errors are stubbed at an exact order 2
        clock = itertools.count(0.0, 3600.0)
        monkeypatch.setattr(time, "time", lambda: next(clock))
        monkeypatch.setattr(pipeline, "_free_wave_error",
                            lambda cfg: {500: 2.0 ** -10, 1000: 2.0 ** -12,
                                         2000: 2.0 ** -14}[cfg.grid["n_cells"]])
        said = []
        row = pipeline._free_wave_order_check(parse_config(SMALL), said.append)
        assert row.measured == 2.0 and row.passed
        assert len(said) == 3
        assert all(re.fullmatch(r"free-wave level n=\d+: \d+\.\d\d s", msg)
                   for msg in said)


# the acceptance values of every gate: id -> (comparison, bound, target of
# a +- gate, the bound as the description states it).  These are fixed
# points: the tests assert them and a change to the gates never edits them
ACCEPTANCE_GATES = {
    "lorenz_stability": ("<=", 10.0, None, "within 10x"),
    "charge_conservation": ("<", 1e-3, None, "< 1e-3"),
    "AL_limit": ("<", 0.05, None, "to 5%"),
    "phi0_cauchy": ("<", 0.2, None, "< 20%"),
    "charge_phase_slope": ("<", 0.10, None, "within 10%"),
    "albar_log_correlation": (">=", 0.99, None, ">= 0.99"),
    "albar_mod_cauchy": ("<", 0.2, None, "< 20%"),
    "interior_limit": ("<", 0.10, None, "< 10%"),
    "envelope_stability": ("<", 0.10, None, "< 10%"),
    "angular_identity": ("<", 1e-8, None, ""),     # its description states no bound
    "chain_difference_decay": ("<=", -(2 * 0.9 - 1.0) + 0.2, None, "<= -(2s-1)+0.2"),
    "weak_null_modulus": ("<", 1e-10, None, "< 1e-10"),
    "weak_null_affine": ("<", 1e-6, None, "< 1e-6"),
    "phase_factorization_order": ("+-", 0.1, 4.0, "= 4.0 +- 0.1"),
    "oracle_mms": ("<", 1e-6, None, "to 1e-6"),
    "oracle_agreement": ("<", 1e-8, None, "< 1e-8"),
    "oracle_positivity": (">=", -1e-12, None, ">= -1e-12"),
    "oracle_logest1": ("<", 0.20, None, "within 20%"),
    "free_wave_order": ("+-", 0.2, 2.0, "= 2.0 +- 0.2"),
    "lorenz_order": (">=", 1.8, None, ">= 1.8"),
    "charge_order": (">=", 1.8, None, ">= 1.8"),
}


class TestGates:
    def test_every_test_at_its_edge(self):
        # just inside passes, just outside fails, NaN fails; +inf fails a
        # >= gate too (an order that is no number)
        assert set(pipeline.GATES) == set(ACCEPTANCE_GATES)
        for gid, (kind, _, target, _) in ACCEPTANCE_GATES.items():
            _, bound, test = pipeline.GATES[gid]
            if kind == "+-":
                inside = [target + bound * (1 - 1e-9), target - bound * (1 - 1e-9)]
                outside = [target + bound * (1 + 1e-9), target - bound * (1 + 1e-9)]
            else:
                up, down = np.nextafter(bound, np.inf), np.nextafter(bound, -np.inf)
                inside, outside = {"<": ([down], [bound]), "<=": ([bound], [up]),
                                   ">=": ([bound], [down, np.inf])}[kind]
            for m in inside:
                assert test(m, bound), (gid, m)
            for m in [*outside, np.nan]:
                assert not test(m, bound), (gid, m)

    def test_bounds_are_the_acceptance_values(self):
        for gid, (_, bound, target, stated) in ACCEPTANCE_GATES.items():
            desc, gate_bound, test = pipeline.GATES[gid]
            assert gate_bound == bound, gid
            assert stated in desc, gid
            if target is not None:
                assert test.args == (target,), gid
        assert pipeline._CHAIN_S == 0.9
        assert pipeline._LEVEL_SECONDS == 60.0
        # the certificate of mkglab asys holds the weak-null rows' bounds
        assert (asys.MODULUS_TOL, asys.AFFINE_TOL) == (1e-10, 1e-6)


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

    def test_run_and_converge_off_the_monitor_stride(self, tmp_path, capsys):
        # the last step is observed off the stride; the rays are not
        cfgfile = tmp_path / "stride.cfg"
        cfgfile.write_text(STRIDE_OFF)
        n_steps, _ = time_grid(31.0, 0.5 * 0.1)
        assert n_steps % 40 != 0
        assert cli_main(["run", str(cfgfile), "--quick",
                         "--out", str(tmp_path / "out")]) in (0, 1)
        assert not (tmp_path / "out" / "FAILED").exists()
        last = (tmp_path / "out" / "monitors.csv").read_text().splitlines()[-1]
        assert float(last.split(",")[0]) == pytest.approx(31.0)
        capsys.readouterr()
        assert cli_main(["converge", str(cfgfile), "--levels", "2"]) in (0, 1)
        # stdout is the study's JSON alone; the level progress is on stderr
        captured = capsys.readouterr()
        study = json.loads(captured.out)
        assert "level" in captured.err
        assert all(info["status"] == "ok" for info in study["levels"])
        assert all(e > 0.0 for e in study["errors"]["frame_identity"])

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[weights]\ns = 2.0\n")
        assert cli_main(["run", str(bad)]) == 2

    def test_missing_config(self):
        assert cli_main(["run", "/nonexistent/x.cfg"]) == 2

    @pytest.mark.parametrize("levels", ["1", "0", "-3"])
    def test_converge_needs_two_levels(self, tmp_path, capsys, levels):
        # rejected while parsing, before the config is read or a level runs
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text(SMALL)
        assert cli_main(["converge", str(cfgfile), "-N", levels]) == 2
        assert "needs >= 2 levels" in capsys.readouterr().err

    def test_oracle_subcommand(self):
        assert cli_main(["oracle", "mms"]) == 0

    @pytest.mark.parametrize("case, check", [
        ("mms", mms_check),
        ("agreement", lambda: agreement_check(default_config().output["seed"])),
    ])
    def test_oracle_prints_the_pipeline_check(self, capsys, case, check):
        assert cli_main(["oracle", case]) == 0
        row = check().row()
        out = capsys.readouterr().out
        assert f"[PASS] {row['id']}: measured {row['measured']:.6g} " in out

    def test_report_agreement_row_is_what_the_cli_prints(self, tmp_path,
                                                         monkeypatch, capsys):
        # the kernel checks draw before the agreement check; the stubbed
        # ladder, free-wave and asymptotic-system checks draw nothing
        monkeypatch.setattr(pipeline, "_free_wave_order_check",
                            lambda *args: Check("free_wave_order", "", 0.0, 0.0, True))
        for name in ("_refinement_orders_check", "_asys_checks"):
            monkeypatch.setattr(pipeline, name, lambda *args: [])
        report = run_pipeline(parse_config(SMALL), out_dir=str(tmp_path))
        row = next(c.row() for c in report.checks if c.id == "oracle_agreement")
        capsys.readouterr()
        assert cli_main(["oracle", "agreement"]) == 0
        printed = capsys.readouterr().out
        cli._print_check(row)
        assert printed == capsys.readouterr().out

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

    @pytest.mark.parametrize("flag, value", [
        ("--ds", "0"), ("--ds", "-0.01"), ("--ds", "nan"), ("--ds", "x"),
        ("--s-end", "inf"), ("--s-end", "0")])
    def test_asys_needs_positive_finite_steps(self, tmp_path, capsys, flag, value):
        # rejected while parsing: no division by ds, no rounding of s_end / ds
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text(SMALL)
        assert cli_main(["asys", str(cfgfile), flag, value,
                         "--out", str(tmp_path / "asys_out")]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "asys_out").exists()

    def test_asys_step_count_capped(self, tmp_path, capsys):
        # 1e12 RK4 steps are refused before any runs; so is a ratio that
        # overflows to inf
        cfgfile = tmp_path / "small.cfg"
        cfgfile.write_text(SMALL)
        for s_end, ds in (("1e9", "1e-3"), ("1e300", "1e-300")):
            assert cli_main(["asys", str(cfgfile), "--s-end", s_end, "--ds", ds,
                             "--out", str(tmp_path / "asys_out")]) == 2
            assert "exceeds the cap of 1e+07 steps" in capsys.readouterr().err
        assert not (tmp_path / "asys_out").exists()

    def test_unreadable_config_exit_code(self, tmp_path, capsys):
        # a directory, and a file whose bytes are not UTF-8
        latin1 = tmp_path / "latin1.cfg"
        latin1.write_bytes(SMALL.encode() + "# \xe9t\xe9\n".encode("latin-1"))
        for path in (tmp_path, latin1):
            assert cli_main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
            assert f"cannot read config {path}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text", ['{"config_hash": ', "[]", "null", '"report"'])
    def test_report_not_a_report_object(self, tmp_path, capsys, text):
        (tmp_path / "report.json").write_text(text)
        assert cli_main(["report", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert str(tmp_path / "report.json") in err

    @pytest.mark.parametrize("report, missing", [
        ({}, "config_hash"),
        ({"config_hash": "x", "checks": []}, "charge_Q"),
        ({"config_hash": "x", "charge_Q": "1", "checks": []},
         "a number at charge_Q"),
        ({"config_hash": "x", "charge_Q": 1.0}, "checks"),
        ({"config_hash": "x", "charge_Q": 1.0, "checks": {}}, "a list at checks"),
        ({"config_hash": "x", "charge_Q": 1.0, "checks": [1]},
         "an object at checks[0]"),
        ({"config_hash": "x", "charge_Q": 1.0,
          "checks": [{"id": "a", "passed": True, "measured": 1.0,
                      "tolerance": 2.0, "description": "d"},
                     {"id": "b", "passed": True, "measured": 1.0,
                      "description": "d"}]}, "checks[1].tolerance"),
        ({"config_hash": "x", "charge_Q": 1.0,
          "checks": [{"id": "a", "passed": True, "measured": None,
                      "tolerance": 2.0, "description": "d"}]},
         "a number at checks[0].measured")])
    def test_report_lacking_a_key(self, tmp_path, capsys, report, missing):
        # exit 2 naming what is missing, and print nothing of the report
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert cli_main(["report", str(tmp_path)]) == 2
        out, err = capsys.readouterr()
        assert err.strip().endswith(f"it lacks {missing}") and out == ""

    def test_report_missing(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path)]) == 2
        assert "report.json" in capsys.readouterr().err
