import csv
import os
import re

import numpy as np
import pytest

from isacsim import experiments
from isacsim.cancel import DEFAULT_FIRST_STAGE_DB, DEFAULT_NOISE_FLOOR_DBM
from isacsim.experiments import (
    EXPERIMENTS,
    Check,
    ConfigError,
    ExperimentContext,
    check_config,
    describe,
    experiment_names,
    run_experiment,
)

CHEAP = ["phase-offsets", "los-dominance", "motion-ambiguity",
         "cancellation-budget", "stft-irregular"]

# small enough that even the scenario-driven experiments finish quickly
TINY = {"run.n_trials": 2, "run.duration_s": 3.0}


class TestContext:
    def test_default_radio_config(self):
        ctx = ExperimentContext(seed=0)
        assert ctx.cfg.fft_size == 64
        assert ctx.cfg.subcarrier_spacing == pytest.approx(312.5e3)

    def test_radio_overrides(self):
        ctx = ExperimentContext(values={"radio.fft_size": 32})
        assert ctx.cfg.subcarrier_spacing == pytest.approx(625e3)

    def test_rng_streams_are_salted_and_repeatable(self):
        ctx = ExperimentContext(seed=5)
        a1 = ctx.rng(1).standard_normal(4)
        a2 = ctx.rng(1).standard_normal(4)
        b = ctx.rng(2).standard_normal(4)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_hash_tracks_values_not_seed(self):
        v = {"run.n_trials": 9}
        assert (ExperimentContext(seed=0, values=v).cfg_hash
                == ExperimentContext(seed=77, values=v).cfg_hash)
        assert (ExperimentContext(values=v).cfg_hash
                != ExperimentContext(values={}).cfg_hash)

    def test_hash_is_taken_over_typed_values(self):
        def cfg_hash(key, value):
            return ExperimentContext(values={key: value}).cfg_hash

        assert cfg_hash("run.snr_db", 10) == cfg_hash("run.snr_db", 10.0)
        assert cfg_hash("run.n_trials", 5) == cfg_hash("run.n_trials",
                                                       np.int64(5))
        assert cfg_hash("run.snr_db", 10) != cfg_hash("run.snr_db", 10.5)

    def test_radio_config_from_all_keys(self):
        cfg = check_config({
            "radio.fft_size": 32,
            "radio.cp_len": 8,
            "radio.sample_rate_hz": 10e6,
            "radio.carrier_hz": 5.2e9,
        })
        assert cfg.fft_size == 32
        assert cfg.cyclic_prefix_len == 8
        assert cfg.sample_rate == 10e6
        assert cfg.carrier_freq == 5.2e9


    def test_unknown_key_is_rejected(self):
        with pytest.raises(ConfigError, match="radio.cyclic_prefix_len"):
            ExperimentContext(values={"radio.cyclic_prefix_len": 8})
        with pytest.raises(ConfigError, match="run.ntrials"):
            run_experiment("phase-offsets", values={"run.ntrials": 2})

    def test_wrong_type_is_rejected(self):
        with pytest.raises(ConfigError, match="run.n_trials expects int"):
            ExperimentContext(values={"run.n_trials": 2.5})
        with pytest.raises(ConfigError, match="run.snr_db expects float"):
            ExperimentContext(values={"run.snr_db": True})

    @pytest.mark.parametrize("values", [
        {"run.snr_db": float("nan")},
        {"radio.carrier_hz": float("inf")},
        {"run.duration_s": 0.0},
        {"run.n_trials": 0},
    ])
    def test_non_finite_or_non_positive_is_rejected(self, values):
        with pytest.raises(ConfigError, match="must be"):
            ExperimentContext(values=values)

    def test_numpy_scalars_are_accepted(self):
        ctx = ExperimentContext(values={"radio.fft_size": np.int64(32),
                                        "run.snr_db": np.float64(7.5)})
        assert ctx.cfg.fft_size == 32


class TestRegistry:
    def test_every_experiment_has_a_one_line_summary(self):
        for name in experiment_names():
            assert describe(name)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            run_experiment("made-up")

    def test_names_are_kebab_case(self):
        assert all(re.fullmatch(r"[a-z0-9]+(-[a-z0-9]+)*", n)
                   for n in EXPERIMENTS)


class TestReports:
    @pytest.mark.parametrize("name", experiment_names())
    def test_contract_of_every_experiment(self, name, tmp_path):
        rep = run_experiment(name, seed=1, values=TINY,
                             out_dir=str(tmp_path))
        assert rep.name == name
        assert rep.lines[-1] == (
            f"experiment {name}: {'PASS' if rep.passed else 'FAIL'}"
        )
        assert all(l.startswith(("PASS: ", "FAIL: ")) for l in rep.lines[:-1])
        # one CSV per experiment, named after it
        assert os.listdir(tmp_path) == [name.replace("-", "_") + ".csv"]
        with open(rep.csv_path) as fh:
            first = fh.readline().strip()
        assert re.fullmatch(
            rf"# experiment={name} seed=1 config_hash=[0-9a-f]{{12}}",
            first,
        )

    @pytest.mark.parametrize("name", CHEAP)
    def test_cheap_experiments_pass_at_defaults(self, name, tmp_path):
        rep = run_experiment(name, seed=0, out_dir=str(tmp_path))
        assert rep.passed, "\n".join(rep.lines)

    def test_reruns_are_deterministic(self, tmp_path):
        a = run_experiment("motion-ambiguity", seed=4,
                           out_dir=str(tmp_path / "a"))
        b = run_experiment("motion-ambiguity", seed=4,
                           out_dir=str(tmp_path / "b"))
        assert a.lines == b.lines
        with open(a.csv_path) as fa, open(b.csv_path) as fb:
            assert fa.read() == fb.read()

    def test_ranging_csv_rows(self, tmp_path):
        rep = run_experiment("ranging", seed=0, values={"run.n_trials": 1},
                             out_dir=str(tmp_path))
        with open(rep.csv_path, newline="") as fh:
            text = fh.read()
        comment, body = text.split("\n", 1)
        assert comment.startswith("# experiment=ranging seed=0 ")
        # rows end with the csv module's "\r\n", as in every experiment CSV
        assert body.endswith("\r\n")
        assert body.count("\n") == body.count("\r\n")
        lines = body.split("\r\n")
        assert lines[0] == ("trial,truth_range_m,est_range_m,method,snr_db,"
                            "schedule_kind")
        rows = [l.split(",") for l in lines[1:] if l]
        assert [r[3] for r in rows] == ["sparse", "music", "ifft"]
        for r in rows:
            assert r[0] == "0" and r[4] == "15.00" and r[5] == "irregular"
            assert re.fullmatch(r"\d+\.\d{4}", r[1])
            assert re.fullmatch(r"\d+\.\d{4}", r[2])

    def test_comms_impact_csv_rows(self, tmp_path):
        rep = run_experiment("comms-impact", seed=0,
                             values={"run.duration_s": 0.5},
                             out_dir=str(tmp_path))
        with open(rep.csv_path) as fh:
            lines = fh.read().splitlines()
        assert lines[1] == "scenario,delay_ms_p50,delay_ms_p95,loss_rate"
        cells = lines[2].split(",")
        assert cells[0] == "regular-sensing-on"
        assert re.fullmatch(r"\d+\.\d{4}", cells[1])
        assert re.fullmatch(r"\d+\.\d{6}", cells[3])

    def test_comms_impact_follows_radio_config(self, tmp_path):
        def rows(values):
            rep = run_experiment(
                "comms-impact", seed=0,
                values={"run.duration_s": 0.5, **values},
                out_dir=str(tmp_path / str(len(values))),
            )
            with open(rep.csv_path) as fh:
                return fh.read().splitlines()[2:]

        default = rows({})
        # the defaults spelled out reach the MAC as the default radio does
        assert rows({"radio.fft_size": 64, "radio.cp_len": 16}) == default
        # a longer symbol lengthens every airtime, so delays move
        assert rows({"radio.fft_size": 128, "radio.cp_len": 32}) != default

    def test_ranging_fits_subarray_to_narrow_bands(self, tmp_path):
        # 32-bin FFTs leave 13-bin contiguous runs, shorter than the usual
        # 16-bin smoothing subarray; the run must complete, not raise.
        rep = run_experiment(
            "ranging", seed=2,
            values={"radio.fft_size": 32, "run.n_trials": 1,
                    "run.snr_db": 25.0},
            out_dir=str(tmp_path),
        )
        assert rep.lines


class TestChecks:
    def test_text_takes_value_and_bound_from_the_record(self):
        check = Check("error {value:.2f} m <= {bound} m", 0.5, "<=", 2.84)
        assert check.passed
        assert check.line == "PASS: error 0.50 m <= 2.84 m"
        assert Check("x", 3.0, "<=", 2.84).line == "FAIL: x"

    @pytest.mark.parametrize("relation", ["<", "<=", ">", ">="])
    def test_nan_fails_every_relation(self, relation):
        assert not Check("nan value", float("nan"), relation, 0.0).passed
        assert not Check("nan bound", 0.0, relation, float("nan")).passed

    def test_ranging_ordering_fails_on_a_nan_ifft_median(self, tmp_path,
                                                         monkeypatch):
        # at these settings the ordering holds; only the NaN can fail it
        monkeypatch.setattr(experiments, "range_ifft",
                            lambda csi, cfg: float("nan"))
        rep = run_experiment("ranging", seed=0, values={"run.n_trials": 3},
                             out_dir=str(tmp_path))
        sparse, ordering = rep.checks
        assert sparse.passed
        assert not ordering.passed
        assert rep.lines[1].startswith("FAIL: error ordering")
        assert rep.lines[1].endswith("inverse-transform (nan)")

    @pytest.mark.parametrize("name,attr,call,failing", [
        ("phase-offsets", "extract_csi_symbols", 0, "bistatic phase error"),
        ("los-dominance", "power_ratio", 0, "every reflection"),
        # projections 0-1 are the radial reference, 2 the first colocated
        # one on the circle, 99 the baseline target's second axis
        ("motion-ambiguity", "bistatic_projection", 2,
         "colocated sensitivity"),
        ("motion-ambiguity", "bistatic_projection", 99,
         "separated geometry has a blind region"),
        ("separator-harm", "forced_separator_harm", 0, "separator costs"),
    ])
    def test_one_nan_trial_fails_its_check(self, name, attr, call, failing,
                                           tmp_path, monkeypatch):
        owner = (experiments.cancel if attr == "forced_separator_harm"
                 else experiments)
        real = getattr(owner, attr)
        calls = iter(range(10**6))

        def nan_once(*args, **kwargs):
            out = real(*args, **kwargs)
            return np.asarray(out) * np.nan if next(calls) == call else out

        monkeypatch.setattr(owner, attr, nan_once)
        rep = run_experiment(name, seed=0, out_dir=str(tmp_path))
        failed = [c.text for c in rep.checks if not c.passed]
        assert len(failed) == 1
        assert failed[0].startswith(failing)

    def test_cancellation_budget_judges_the_worst_trial(self, tmp_path):
        rep = run_experiment("cancellation-budget", seed=0,
                             values={"run.n_trials": 4}, out_dir=str(tmp_path))
        with open(rep.csv_path, newline="") as fh:
            rows = list(csv.DictReader(line for line in fh
                                       if not line.startswith("#")))
        assert len(rows) == 4

        def col(key):
            return np.array([float(r[key]) for r in rows])

        worst = [
            np.max(np.abs(col("first_stage_db") - DEFAULT_FIRST_STAGE_DB)),
            np.min(col("analog_db")),
            np.min(col("digital_db")),
            np.min(col("total_db")),
            np.max(np.abs(col("residual_dbm") - DEFAULT_NOISE_FLOOR_DBM)),
            np.max(np.abs(col("echo_delta_db"))),
        ]
        rounding = [0.005] * 5 + [0.0005]
        assert len(rep.checks) == len(worst)
        for check, figure, tol in zip(rep.checks, worst, rounding):
            assert abs(check.value - figure) <= tol + 1e-12, check.text
