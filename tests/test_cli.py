import os

import pytest

from isacsim.cli import main
from isacsim.experiments import ConfigError, experiment_names, load_config


def write(path, text):
    with open(path, "w") as fh:
        fh.write(text)
    return str(path)


class TestList:
    def test_lists_every_experiment(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in experiment_names():
            assert name in out

    def test_one_line_each_with_summary(self, capsys):
        main(["list"])
        lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
        assert len(lines) == len(experiment_names())
        assert all(len(l.split(None, 1)) == 2 for l in lines)


class TestUsage:
    def test_no_arguments_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_experiment(self, capsys, tmp_path):
        rc = main(["run", "never-heard-of-it", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "never-heard-of-it" in err
        assert "ranging" in err  # suggests the known names

    def test_bad_seed_is_a_usage_error(self):
        for seed in ("not-a-number", "-1"):
            with pytest.raises(SystemExit) as exc:
                main(["run", "ranging", "--seed", seed])
            assert exc.value.code == 2


class TestValidate:
    def test_good_config(self, capsys, tmp_path):
        cfg = write(tmp_path / "a.cfg",
                    "radio.fft_size = 32\nrun.snr_db = 12.5\n")
        assert main(["validate", cfg]) == 0
        out = capsys.readouterr().out
        assert "ok (2 key(s))" in out
        assert "radio.carrier_hz" in out  # accepted keys are listed

    def test_empty_config_is_fine(self, capsys, tmp_path):
        cfg = write(tmp_path / "empty.cfg", "# nothing but comments\n\n")
        assert main(["validate", cfg]) == 0

    def test_unknown_key_names_the_line(self, capsys, tmp_path):
        cfg = write(tmp_path / "b.cfg",
                    "run.n_trials = 5\nradio.fft_sze = 32\n")
        assert main(["validate", cfg]) == 3
        err = capsys.readouterr().err
        assert "radio.fft_sze" in err
        assert "line 2" in err

    def test_parse_error_names_the_line(self, capsys, tmp_path):
        cfg = write(tmp_path / "c.cfg", "# fine\nthis line has no equals\n")
        assert main(["validate", cfg]) == 3
        assert "line 2" in capsys.readouterr().err

    def test_duplicate_key_names_the_line(self, tmp_path):
        cfg = write(tmp_path / "dup.cfg", "run.n_trials = 1\nrun.n_trials = 2\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(cfg)

    def test_empty_key_names_the_line(self, capsys, tmp_path):
        cfg = write(tmp_path / "k.cfg", " = 3\n")
        assert main(["validate", cfg]) == 3
        assert capsys.readouterr().err == "error: line 1: empty key\n"
        out = tmp_path / "out"
        rc = main(["run", "stft-irregular", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == "error: line 1: empty key\n"
        assert not out.exists()

    def test_directory_is_exit_three(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.d"
        cfg.mkdir()
        want = f"error: cannot read {str(cfg)!r}: Is a directory\n"
        assert main(["validate", str(cfg)]) == 3
        assert capsys.readouterr().err == want
        out = tmp_path / "out"
        rc = main(["run", "stft-irregular", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 3
        assert capsys.readouterr().err == want
        assert not out.exists()

    def test_missing_file(self, capsys, tmp_path):
        assert main(["validate", str(tmp_path / "nope.cfg")]) == 3
        assert "nope.cfg" in capsys.readouterr().err

    def test_file_that_is_not_utf8_is_exit_three(self, capsys, tmp_path):
        cfg = tmp_path / "bin.cfg"
        cfg.write_bytes(b"run.n_trials = 2\n\xff\n")
        assert main(["validate", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "bin.cfg" in err
        out = tmp_path / "out"
        rc = main(["run", "phase-offsets", "--config", str(cfg),
                   "--out", str(out)])
        assert rc == 3
        assert "bin.cfg" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_type(self, capsys, tmp_path):
        cfg = write(tmp_path / "d.cfg", "radio.fft_size = sixty-four\n")
        assert main(["validate", cfg]) == 3
        err = capsys.readouterr().err
        assert "radio.fft_size" in err
        assert "int" in err

    @pytest.mark.parametrize("text", [
        "radio.carrier_hz = NaN",
        "run.snr_db = Infinity",
        "radio.sample_rate_hz = -Infinity",
        "run.duration_s = 0",
        "run.n_trials = 0",
        "run.n_trials = -3",
        # just past the SNR bound, and far past it, where noise overflows
        "run.snr_db = 300.0000001",
        "run.snr_db = -300.0000001",
        "run.snr_db = -4000",
        "run.snr_db = 1e300",
    ])
    def test_out_of_range_value_names_the_line(self, capsys, tmp_path, text):
        cfg = write(tmp_path / "bad.cfg", f"# header\n{text}\n")
        key = text.split(" = ")[0]
        assert main(["validate", cfg]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and key in err
        rc = main(["run", "ranging", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "ranging.csv")

    @pytest.mark.parametrize("text,message", [
        ("radio.carrier_hz = 1" + "0" * 400, "must be finite"),
        ("run.snr_db = " + "[" * 100_000, "nested too deeply"),
    ], ids=["integer-past-largest-float", "deeply-nested-value"])
    def test_value_python_cannot_convert_names_the_line(self, capsys,
                                                         tmp_path, text,
                                                         message):
        cfg = write(tmp_path / "bad.cfg", f"# header\n{text}\n")
        assert main(["validate", cfg]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and message in err
        rc = main(["run", "ranging", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 3
        assert "line 2" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "ranging.csv")

    def test_float_key_accepts_integer_literal(self, tmp_path):
        cfg = write(tmp_path / "e.cfg", "run.snr_db = 10\n")
        assert load_config(cfg) == {"run.snr_db": 10}

    def test_int_key_rejects_float_literal(self, tmp_path):
        cfg = write(tmp_path / "f.cfg", "radio.fft_size = 32.5\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_keys_that_clash_are_a_config_error(self, capsys, tmp_path):
        # fft_size 16 leaves the default 16-sample cyclic prefix no room
        cfg = write(tmp_path / "g.cfg", "radio.fft_size = 16\n")
        assert main(["validate", cfg]) == 3
        assert "cyclic prefix" in capsys.readouterr().err

    def test_fft_size_without_short_training_is_exit_three(self, capsys,
                                                            tmp_path):
        cfg = write(tmp_path / "n.cfg", "radio.fft_size = 8\nradio.cp_len = 2\n")
        assert main(["validate", cfg]) == 3
        assert "short-training subcarrier" in capsys.readouterr().err
        out = tmp_path / "out"
        rc = main(["run", "phase-offsets", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert not out.exists()

    def test_fft_size_too_large_for_a_float_is_exit_three(self, capsys,
                                                           tmp_path):
        # an integer size the bins arithmetic cannot turn into a float
        cfg = write(tmp_path / "huge-fft.cfg",
                    "radio.fft_size = 1" + "0" * 400 + "\n")
        assert main(["validate", cfg]) == 3
        err = capsys.readouterr().err
        assert err == ("error: line 1: radio.fft_size is above 4096, the "
                       "largest 802.11 FFT\n")
        out = tmp_path / "out"
        rc = main(["run", "phase-offsets", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert "largest 802.11 FFT" in capsys.readouterr().err
        assert not out.exists()

    def test_clash_blocks_running_too(self, capsys, tmp_path):
        cfg = write(tmp_path / "h.cfg", "radio.fft_size = 16\n")
        out = tmp_path / "out"
        rc = main(["run", "phase-offsets", "--config", cfg,
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()


class TestRun:
    def test_pass_prints_checks_and_writes_csv(self, capsys, tmp_path):
        rc = main(["run", "los-dominance", "--out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "experiment los-dominance: PASS" in out
        assert out.count("PASS") >= 2
        csv_path = tmp_path / "los_dominance.csv"
        assert csv_path.exists()
        first = csv_path.read_text().splitlines()[0]
        assert first.startswith("# experiment=los-dominance seed=0 config_hash=")
        assert len(first.rsplit("=", 1)[1]) == 12

    def test_same_seed_reruns_are_byte_identical(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "los-dominance", "--seed", "3",
                     "--out", str(out_a)]) == 0
        assert main(["run", "los-dominance", "--seed", "3",
                     "--out", str(out_b)]) == 0
        capsys.readouterr()
        a = (out_a / "los_dominance.csv").read_bytes()
        b = (out_b / "los_dominance.csv").read_bytes()
        assert a == b

    def test_config_overrides_reach_the_experiment(self, capsys, tmp_path):
        cfg = write(tmp_path / "small.cfg", "run.n_trials = 2\n")
        rc = main(["run", "ranging", "--config", cfg, "--out", str(tmp_path)])
        capsys.readouterr()
        assert rc in (0, 1)  # thresholds are not meaningful at 2 trials
        rows = (tmp_path / "ranging.csv").read_text().splitlines()
        # comment line, header, then 2 trials x 3 methods
        assert len(rows) == 2 + 6

    def test_failing_threshold_returns_one(self, capsys, tmp_path):
        cfg = write(tmp_path / "hard.cfg",
                    "run.n_trials = 6\nrun.snr_db = -30\n")
        rc = main(["run", "ranging", "--config", cfg, "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        assert "experiment ranging: FAIL" in out

    def test_bad_config_beats_running(self, capsys, tmp_path):
        cfg = write(tmp_path / "bad.cfg", "who.knows = 1\n")
        rc = main(["run", "los-dominance", "--config", cfg,
                   "--out", str(tmp_path)])
        assert rc == 3
        assert not (tmp_path / "los_dominance.csv").exists()

    def test_out_directory_is_created(self, capsys, tmp_path):
        dest = tmp_path / "deep" / "er"
        assert main(["run", "los-dominance", "--out", str(dest)]) == 0
        assert (dest / "los_dominance.csv").exists()

    def test_devices_with_no_packet_fail_checks_not_crash(self, capsys,
                                                           tmp_path):
        # at 2 ms the streaming and gaming devices draw no packet
        cfg = write(tmp_path / "short.cfg", "run.duration_s = 0.002\n")
        rc = main(["run", "comms-impact", "--config", cfg,
                   "--out", str(tmp_path)])
        assert rc == 1
        out = capsys.readouterr().out
        assert "FAIL: streaming: forced separator raises loss" in out
        for name in ("streaming", "gaming"):
            assert (f"FAIL: {name}: sensing on/off leaves delay and loss "
                    f"untouched") in out
        assert out.endswith("experiment comms-impact: FAIL\n")

    def test_duration_shorter_than_a_window_is_exit_three(self, capsys,
                                                          tmp_path):
        # 0.5 s gives the regular series 50 samples, under one 128-sample
        # STFT window
        cfg = write(tmp_path / "short.cfg", "run.duration_s = 0.5\n")
        out = tmp_path / "out"
        rc = main(["run", "stft-irregular", "--config", cfg,
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: run.duration_s = 0.5 ")
        assert "window" in err[0]

    def test_duration_too_short_for_the_claim_is_exit_three(self, capsys,
                                                             tmp_path):
        # 1.3 s gives the regular series 130 samples: one 128-sample window,
        # where the claim needs 4 (224 samples at hop 32)
        cfg = write(tmp_path / "short.cfg", "run.duration_s = 1.3\n")
        out = tmp_path / "out"
        rc = main(["run", "stft-irregular", "--config", cfg,
                   "--out", str(out)])
        assert rc == 3
        assert not out.exists()
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: run.duration_s = 1.3 gives the regular series 130 "
            "samples, under the 224 of 4 windows that the claim needs to "
            "span two idle pauses\n")

    def test_unwritable_output_is_exit_four(self, capsys, tmp_path):
        afile = write(tmp_path / "afile", "")
        rc = main(["run", "los-dominance", "--out", afile + "/x"])
        assert rc == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot write output under ")

    def test_plots_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["run", "los-dominance", "--plots", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--plots" in capsys.readouterr().err
