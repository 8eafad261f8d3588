"""Named, seeded benchmark experiments behind the ``isac-bench`` CLI.

Each experiment is a deterministic function of (seed, config) that returns
its table and its checks, ``(header, rows, checks)``, and finishes in well
under a minute. ``run_experiment`` writes the table to one CSV named after
the experiment, whose first line embeds ``experiment``, ``seed`` and the
config hash, and judges the checks into one PASS/FAIL line each. An
experiment that cannot honour an accepted config raises ``ConfigError``.

Configs are flat files: one ``key = value`` pair per line, ``#`` comments,
blank lines ignored. Keys are dotted paths (``radio.fft_size``) listed once,
in ``KNOWN_KEYS``. A value is parsed as JSON when it can be (numbers,
booleans, quoted strings, lists) and is otherwise kept as a bare string.
``load_config`` reads a file and ``check_config`` is the one validator of a
parsed mapping.
"""

import csv as _csv
import hashlib
import json
import numbers
import operator
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import cancel, kernels, mac, ofdm
from .channel import (
    ImpairmentProfile,
    PropagationPath,
    ScenarioGeometry,
    apply_clock_impairments,
    bistatic_projection,
    linear_trajectory,
    power_ratio,
    synthesize_csi_series,
)
from .estimate import (
    TxSchedule,
    aoa_music,
    estimate_features_sparse,
    range_ifft,
    range_music,
    snap_to_uniform,
    velocity_fft,
    velocity_sparse,
)
from .fusion import SensingMessage, fuse_ml
from .ofdm import SPEED_OF_LIGHT, RadioConfig, extract_csi_symbols, training_burst
from .sigcore import avg_power, complex_noise, db, from_db, stft

# config keys the harness accepts (dotted, flat): the RadioConfig field each
# radio.* key overrides (None for run.* keys) and the type its value must have
KNOWN_KEYS = {
    "radio.fft_size": ("fft_size", int),
    "radio.cp_len": ("cyclic_prefix_len", int),
    "radio.sample_rate_hz": ("sample_rate", float),
    "radio.carrier_hz": ("carrier_freq", float),
    "run.n_trials": (None, int),
    "run.snr_db": (None, float),
    "run.duration_s": (None, float),
}


class ConfigError(Exception):
    """Raised for malformed or unknown configuration input, and for a config
    an experiment cannot honour; given a line number, the message names it."""

    def __init__(self, message, line_no=None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


def load_config(path):
    """Values of a flat config file, fully validated; ConfigError if not."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path!r} is not UTF-8 text: {exc}")
    except OSError as exc:
        raise ConfigError(f"cannot read {path!r}: {exc.strerror or exc}")
    values = {}
    lines = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected 'key = value'", line_no)
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key:
            raise ConfigError("empty key", line_no)
        if key in values:
            raise ConfigError(f"duplicate key {key!r}", line_no)
        try:
            values[key] = json.loads(value)
        except ValueError:
            values[key] = value
        except RecursionError:
            raise ConfigError(f"{key} is nested too deeply", line_no) from None
        lines[key] = line_no
    check_config(values, lines)
    return values


def check_config(values, lines=None):
    """The RadioConfig of fully validated values; ConfigError if invalid.

    The one config validator: rejects unknown keys, values of the wrong
    type, non-finite numbers (JSON parsing turns ``NaN`` and ``Infinity``
    into floats), a trial count or duration that is not positive, and radio
    keys that are individually fine yet clash. When ``lines`` maps keys to
    source line numbers, the error names the offending line.
    """
    lines = lines or {}
    unknown = sorted(k for k in values if k not in KNOWN_KEYS)
    if unknown:
        described = ", ".join(f"{k!r} (line {lines[k]})" if k in lines
                              else repr(k) for k in unknown)
        raise ConfigError(f"unknown config key(s): {described}; "
                          f"run the validate command to list accepted keys")
    for key, (_, want) in KNOWN_KEYS.items():
        if key not in values:
            continue
        val = values[key]
        ok = not isinstance(val, bool) and isinstance(
            val, numbers.Integral if want is int else numbers.Real)
        if not ok:
            raise ConfigError(f"{key} expects {want.__name__}, got {val!r}",
                              lines.get(key))
        # compared exactly: an integer too large for a float fails, as do
        # NaN and the infinities
        if want is float and not abs(val) <= sys.float_info.max:
            raise ConfigError(f"{key} must be finite, got {val!r}",
                              lines.get(key))
        if key in ("run.n_trials", "run.duration_s") and val <= 0:
            raise ConfigError(f"{key} must be positive, got {val!r}",
                              lines.get(key))
        # judged here, where the key and line are known, and without echoing
        # a value that may run to hundreds of digits
        if key == "radio.fft_size" and val > ofdm.MAX_FFT_SIZE:
            raise ConfigError(f"{key} is above {ofdm.MAX_FFT_SIZE}, the "
                              f"largest 802.11 FFT", lines.get(key))
    try:
        return RadioConfig(**{
            name: want(values[key]) for key, (name, want) in KNOWN_KEYS.items()
            if name is not None and key in values
        })
    except ValueError as exc:
        raise ConfigError(str(exc))


@dataclass
class ExperimentContext:
    seed: int = 0
    values: dict = field(default_factory=dict)

    def __post_init__(self):
        self.cfg = check_config(self.values)
        # each value is hashed as the type the run reads, so that 10 and
        # 10.0, or 5 and np.int64(5), name one config
        typed = {k: KNOWN_KEYS[k][1](v) for k, v in self.values.items()}
        canon = json.dumps(typed, sort_keys=True)
        self.cfg_hash = hashlib.sha256(canon.encode()).hexdigest()[:12]

    def rng(self, *salt):
        return np.random.default_rng([self.seed, *salt])


_RELATIONS = {"<": operator.lt, "<=": operator.le,
              ">": operator.gt, ">=": operator.ge}


@dataclass(frozen=True)
class Check:
    """One acceptance check: it passes when ``value <relation> bound``.

    ``text`` is a ``str.format`` template whose ``{value}`` and ``{bound}``
    fields are filled from the record, so a threshold is written once. A text
    that also interpolates other figures is an f-string throughout, with the
    record fields escaped as ``{{value}}`` and ``{{bound}}``. A NaN value or
    bound fails.
    """

    text: str
    value: float
    relation: str
    bound: float

    @property
    def passed(self):
        return bool(_RELATIONS[self.relation](self.value, self.bound))

    @property
    def line(self):
        text = self.text.format(value=self.value, bound=self.bound)
        return f"{'PASS' if self.passed else 'FAIL'}: {text}"


@dataclass
class ExperimentReport:
    name: str
    checks: list
    csv_path: str

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    @property
    def lines(self):
        verdict = f"experiment {self.name}: {'PASS' if self.passed else 'FAIL'}"
        return [c.line for c in self.checks] + [verdict]


# ---------------------------------------------------------------------------
# experiments


def run_phase_offsets(ctx):
    """Clock-impairment phase model: blockwise application vs analytic form."""
    cfg = ctx.cfg
    rng = ctx.rng(1)
    n_trials = int(ctx.values.get("run.n_trials", 12))
    rows = []
    trial_errs = []
    for trial in range(n_trials):
        imp = ImpairmentProfile.sample(cfg, rng)
        burst = training_burst(cfg, n_extra=6)
        out = apply_clock_impairments(burst, cfg, imp)
        sym = extract_csi_symbols(out, 0, cfg, n_symbols=8)
        predicted = imp.phase(cfg, 8, cfg.subcarrier_freqs())
        err = float(np.max(np.abs(np.angle(sym * np.conj(predicted)))))
        trial_errs.append(err)
        rows.append(["bistatic", trial, f"{imp.cfo_hz:.1f}", f"{err:.3e}"])

    burst = training_burst(cfg, n_extra=98)
    out = apply_clock_impairments(burst, cfg, ImpairmentProfile.monostatic(0.7))
    sym = extract_csi_symbols(out, 0, cfg, n_symbols=100)
    drift = float(np.max(np.abs(np.angle(sym * np.conj(sym[0][None, :])))))
    rows.append(["monostatic-drift", 0, "0.0", f"{drift:.3e}"])

    checks = [
        Check(f"bistatic phase error {{value:.2e}} rad < 1e-6 "
              f"({n_trials} impairment draws)", np.max(trial_errs), "<", 1e-6),
        Check("monostatic drift {value:.2e} rad < 1e-6 over 100 symbols",
              drift, "<", 1e-6),
    ]
    return ["case", "trial", "cfo_hz", "max_abs_phase_err_rad"], rows, checks


def run_los_dominance(ctx):
    """Direct-path power vs reflections across a grid of target positions."""
    tx = np.array([0.0, 0.0, 0.0])
    rx = np.array([5.0, 0.0, 0.0])
    los_d = float(np.linalg.norm(rx - tx))
    rows = []
    ratios = []
    for x in np.arange(0.5, 9.6, 1.0):
        for y in (1.0, 2.0, 3.0, 4.0):
            target = np.array([x, y, 0.0])
            tr = float(np.linalg.norm(target - tx))
            rr = float(np.linalg.norm(target - rx))
            ratio = power_ratio(los_d, tr, rr)
            ratios.append(ratio)
            rows.append([f"{x:.1f}", f"{y:.1f}", f"{tr:.3f}", f"{rr:.3f}",
                         f"{ratio:.2f}"])
    checks = [
        Check("every reflection at least 10 dB below the direct path "
              "(worst {value:.1f} dB)", np.max(ratios), "<=", -10.0),
    ]
    header = ["x_m", "y_m", "tx_range_m", "rx_range_m", "reflection_vs_los_db"]
    return header, rows, checks


def run_motion_ambiguity(ctx):
    """Range sensitivity to target motion: colocated vs separated geometry."""
    tx_b = (0.0, 0.0, 0.0)
    rx_b = (6.0, 0.0, 0.0)
    eps = 1e-6  # differential move; projections reported per meter of motion
    axes = (("x", (eps, 0.0, 0.0)), ("y", (0.0, eps, 0.0)))
    rows = []
    mono = []
    # radial reference: colocated geometry sees twice any radial move
    target = np.array([4.0, 0.0, 0.0])
    for axis, u in axes:
        dr = bistatic_projection(tx_b, tx_b, target, u) / eps
        mono.append(abs(dr))
        rows.append(["radial-reference", axis, f"{dr:.4f}", ""])
    # sweep a circle that stays clear of both nodes
    for angle in np.arange(0.0, 360.0, 15.0):
        a = np.radians(angle)
        target = np.array([3.0 + 2.0 * np.cos(a), 1.5 + 2.0 * np.sin(a), 0.0])
        for axis, u in axes:
            dr_mono = bistatic_projection(tx_b, tx_b, target, u) / eps
            dr_bi = bistatic_projection(tx_b, rx_b, target, u) / eps
            mono.append(abs(dr_mono))
            rows.append([f"{angle:.0f}", axis, f"{dr_mono:.4f}", f"{dr_bi:.4f}"])
    # target sitting near the line between the two separated devices:
    # both motion axes barely change the summed path length
    near_baseline = np.array([3.0, 0.3, 0.0])
    blind = []
    for axis, u in axes:
        dr_bi = bistatic_projection(tx_b, rx_b, near_baseline, u) / eps
        blind.append(abs(dr_bi))
        rows.append(["baseline", axis, "", f"{dr_bi:.4f}"])
    mono_max = np.max(mono)
    checks = [
        Check(f"colocated sensitivity reaches twice the displacement "
              f"(max {mono_max:.3f})", abs(mono_max - 2.0), "<", 1e-6),
        Check("separated geometry has a blind region near the baseline "
              "(worst-axis sensitivity {value:.3f} < {bound})",
              np.max(blind), "<", 0.3),
    ]
    header = ["angle_deg", "axis", "dr_colocated_m_per_m",
              "dr_separated_m_per_m"]
    return header, rows, checks


def run_separator_harm(ctx):
    """SNR cost of forcing the transmit separator onto incoming packets."""
    n_trials = int(ctx.values.get("run.n_trials", 4))
    clean_target = float(ctx.values.get("run.snr_db", 15.0))
    rows = []
    penalties = []
    for trial in range(n_trials):
        clean, separated = cancel.forced_separator_harm(
            ctx.cfg, ctx.rng(trial, 91), clean_target)
        penalty = float(clean - separated)
        penalties.append(penalty)
        rows.append([trial, f"{clean:.2f}", f"{separated:.2f}",
                     f"{penalty:.2f}"])
    checks = [
        Check(f"separator costs at least {{bound:g}} dB on receptions "
              f"(min {{value:.1f}} dB over {n_trials} scenes)",
              np.min(penalties), ">=", 10.0),
    ]
    return ["trial", "clean_snr_db", "separated_snr_db", "penalty_db"], rows, checks


def run_comms_impact(ctx):
    """Delay/loss with sensing off, on, and with an always-on separator."""
    duration = float(ctx.values.get("run.duration_s", 4.0))
    link_snr = float(ctx.values.get("run.snr_db", 18.0))
    traffics = {
        "regular": mac.TrafficModel.regular(100.0),
        "streaming": mac.TrafficModel.streaming(seed=0),
        "gaming": mac.TrafficModel.gaming(seed=0),
    }
    rows = []
    checks = []
    for name, model in traffics.items():
        def scenario(**kw):
            devs = [
                mac.MacDevice("dev-a", (0.0, 0.0, 0.0)),
                mac.MacDevice("dev-b", (4.0, 0.0, 0.0)),
            ]
            return mac.run_scenario(
                devs, None, model, duration, seed=ctx.seed, cfg=ctx.cfg,
                link_snr_db=link_snr, log=False, **kw,
            )

        on = scenario(sensing_enabled=True)
        off = scenario(sensing_enabled=False)
        forced = scenario(sensing_enabled=True, force_separator=True)
        for label, res in (("sensing-on", on), ("sensing-off", off),
                           ("forced-separator", forced)):
            s = res.stats
            rows.append([f"{name}-{label}", f"{s['delay_ms_p50']:.4f}",
                         f"{s['delay_ms_p95']:.4f}", f"{s['loss_rate']:.6f}"])
        moved = np.max([abs(on.stats[k] - off.stats[k])
                        for k in ("delay_ms_p50", "delay_ms_p95", "loss_rate")])
        checks.append(Check(
            f"{name}: sensing on/off leaves delay and loss untouched",
            moved, "<=", 0.0))
        # not forced - off > 0.3: that rounds differently, e.g. at 0.1 -> 0.4
        loss_off = off.stats["loss_rate"]
        checks.append(Check(
            f"{name}: forced separator raises loss ({loss_off:.3f} -> "
            f"{{value:.3f}})", forced.stats["loss_rate"], ">", loss_off + 0.3))
    return ["scenario", "delay_ms_p50", "delay_ms_p95", "loss_rate"], rows, checks


def _bursty_times(rng, duration):
    """Runs of 50-109 samples 12 ms apart separated by 0.25-0.7 s idle pauses."""
    t = 0.0
    out = []
    while t < duration:
        run = int(rng.integers(50, 110))
        for i in range(run):
            tt = t + i * 0.012
            if tt >= duration:
                break
            out.append(tt)
        t = out[-1] + rng.uniform(0.25, 0.7)
    return np.asarray(out)


def _receding_target(speed_mps):
    """Monostatic scene of one target moving off (4, 0, 0) m along x."""
    trajectory = linear_trajectory((4.0, 0.0, 0.0), (speed_mps, 0.0, 0.0))
    return ScenarioGeometry(targets=(PropagationPath(trajectory=trajectory),))


def _doppler_series(ctx, times, speed_mps, snr_db, salt):
    """Single-subcarrier CSI series of one receding target, mean-removed."""
    csi = synthesize_csi_series(_receding_target(speed_mps), ctx.cfg, times,
                                snr_db=snr_db, rng=ctx.rng(salt))
    series = csi[:, 0, 0]
    return series - np.mean(series)


def run_stft_irregular(ctx):
    """Doppler band concentration: uniform FFT vs naive and nonuniform DFT."""
    cfg = ctx.cfg
    snr_db = float(ctx.values.get("run.snr_db", 20.0))
    duration = float(ctx.values.get("run.duration_s", 8.0))
    speed = 0.75  # puts the line mid-band at 2 * v / wavelength = 12 Hz
    f_doppler = 2.0 * speed / cfg.wavelength
    window, hop = 128, 32

    t_reg = np.arange(0.0, duration, 0.01)
    # Bursty schedule: runs of back-to-back packets separated by idle
    # pauses, the shape streaming/gaming traffic actually produces.  The
    # pauses inflate the mean interval, so an FFT that pretends the samples
    # are uniform rescales the tone out of band, while the in-run spacing
    # is regular enough for the nonuniform transform to stay coherent.
    t_irr = _bursty_times(ctx.rng(4), 1.5 * duration)
    # The claim needs 4 windows of each series, 224 samples at hop 32: more
    # than two of the longest (109-sample) bursty runs, so the bursty series
    # crosses at least two idle pauses. The naive transform sees the line at
    # f * 12 ms / (mean spacing); one pause leaves it near 9.7 Hz, in band,
    # and two bring it to the 9 Hz edge, so on fewer the naive check would
    # judge the schedule rather than the transform
    for name, times in (("regular", t_reg), ("bursty", t_irr)):
        if times.size < window + 3 * hop:
            raise ConfigError(
                f"run.duration_s = {duration:g} gives the {name} series "
                f"{times.size} samples, under the {window + 3 * hop} of 4 "
                f"windows that the claim needs to span two idle pauses")

    series = _doppler_series(ctx, t_reg, speed, snr_db, 3)
    spec = stft(t_reg, series, window, hop)
    frac_regular = spec.band_energy_fraction(9.0, 15.0)

    series_irr = _doppler_series(ctx, t_irr, speed, snr_db, 5)
    mean_dt = float(np.mean(np.diff(t_irr)))

    # the naive transform pretends the samples sit at the mean spacing
    naive = stft(np.arange(t_irr.size) * mean_dt, series_irr, window, hop)
    frac_naive = naive.band_energy_fraction(9.0, 15.0)

    freqs = np.fft.fftshift(np.fft.fftfreq(window, d=mean_dt))
    restored = stft(t_irr, series_irr, window, hop, freqs=freqs)
    frac_restored = restored.band_energy_fraction(9.0, 15.0)

    rows = [
        ["regular", "fft", f"{frac_regular:.4f}"],
        ["irregular", "naive-fft", f"{frac_naive:.4f}"],
        ["irregular", "nonuniform-dft", f"{frac_restored:.4f}"],
    ]
    checks = [
        Check(f"regular sampling concentrates {{value:.2f}} of the energy "
              f"in the {f_doppler:.0f} Hz band (>= {{bound}})",
              frac_regular, ">=", 0.8),
        Check("naive transform of the irregular series holds {value:.2f} "
              "(< {bound})", frac_naive, "<", 0.5),
        Check("nonuniform transform restores {value:.2f} (>= {bound})",
              frac_restored, ">=", 0.8),
    ]
    return ["schedule", "method", "band_energy_fraction_9_15hz"], rows, checks


def run_cancellation_budget(ctx):
    """Stage-by-stage leakage suppression and echo preservation."""
    cfg = ctx.cfg
    n_trials = int(ctx.values.get("run.n_trials", 3))
    rows = []
    figures = []
    floor_dbm = cancel.DEFAULT_NOISE_FLOOR_DBM
    first_db = cancel.DEFAULT_FIRST_STAGE_DB
    for trial in range(n_trials):
        rng = ctx.rng(trial)
        tx, leak, state = cancel.calibrated_separator(cfg, rng)
        # Budget is measured on a leakage-plus-noise reception so the
        # residual reflects what the separator leaves behind. The stages
        # are linear, so running them on the coupling alone gives each
        # stage's leakage figure. The echo test adds a reflection and asks
        # how much of it survives.
        coupling = kernels.fir_apply(tx, leak.taps)
        noise = complex_noise(len(tx), floor_dbm, rng)
        stage1 = cancel.first_stage(coupling)
        stage2 = cancel.analog_cancel(stage1, tx, state)
        leak_out = cancel.separator_pipeline(stage1, tx, state)
        out = cancel.separator_pipeline(stage1 + noise, tx, state)
        g_first = db(avg_power(coupling) / avg_power(stage1))
        g_analog = db(avg_power(stage1) / avg_power(stage2))
        g_digital = db(avg_power(stage2) / avg_power(leak_out))
        total = db(avg_power(coupling + noise) / avg_power(out))
        resid_dbm = db(avg_power(out))

        gain = np.sqrt(from_db(-60.0) / avg_power(tx)) * np.exp(0.7j)
        refl = gain * np.concatenate([np.zeros(6, dtype=complex), tx[:-6]])
        noise2 = complex_noise(len(tx), floor_dbm, rng)
        out_echo = cancel.separator_pipeline(stage1 + refl + noise2, tx, state)
        g = np.vdot(refl, out_echo) / np.vdot(refl, refl).real
        echo_delta = db(np.abs(g) ** 2)
        rows.append([trial, f"{g_first:.2f}", f"{g_analog:.2f}",
                     f"{g_digital:.2f}", f"{total:.2f}", f"{resid_dbm:.2f}",
                     f"{echo_delta:.3f}"])
        figures.append([abs(g_first - first_db), g_analog, g_digital, total,
                        abs(resid_dbm - floor_dbm), abs(echo_delta)])
    # the worst trial of each figure; np.max/np.min let a NaN trial fail
    first, analog, digital, suppression, floor, echo = np.transpose(figures)
    checks = [
        Check(f"front-end isolation lands at {first_db:g} +/- {{bound:g}} dB",
              np.max(first), "<=", 1.0),
        Check("analog stage removes >= {bound:g} dB", np.min(analog), ">=", 35.0),
        Check("digital stage removes >= {bound:g} dB",
              np.min(digital), ">=", 20.0),
        Check("total suppression >= {bound:g} dB",
              np.min(suppression), ">=", 70.0),
        Check("residual sits within {bound:g} dB of the noise floor",
              np.max(floor), "<=", 3.0),
        Check("reflections preserved within {bound:g} dB",
              np.max(echo), "<=", 1.0),
    ]
    header = ["trial", "first_stage_db", "analog_db", "digital_db", "total_db",
              "residual_dbm", "echo_delta_db"]
    return header, rows, checks


def _irregular_times(rng, n, median_gap, sigma):
    gaps = rng.lognormal(np.log(median_gap), sigma, size=n)
    return np.cumsum(gaps)


def ranging_trial(cfg, rng, snr_db=15.0):
    """One moving target plus static clutter on 48 irregularly timed packets.

    Returns (truth_range_m, csi, sched).  The clutter scatterer sits 6 dB
    below the target so delay-only estimators see a biased profile while
    Doppler-gated atoms still separate the mover cleanly.
    """
    truth = float(rng.uniform(1.0, 15.0))
    speed = float(rng.uniform(0.3, 1.0)) * (1.0 if rng.random() < 0.5 else -1.0)
    r_clutter = float(rng.uniform(1.0, 15.0))
    while abs(r_clutter - truth) < 1.0:
        r_clutter = float(rng.uniform(1.0, 15.0))
    rcs_clutter = (r_clutter / truth) ** 4 * 10 ** (-0.6)
    times = _irregular_times(rng, 48, 0.015, 0.9)
    geom = ScenarioGeometry(
        targets=(
            PropagationPath(trajectory=linear_trajectory(
                (truth, 0.0, 0.0), (speed, 0.0, 0.0))),
            PropagationPath(position=(r_clutter, 0.0, 0.0), rcs=rcs_clutter),
        ),
    )
    csi = synthesize_csi_series(geom, cfg, times, snr_db=snr_db, rng=rng)
    return truth, csi, TxSchedule(times)


def run_ranging(ctx):
    """Monostatic range error: sparse recovery vs subspace vs plain IFFT."""
    cfg = ctx.cfg
    n_trials = int(ctx.values.get("run.n_trials", 60))
    snr_db = float(ctx.values.get("run.snr_db", 15.0))
    delay_grid = np.arange(0.0, 500e-9, 2.5e-9)
    doppler_grid = np.arange(-17.0, 17.1, 0.25)
    rows = []
    errs = {"sparse": [], "music": [], "ifft": []}
    for trial in range(n_trials):
        rng = ctx.rng(trial, 7)
        truth, csi, sched = ranging_trial(cfg, rng, snr_db)

        feats = estimate_features_sparse(
            csi, sched, cfg, delay_grid=delay_grid, doppler_grid=doppler_grid,
            max_iters=60, tol=1e-3,
        )
        tau, _, _ = feats.dominant(min_doppler_hz=1.5)
        est_sparse = SPEED_OF_LIGHT * tau / 2.0

        music = range_music(csi, 1, cfg)
        est_music = float(music.values[0])

        est_ifft = range_ifft(csi, cfg)

        for method, est in (("sparse", est_sparse), ("music", est_music),
                            ("ifft", est_ifft)):
            errs[method].append(abs(est - truth))
            rows.append([trial, f"{truth:.4f}", f"{est:.4f}", method,
                         f"{snr_db:.2f}", "irregular"])
    med = {k: float(np.median(v)) for k, v in errs.items()}
    checks = [
        Check("sparse median error {value:.2f} m <= {bound} m",
              med["sparse"], "<=", 2.84),
        Check(f"error ordering sparse ({med['sparse']:.2f}) < subspace "
              f"({med['music']:.2f}) < inverse-transform ({med['ifft']:.2f})",
              np.min([med["music"] - med["sparse"], med["ifft"] - med["music"]]),
              ">", 0.0),
    ]
    header = ["trial", "truth_range_m", "est_range_m", "method", "snr_db",
              "schedule_kind"]
    return header, rows, checks


def run_velocity(ctx):
    """Velocity error on bursty schedules: sparse vs snap-to-uniform FFT."""
    cfg = ctx.cfg
    n_trials = int(ctx.values.get("run.n_trials", 24))
    snr_db = float(ctx.values.get("run.snr_db", 15.0))
    doppler_grid = np.arange(-60.0, 60.0 + 0.25, 0.5)
    rows = []
    errs = {"sparse": [], "fft-snap": []}
    for trial in range(n_trials):
        rng = ctx.rng(trial, 13)
        truth = float(rng.uniform(0.4, 3.0))
        times = _irregular_times(rng, 64, 0.012, 1.2)
        sched = TxSchedule(times)
        csi = synthesize_csi_series(_receding_target(truth), cfg, times,
                                    snr_db=snr_db, rng=rng)
        est_sparse = velocity_sparse(
            csi, sched, cfg, doppler_grid=doppler_grid, max_iters=40, tol=1e-3,
        )
        snapped, uniform_sched = snap_to_uniform(csi, sched)
        est_fft = velocity_fft(snapped, uniform_sched, cfg)
        for method, est in (("sparse", est_sparse), ("fft-snap", est_fft)):
            errs[method].append(abs(est - truth))
            rows.append([trial, f"{truth:.3f}", f"{est:.3f}", method,
                         f"{snr_db:.1f}", "gaming"])
    med_sparse = float(np.median(errs["sparse"]))
    checks = [
        Check("sparse median error {value:.3f} m/s <= {bound}",
              med_sparse, "<=", 0.2),
        Check("uniform-grid baseline is worse ({value:.3f} m/s median)",
              float(np.median(errs["fft-snap"])), ">", med_sparse),
    ]
    header = ["trial", "truth_mps", "est_mps", "method", "snr_db",
              "schedule_kind"]
    return header, rows, checks


def _device_observation(ctx, device_pos, heading_deg, target, snr_db, salt):
    """Range + angle of one target seen by one four-antenna device."""
    cfg = ctx.cfg
    times = np.arange(24) * 0.01
    geom = ScenarioGeometry(
        tx_pos=device_pos, rx_pos=device_pos,
        targets=(PropagationPath(position=(target[0], target[1], 0.0)),),
        n_antennas=4, boresight_deg=heading_deg,
    )
    csi = synthesize_csi_series(geom, cfg, times, snr_db=snr_db,
                                rng=ctx.rng(salt))
    feats = estimate_features_sparse(
        csi, TxSchedule(times), cfg,
        delay_grid=np.arange(0.0, 500e-9, 5e-9),
        doppler_grid=np.array([0.0]), max_iters=60, tol=1e-3,
    )
    tau, _, _ = feats.dominant()
    rng_m = SPEED_OF_LIGHT * tau / 2.0
    aoa = float(aoa_music(csi, 1).values[0])
    return rng_m, aoa


def run_localization(ctx):
    """Ground-plane target fixes: one device vs two fused devices."""
    n_trials = int(ctx.values.get("run.n_trials", 20))
    snr_db = float(ctx.values.get("run.snr_db", 15.0))
    poses = {"dev-a": (0.0, 0.0, 45.0), "dev-b": (10.0, 10.0, 225.0)}
    rows = []
    errs = {"single": [], "fused": []}
    rng = ctx.rng(21)
    for trial in range(n_trials):
        target = rng.uniform(1.0, 9.0, size=2)
        msgs = []
        for i, (dev, (px, py, hd)) in enumerate(poses.items()):
            r, aoa = _device_observation(
                ctx, (px, py, 0.0), hd, target, snr_db,
                salt=1000 + 10 * trial + i,
            )
            msgs.append(SensingMessage(dev, 0.0, px, py, hd, r, aoa))
        bounds = (-1.0, 11.0, -1.0, 11.0)
        one = fuse_ml([msgs[0]], sigma_range=0.5, sigma_aoa_deg=4.0,
                      bounds=bounds)
        both = fuse_ml(msgs, sigma_range=0.5, sigma_aoa_deg=4.0, bounds=bounds)
        for method, fix in (("single", one), ("fused", both)):
            err = float(np.hypot(fix.x_m - target[0], fix.y_m - target[1]))
            errs[method].append(err)
            rows.append([trial, f"{target[0]:.3f}", f"{target[1]:.3f}",
                         f"{fix.x_m:.3f}", f"{fix.y_m:.3f}", method,
                         f"{err:.3f}"])
    med_single = float(np.median(errs["single"]))
    checks = [
        Check("single-device median error {value:.2f} m <= {bound}",
              med_single, "<=", 1.5),
        Check("fused median error {value:.2f} m <= single ({bound:.2f} m)",
              float(np.median(errs["fused"])), "<=", med_single),
    ]
    header = ["trial", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m",
              "method", "error_m"]
    return header, rows, checks


EXPERIMENTS = {
    "phase-offsets": run_phase_offsets,
    "los-dominance": run_los_dominance,
    "motion-ambiguity": run_motion_ambiguity,
    "separator-harm": run_separator_harm,
    "comms-impact": run_comms_impact,
    "stft-irregular": run_stft_irregular,
    "cancellation-budget": run_cancellation_budget,
    "ranging": run_ranging,
    "velocity": run_velocity,
    "localization": run_localization,
}


def experiment_names():
    return list(EXPERIMENTS)


def describe(name):
    return (EXPERIMENTS[name].__doc__ or "").strip().splitlines()[0]


def run_experiment(name, seed=0, values=None, out_dir="."):
    """Run one experiment, write its CSV into ``out_dir``, judge its checks.
    ``out_dir`` is created only once the experiment has run, so one that
    raises leaves no directory behind."""
    experiment = EXPERIMENTS[name]
    ctx = ExperimentContext(seed=seed, values=dict(values or {}))
    header, rows, checks = experiment(ctx)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name.replace("-", "_") + ".csv")
    with open(path, "w", newline="") as fh:
        fh.write(f"# experiment={name} seed={seed} config_hash={ctx.cfg_hash}\n")
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return ExperimentReport(name, checks, path)


__all__ = [
    "KNOWN_KEYS",
    "ConfigError",
    "load_config",
    "Check",
    "ExperimentContext",
    "ExperimentReport",
    "EXPERIMENTS",
    "experiment_names",
    "describe",
    "run_experiment",
    "check_config",
]
