"""Named, seeded benchmark experiments behind the ``isac-bench`` CLI.

Each experiment is a deterministic function of (seed, config): it writes one
or more CSV files whose first line embeds ``experiment``, ``seed``, and the
config hash, prints one PASS/FAIL line per check, and finishes in well under
a minute. The CSVs are the contract; plots are optional sugar.
"""

import csv as _csv
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from . import cancel, kernels, mac
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
from .config import ConfigError, check_keys, config_hash
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


def radio_config_from(values):
    """RadioConfig with any radio.* overrides applied (defaults otherwise)."""
    return RadioConfig(**{
        name: want(values[key]) for key, (name, want) in KNOWN_KEYS.items()
        if name is not None and key in values
    })


def check_config(values, lines=None):
    """The RadioConfig of fully validated values; ConfigError if invalid.

    Rejects unknown keys, values of the wrong type, non-finite numbers
    (JSON parsing turns ``NaN`` and ``Infinity`` into floats), a trial count
    or duration that is not positive, and radio keys that are individually
    fine yet clash. When ``lines`` maps keys to source line numbers, the
    error names the offending line.
    """
    lines = lines or {}
    check_keys(values, KNOWN_KEYS, lines=lines)
    for key, (_, want) in KNOWN_KEYS.items():
        if key not in values:
            continue
        val = values[key]
        ok = not isinstance(val, bool) and isinstance(
            val, numbers.Integral if want is int else numbers.Real)
        if not ok:
            raise ConfigError(f"{key} expects {want.__name__}, got {val!r}",
                              lines.get(key))
        if want is float and not math.isfinite(val):
            raise ConfigError(f"{key} must be finite, got {val!r}",
                              lines.get(key))
        if key in ("run.n_trials", "run.duration_s") and val <= 0:
            raise ConfigError(f"{key} must be positive, got {val!r}",
                              lines.get(key))
    try:
        return radio_config_from(values)
    except ValueError as exc:
        raise ConfigError(str(exc))


@dataclass
class ExperimentContext:
    seed: int = 0
    values: dict = field(default_factory=dict)
    out_dir: str = "."
    make_plots: bool = False

    def __post_init__(self):
        self.cfg = check_config(self.values)
        self.cfg_hash = config_hash(self.values)

    def param(self, key, default):
        return self.values.get(key, default)

    def rng(self, salt):
        return np.random.default_rng([self.seed, salt])


@dataclass
class ExperimentReport:
    name: str
    passed: bool
    lines: list
    csv_paths: list


def _write_csv(ctx, name, filename, header, rows):
    os.makedirs(ctx.out_dir, exist_ok=True)
    path = os.path.join(ctx.out_dir, filename)
    with open(path, "w", newline="") as fh:
        fh.write(f"# experiment={name} seed={ctx.seed} config_hash={ctx.cfg_hash}\n")
        writer = _csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def _report(name, checks, csv_paths):
    lines = [f"{'PASS' if ok else 'FAIL'}: {desc}" for desc, ok in checks]
    passed = all(ok for _, ok in checks)
    lines.append(f"experiment {name}: {'PASS' if passed else 'FAIL'}")
    return ExperimentReport(name, passed, lines, csv_paths)


def _maybe_hist(ctx, filename, data_by_label, xlabel):
    if not ctx.make_plots:
        return None
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        return None
    fig, ax = plt.subplots(figsize=(6, 4))
    for label, data in data_by_label.items():
        ax.hist(data, bins=20, alpha=0.6, label=label)
    ax.set_xlabel(xlabel)
    ax.set_ylabel("count")
    ax.legend()
    path = os.path.join(ctx.out_dir, filename)
    fig.savefig(path, dpi=110)
    plt.close(fig)
    return path


# ---------------------------------------------------------------------------
# experiments


def run_phase_offsets(ctx):
    """Clock-impairment phase model: blockwise application vs analytic form."""
    cfg = ctx.cfg
    rng = ctx.rng(1)
    n_trials = int(ctx.param("run.n_trials", 12))
    rows = []
    worst_bistatic = 0.0
    for trial in range(n_trials):
        imp = ImpairmentProfile.sample(cfg, rng)
        burst = training_burst(cfg, n_extra=6)
        out = apply_clock_impairments(burst, cfg, imp)
        sym = extract_csi_symbols(out, 0, cfg, n_symbols=8)
        n = cfg.fft_size
        step = imp.cfo_hz / (cfg.subcarrier_spacing * n)
        k = cfg.used_bins
        errs = []
        for ell in range(sym.shape[0]):
            predicted = np.exp(-2j * np.pi * (ell * step + imp.cpo)) * np.exp(
                -2j * np.pi * k * (imp.sfo + imp.pdd_extra) / n
            )
            errs.append(np.max(np.abs(np.angle(sym[ell] * np.conj(predicted)))))
        err = float(np.max(errs))
        worst_bistatic = max(worst_bistatic, err)
        rows.append(["bistatic", trial, f"{imp.cfo_hz:.1f}", f"{err:.3e}"])

    burst = training_burst(cfg, n_extra=98)
    out = apply_clock_impairments(burst, cfg, ImpairmentProfile.monostatic(0.7))
    sym = extract_csi_symbols(out, 0, cfg, n_symbols=100)
    drift = float(np.max(np.abs(np.angle(sym * np.conj(sym[0][None, :])))))
    rows.append(["monostatic-drift", 0, "0.0", f"{drift:.3e}"])

    path = _write_csv(
        ctx, "phase-offsets", "phase_offsets.csv",
        ["case", "trial", "cfo_hz", "max_abs_phase_err_rad"], rows,
    )
    checks = [
        (f"bistatic phase error {worst_bistatic:.2e} rad < 1e-6 "
         f"({n_trials} impairment draws)", worst_bistatic < 1e-6),
        (f"monostatic drift {drift:.2e} rad < 1e-6 over 100 symbols",
         drift < 1e-6),
    ]
    return _report("phase-offsets", checks, [path])


def run_los_dominance(ctx):
    """Direct-path power vs reflections across a grid of target positions."""
    tx = np.array([0.0, 0.0, 0.0])
    rx = np.array([5.0, 0.0, 0.0])
    los_d = float(np.linalg.norm(rx - tx))
    rows = []
    worst = -np.inf
    for x in np.arange(0.5, 9.6, 1.0):
        for y in (1.0, 2.0, 3.0, 4.0):
            target = np.array([x, y, 0.0])
            tr = float(np.linalg.norm(target - tx))
            rr = float(np.linalg.norm(target - rx))
            ratio = power_ratio(los_d, tr, rr)
            worst = max(worst, ratio)
            rows.append([f"{x:.1f}", f"{y:.1f}", f"{tr:.3f}", f"{rr:.3f}",
                         f"{ratio:.2f}"])
    path = _write_csv(
        ctx, "los-dominance", "los_dominance.csv",
        ["x_m", "y_m", "tx_range_m", "rx_range_m", "reflection_vs_los_db"],
        rows,
    )
    checks = [
        (f"every reflection at least 10 dB below the direct path "
         f"(worst {worst:.1f} dB)", worst <= -10.0),
    ]
    return _report("los-dominance", checks, [path])


def run_motion_ambiguity(ctx):
    """Range sensitivity to target motion: colocated vs separated geometry."""
    tx_b = (0.0, 0.0, 0.0)
    rx_b = (6.0, 0.0, 0.0)
    eps = 1e-6  # differential move; projections reported per meter of motion
    axes = (("x", (eps, 0.0, 0.0)), ("y", (0.0, eps, 0.0)))
    rows = []
    mono_max = 0.0
    # radial reference: colocated geometry sees twice any radial move
    target = np.array([4.0, 0.0, 0.0])
    for axis, u in axes:
        dr = bistatic_projection(tx_b, tx_b, target, u) / eps
        mono_max = max(mono_max, abs(dr))
        rows.append(["radial-reference", axis, f"{dr:.4f}", ""])
    # sweep a circle that stays clear of both nodes
    for angle in np.arange(0.0, 360.0, 15.0):
        a = np.radians(angle)
        target = np.array([3.0 + 2.0 * np.cos(a), 1.5 + 2.0 * np.sin(a), 0.0])
        for axis, u in axes:
            dr_mono = bistatic_projection(tx_b, tx_b, target, u) / eps
            dr_bi = bistatic_projection(tx_b, rx_b, target, u) / eps
            mono_max = max(mono_max, abs(dr_mono))
            rows.append([f"{angle:.0f}", axis, f"{dr_mono:.4f}", f"{dr_bi:.4f}"])
    # target sitting near the line between the two separated devices:
    # both motion axes barely change the summed path length
    near_baseline = np.array([3.0, 0.3, 0.0])
    blind = []
    for axis, u in axes:
        dr_bi = bistatic_projection(tx_b, rx_b, near_baseline, u) / eps
        blind.append(abs(dr_bi))
        rows.append(["baseline", axis, "", f"{dr_bi:.4f}"])
    blind_worst = max(blind)
    path = _write_csv(
        ctx, "motion-ambiguity", "motion_ambiguity.csv",
        ["angle_deg", "axis", "dr_colocated_m_per_m", "dr_separated_m_per_m"],
        rows,
    )
    checks = [
        (f"colocated sensitivity reaches twice the displacement "
         f"(max {mono_max:.3f})", abs(mono_max - 2.0) < 1e-6),
        (f"separated geometry has a blind region near the baseline "
         f"(worst-axis sensitivity {blind_worst:.3f} < 0.3)",
         blind_worst < 0.3),
    ]
    return _report("motion-ambiguity", checks, [path])


def run_separator_harm(ctx):
    """SNR cost of forcing the transmit separator onto incoming packets."""
    n_trials = int(ctx.param("run.n_trials", 4))
    clean_target = float(ctx.param("run.snr_db", 15.0))
    rows = []
    min_penalty = np.inf
    for trial in range(n_trials):
        clean, separated = cancel.forced_separator_harm(
            ctx.cfg, np.random.default_rng([ctx.seed, trial, 91]),
            clean_target,
        )
        penalty = float(clean - separated)
        min_penalty = min(min_penalty, penalty)
        rows.append([trial, f"{clean:.2f}", f"{separated:.2f}",
                     f"{penalty:.2f}"])
    path = _write_csv(
        ctx, "separator-harm", "separator_harm.csv",
        ["trial", "clean_snr_db", "separated_snr_db", "penalty_db"], rows,
    )
    checks = [
        (f"separator costs at least 10 dB on receptions "
         f"(min {min_penalty:.1f} dB over {n_trials} scenes)",
         min_penalty >= 10.0),
    ]
    return _report("separator-harm", checks, [path])


def run_comms_impact(ctx):
    """Delay/loss with sensing off, on, and with an always-on separator."""
    duration = float(ctx.param("run.duration_s", 4.0))
    link_snr = float(ctx.param("run.snr_db", 18.0))
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
        same = (
            on.stats["delay_ms_p50"] == off.stats["delay_ms_p50"]
            and on.stats["delay_ms_p95"] == off.stats["delay_ms_p95"]
            and on.stats["loss_rate"] == off.stats["loss_rate"]
        )
        checks.append(
            (f"{name}: sensing on/off leaves delay and loss untouched", same)
        )
        checks.append(
            (f"{name}: forced separator raises loss "
             f"({off.stats['loss_rate']:.3f} -> "
             f"{forced.stats['loss_rate']:.3f})",
             forced.stats["loss_rate"] > off.stats["loss_rate"] + 0.3),
        )
    path = _write_csv(
        ctx, "comms-impact", "comms_impact.csv",
        ["scenario", "delay_ms_p50", "delay_ms_p95", "loss_rate"], rows,
    )
    return _report("comms-impact", checks, [path])


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


def _doppler_series(ctx, times, speed_mps, snr_db, salt):
    """Single-subcarrier CSI series of one receding target, mean-removed."""
    geom = ScenarioGeometry(
        targets=(
            PropagationPath(
                trajectory=linear_trajectory((4.0, 0.0, 0.0),
                                             (speed_mps, 0.0, 0.0))
            ),
        ),
        include_los=False,
    )
    csi = synthesize_csi_series(geom, ctx.cfg, times, snr_db=snr_db,
                                rng=ctx.rng(salt))
    series = csi[:, 0, 0]
    return series - np.mean(series)


def run_stft_irregular(ctx):
    """Doppler band concentration: uniform FFT vs naive and nonuniform DFT."""
    cfg = ctx.cfg
    snr_db = float(ctx.param("run.snr_db", 20.0))
    duration = float(ctx.param("run.duration_s", 8.0))
    speed = 0.75  # puts the line mid-band at 2 * v / wavelength = 12 Hz
    f_doppler = 2.0 * speed / cfg.wavelength
    window, hop = 128, 32

    t_reg = np.arange(0.0, duration, 0.01)
    series = _doppler_series(ctx, t_reg, speed, snr_db, 3)
    spec = stft(t_reg, series, window, hop)
    frac_regular = spec.band_energy_fraction(9.0, 15.0)

    # Bursty schedule: runs of back-to-back packets separated by idle
    # pauses, the shape streaming/gaming traffic actually produces.  The
    # pauses inflate the mean interval, so an FFT that pretends the samples
    # are uniform rescales the tone out of band, while the in-run spacing
    # is regular enough for the nonuniform transform to stay coherent.
    rng = ctx.rng(4)
    t_irr = _bursty_times(rng, 1.5 * duration)
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
    path = _write_csv(
        ctx, "stft-irregular", "stft_irregular.csv",
        ["schedule", "method", "band_energy_fraction_9_15hz"], rows,
    )
    checks = [
        (f"regular sampling concentrates {frac_regular:.2f} of the energy "
         f"in the {f_doppler:.0f} Hz band (>= 0.8)", frac_regular >= 0.8),
        (f"naive transform of the irregular series holds {frac_naive:.2f} "
         f"(< 0.5)", frac_naive < 0.5),
        (f"nonuniform transform restores {frac_restored:.2f} (>= 0.8)",
         frac_restored >= 0.8),
    ]
    return _report("stft-irregular", checks, [path])


def run_cancellation_budget(ctx):
    """Stage-by-stage leakage suppression and echo preservation."""
    cfg = ctx.cfg
    n_trials = int(ctx.param("run.n_trials", 3))
    rows = []
    checks_ok = {"first": True, "analog": True, "digital": True,
                 "total": True, "floor": True, "echo": True}
    floor_dbm = cancel.DEFAULT_NOISE_FLOOR_DBM
    for trial in range(n_trials):
        rng = np.random.default_rng([ctx.seed, trial])
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
        leak_out = cancel.separator_pipeline(stage1, state, "M", tx_ref=tx)
        out = cancel.separator_pipeline(stage1 + noise, state, "M", tx_ref=tx)
        g_first = db(avg_power(coupling) / avg_power(stage1))
        g_analog = db(avg_power(stage1) / avg_power(stage2))
        g_digital = db(avg_power(stage2) / avg_power(leak_out))
        total = db(avg_power(coupling + noise) / avg_power(out))
        resid_dbm = db(avg_power(out))

        gain = np.sqrt(from_db(-60.0) / avg_power(tx)) * np.exp(0.7j)
        refl = gain * np.concatenate([np.zeros(6, dtype=complex), tx[:-6]])
        noise2 = complex_noise(len(tx), floor_dbm, rng)
        out_echo = cancel.separator_pipeline(stage1 + refl + noise2, state,
                                             "M", tx_ref=tx)
        g = np.vdot(refl, out_echo) / np.vdot(refl, refl).real
        echo_delta = db(np.abs(g) ** 2)
        rows.append([trial, f"{g_first:.2f}", f"{g_analog:.2f}",
                     f"{g_digital:.2f}", f"{total:.2f}", f"{resid_dbm:.2f}",
                     f"{echo_delta:.3f}"])
        checks_ok["first"] &= abs(g_first - 12.0) <= 1.0
        checks_ok["analog"] &= g_analog >= 35.0
        checks_ok["digital"] &= g_digital >= 20.0
        checks_ok["total"] &= total >= 70.0
        checks_ok["floor"] &= abs(resid_dbm - floor_dbm) <= 3.0
        checks_ok["echo"] &= abs(echo_delta) <= 1.0
    path = _write_csv(
        ctx, "cancellation-budget", "cancellation_budget.csv",
        ["trial", "first_stage_db", "analog_db", "digital_db", "total_db",
         "residual_dbm", "echo_delta_db"], rows,
    )
    checks = [
        ("front-end isolation lands at 12 +/- 1 dB", checks_ok["first"]),
        ("analog stage removes >= 35 dB", checks_ok["analog"]),
        ("digital stage removes >= 20 dB", checks_ok["digital"]),
        ("total suppression >= 70 dB", checks_ok["total"]),
        ("residual sits within 3 dB of the noise floor", checks_ok["floor"]),
        ("reflections preserved within 1 dB", checks_ok["echo"]),
    ]
    return _report("cancellation-budget", checks, [path])


def _irregular_times(rng, n, median_gap, sigma):
    gaps = rng.lognormal(np.log(median_gap), sigma, size=n)
    return np.cumsum(gaps)


def ranging_trial(cfg, rng, snr_db=15.0, n_packets=48):
    """One moving target plus static clutter on an irregular schedule.

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
    times = _irregular_times(rng, n_packets, 0.015, 0.9)
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
    n_trials = int(ctx.param("run.n_trials", 60))
    snr_db = float(ctx.param("run.snr_db", 15.0))
    delay_grid = np.arange(0.0, 500e-9, 2.5e-9)
    doppler_grid = np.arange(-17.0, 17.1, 0.25)
    # Size the smoothing subarray to the configured band: narrow FFTs
    # leave contiguous bin runs shorter than the usual 16 bins.
    signed = np.sort(cfg.signed_index())
    longest = max(
        r.size for r in np.split(signed, np.where(np.diff(signed) != 1)[0] + 1)
    )
    subarray_len = min(16, int(longest))
    rows = []
    errs = {"sparse": [], "music": [], "ifft": []}
    for trial in range(n_trials):
        rng = np.random.default_rng([ctx.seed, trial, 7])
        truth, csi, sched = ranging_trial(cfg, rng, snr_db)

        feats = estimate_features_sparse(
            csi, sched, cfg, delay_grid=delay_grid, doppler_grid=doppler_grid,
            max_iters=60, tol=1e-3,
        )
        tau, _, _ = feats.dominant(min_doppler_hz=1.5)
        est_sparse = SPEED_OF_LIGHT * tau / 2.0

        music = range_music(csi, 1, cfg, subarray_len=subarray_len)
        est_music = float(music.values[0])

        est_ifft = range_ifft(csi, cfg)

        for method, est in (("sparse", est_sparse), ("music", est_music),
                            ("ifft", est_ifft)):
            errs[method].append(abs(est - truth))
            rows.append([trial, f"{truth:.4f}", f"{est:.4f}", method,
                         f"{snr_db:.2f}", "irregular"])
    path = _write_csv(
        ctx, "ranging", "ranging.csv",
        ["trial", "truth_range_m", "est_range_m", "method", "snr_db",
         "schedule_kind"], rows,
    )

    med = {k: float(np.median(v)) for k, v in errs.items()}
    _maybe_hist(ctx, "ranging_errors.png", errs, "absolute range error (m)")
    checks = [
        (f"sparse median error {med['sparse']:.2f} m <= 2.84 m",
         med["sparse"] <= 2.84),
        (f"error ordering sparse ({med['sparse']:.2f}) < subspace "
         f"({med['music']:.2f}) < inverse-transform ({med['ifft']:.2f})",
         med["sparse"] < med["music"] < med["ifft"]),
    ]
    return _report("ranging", checks, [path])


def run_velocity(ctx):
    """Velocity error on bursty schedules: sparse vs snap-to-uniform FFT."""
    cfg = ctx.cfg
    n_trials = int(ctx.param("run.n_trials", 24))
    snr_db = float(ctx.param("run.snr_db", 15.0))
    doppler_grid = np.arange(-60.0, 60.0 + 0.25, 0.5)
    rows = []
    errs = {"sparse": [], "fft-snap": []}
    for trial in range(n_trials):
        rng = np.random.default_rng([ctx.seed, trial, 13])
        truth = float(rng.uniform(0.4, 3.0))
        times = _irregular_times(rng, 64, 0.012, 1.2)
        sched = TxSchedule(times)
        geom = ScenarioGeometry(
            targets=(
                PropagationPath(
                    trajectory=linear_trajectory((4.0, 0.0, 0.0),
                                                 (truth, 0.0, 0.0))
                ),
            ),
        )
        csi = synthesize_csi_series(geom, cfg, times, snr_db=snr_db, rng=rng)
        est_sparse = velocity_sparse(
            csi, sched, cfg, doppler_grid=doppler_grid, max_iters=40, tol=1e-3,
        )
        snapped, uniform_sched = snap_to_uniform(csi, sched)
        est_fft = velocity_fft(snapped, uniform_sched, cfg)
        for method, est in (("sparse", est_sparse), ("fft-snap", est_fft)):
            errs[method].append(abs(est - truth))
            rows.append([trial, f"{truth:.3f}", f"{est:.3f}", method,
                         f"{snr_db:.1f}", "gaming"])
    path = _write_csv(
        ctx, "velocity", "velocity.csv",
        ["trial", "truth_mps", "est_mps", "method", "snr_db", "schedule_kind"],
        rows,
    )
    med_sparse = float(np.median(errs["sparse"]))
    med_fft = float(np.median(errs["fft-snap"]))
    _maybe_hist(ctx, "velocity_errors.png", errs, "absolute velocity error (m/s)")
    checks = [
        (f"sparse median error {med_sparse:.3f} m/s <= 0.2",
         med_sparse <= 0.2),
        (f"uniform-grid baseline is worse ({med_fft:.3f} m/s median)",
         med_fft > med_sparse),
    ]
    return _report("velocity", checks, [path])


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
    n_trials = int(ctx.param("run.n_trials", 20))
    snr_db = float(ctx.param("run.snr_db", 15.0))
    poses = {"dev-a": (0.0, 0.0, 45.0), "dev-b": (10.0, 10.0, 225.0)}
    rows = []
    single_errs = []
    fused_errs = []
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
        e_one = float(np.hypot(one.x_m - target[0], one.y_m - target[1]))
        e_both = float(np.hypot(both.x_m - target[0], both.y_m - target[1]))
        single_errs.append(e_one)
        fused_errs.append(e_both)
        rows.append([trial, f"{target[0]:.3f}", f"{target[1]:.3f}",
                     f"{one.x_m:.3f}", f"{one.y_m:.3f}", "single",
                     f"{e_one:.3f}"])
        rows.append([trial, f"{target[0]:.3f}", f"{target[1]:.3f}",
                     f"{both.x_m:.3f}", f"{both.y_m:.3f}", "fused",
                     f"{e_both:.3f}"])
    path = _write_csv(
        ctx, "localization", "localization.csv",
        ["trial", "truth_x_m", "truth_y_m", "est_x_m", "est_y_m", "method",
         "error_m"], rows,
    )
    med_single = float(np.median(single_errs))
    med_fused = float(np.median(fused_errs))
    _maybe_hist(ctx, "localization_errors.png",
                {"single": single_errs, "fused": fused_errs},
                "position error (m)")
    checks = [
        (f"single-device median error {med_single:.2f} m <= 1.5",
         med_single <= 1.5),
        (f"fused median error {med_fused:.2f} m <= single "
         f"({med_single:.2f} m)", med_fused <= med_single),
    ]
    return _report("localization", checks, [path])


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


def run_experiment(name, seed=0, values=None, out_dir=".", plots=False):
    if name not in EXPERIMENTS:
        raise KeyError(name)
    ctx = ExperimentContext(seed=seed, values=dict(values or {}),
                            out_dir=out_dir, make_plots=plots)
    return EXPERIMENTS[name](ctx)


__all__ = [
    "KNOWN_KEYS",
    "ExperimentContext",
    "ExperimentReport",
    "EXPERIMENTS",
    "experiment_names",
    "describe",
    "run_experiment",
    "radio_config_from",
    "check_config",
]
