"""End-to-end acceptance gates, one test and one printed line per claim.

Run ``pytest tests/test_acceptance.py -s`` to see the verdict lines.  Each
test recomputes its evidence from scratch through public APIs at the
tolerances stated in the printed label; nothing is stubbed or reused from
the unit suites.
"""

import numpy as np

from isacsim import kernels, ofdm
from isacsim.cancel import (
    NLMS_PASSES,
    NLMS_STEP,
    analog_cancel,
    calibrate,
    first_stage,
    make_leakage,
    separator_pipeline,
)
from isacsim.estimate import admm_lasso
from isacsim.experiments import run_experiment
from isacsim.mac import MacDevice, TrafficModel, run_scenario
from isacsim.ofdm import RadioConfig
from isacsim.sigcore import (
    avg_power,
    complex_noise,
    db,
    from_db,
    nonuniform_dft,
)

CFG = RadioConfig()


def _criterion(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    print(f"criterion {number} [{verdict}] {label}")
    assert ok, f"criterion {number} failed: {label}\n{detail}"


# ---------------------------------------------------------------------------
# separation chain


def test_c1_cancellation_budget(tmp_path):
    rep = run_experiment("cancellation-budget", seed=0,
                         values={"run.n_trials": 3}, out_dir=str(tmp_path))
    _criterion(
        1,
        "leakage budget: first stage 12 +/- 1 dB, analog >= 35 dB, "
        "digital >= 20 dB, total >= 70 dB, residual within 3 dB of the "
        "floor, echo within 1 dB",
        rep.passed,
        "\n".join(rep.lines),
    )


def _echo_gain_db(reference, received):
    g = np.vdot(reference, received)
    g = g / np.vdot(reference, reference).real
    return db(np.abs(g) ** 2)


def _live_readapted(rx, tx, state):
    """The digital FIR re-adapted by NLMS on the live preamble, then applied."""
    span = min(CFG.preamble_len, len(tx))
    taps = kernels.nlms_fir(
        tx[:span], rx[:span], len(state.digital_taps), mu=NLMS_STEP,
        n_passes=NLMS_PASSES, taps_init=state.digital_taps,
    )
    return rx - kernels.fir_apply(tx, taps)


def test_c2_reflections_survive_but_not_ablation():
    worst_keep = 0.0
    worst_ablated = -np.inf
    for seed in range(100):
        rng = np.random.default_rng(seed)
        burst = ofdm.training_burst(CFG, n_extra=8)
        tx = burst * np.sqrt(from_db(5.0) / avg_power(burst))
        leak = make_leakage(rng)
        state = calibrate(tx, leak, rng)
        gain = np.sqrt(from_db(-60.0) / avg_power(tx)) * np.exp(0.7j)
        refl = gain * np.concatenate([np.zeros(6, dtype=complex), tx[:-6]])
        # receive port behind the front end: isolated coupling, echo, noise
        rx = (first_stage(kernels.fir_apply(tx, leak.taps)) + refl
              + complex_noise(len(tx), -85.0, rng))

        out = separator_pipeline(rx, tx, state)
        worst_keep = max(worst_keep, abs(_echo_gain_db(refl, out)))

        # ablation: re-adapt the FIR on the live signal, so the echo sits
        # inside the adaptation target and gets cancelled along with the
        # leakage
        out_ablated = _live_readapted(analog_cancel(rx, tx, state), tx, state)
        worst_ablated = max(worst_ablated, _echo_gain_db(refl, out_ablated))
    _criterion(
        2,
        "echo preservation: frozen taps keep reflections within 1 dB over "
        "100 scenes; live re-adaptation loses >= 10 dB",
        worst_keep <= 1.0 and worst_ablated <= -10.0,
        f"worst frozen delta {worst_keep:.3f} dB, "
        f"worst ablated {worst_ablated:.2f} dB",
    )


# ---------------------------------------------------------------------------
# channel model


def test_c3_clock_phase_model(tmp_path):
    rep = run_experiment("phase-offsets", seed=0, out_dir=str(tmp_path))
    _criterion(
        3,
        "clock model: bistatic CSI phases match the analytic form within "
        "1e-6 rad; monostatic drift < 1e-6 rad over 100 symbols",
        rep.passed,
        "\n".join(rep.lines),
    )


# ---------------------------------------------------------------------------
# estimation


def test_c4_ranging_ordering(tmp_path):
    rep = run_experiment("ranging", seed=0, values={"run.n_trials": 100},
                         out_dir=str(tmp_path))
    _criterion(
        4,
        "ranging, 100 trials at 1-15 m on irregular schedules at 15 dB SNR: "
        "sparse median <= 2.84 m and sparse < subspace < inverse-transform",
        rep.passed,
        "\n".join(rep.lines),
    )


def test_c5_velocity(tmp_path):
    rep = run_experiment("velocity", seed=0, values={"run.n_trials": 40},
                         out_dir=str(tmp_path))
    _criterion(
        5,
        "velocity on bursty schedules at 15 dB SNR: sparse median "
        "<= 0.2 m/s and the snap-to-uniform FFT baseline is worse",
        rep.passed,
        "\n".join(rep.lines),
    )


def test_c6_localization(tmp_path):
    rep = run_experiment("localization", seed=0, values={"run.n_trials": 30},
                         out_dir=str(tmp_path))
    _criterion(
        6,
        "localization in a 10 m x 10 m plane at 15 dB SNR: single-device "
        "median <= 1.5 m and fusing two devices does not do worse",
        rep.passed,
        "\n".join(rep.lines),
    )


# ---------------------------------------------------------------------------
# protocol


def _streaming_devices():
    return [
        MacDevice("dev-a", pos=(0.0, 0.0, 1.0),
                  traffic=TrafficModel.streaming(), peer_id="dev-b"),
        MacDevice("dev-b", pos=(6.0, 0.0, 1.0),
                  traffic=TrafficModel.streaming(), peer_id="dev-a"),
    ]


def test_c7_mac_invariants_at_scale():
    big = run_scenario(_streaming_devices(), None, None, duration=480.0,
                       seed=11, log=False, link_snr_db=18.0)
    on = run_scenario(_streaming_devices(), None, None, duration=60.0,
                      seed=3, log=False, link_snr_db=18.0)
    off = run_scenario(_streaming_devices(), None, None, duration=60.0,
                       seed=3, log=False, link_snr_db=18.0,
                       sensing_enabled=False)
    forced = run_scenario(_streaming_devices(), None, None, duration=60.0,
                          seed=3, log=False, link_snr_db=18.0,
                          force_separator=True)
    snr_drop = on.stats["mean_rx_snr_db"] - forced.stats["mean_rx_snr_db"]
    ok = (
        big.n_events >= 1_000_000
        and big.invariant_checks >= 1_000_000
        # the exact counts, which the sensing pass computes by formula
        and big.n_events == 1_040_381
        and big.invariant_checks == 1_201_310
        and big.separator_mismatches == 0
        and not big.violations
        and on.stats == off.stats
        and snr_drop >= 10.0
    )
    _criterion(
        7,
        "protocol: separator state tracks the monostatic-capture state "
        "exactly over >= 1e6 events; sensing on/off leaves delay and loss "
        "untouched; forcing the separator onto receptions costs >= 10 dB "
        "of rx SNR",
        ok,
        f"events {big.n_events}, checks {big.invariant_checks}, "
        f"mismatches {big.separator_mismatches}, "
        f"violations {len(big.violations)}, on==off "
        f"{on.stats == off.stats}, snr drop {snr_drop:.1f} dB",
    )


# ---------------------------------------------------------------------------
# numerics


def _soft_threshold(x, kappa):
    mags = np.abs(x)
    scale = np.where(mags > kappa, 1.0 - kappa / np.maximum(mags, 1e-300), 0.0)
    return x * scale


def _lasso_objective(a, y, x, lam):
    r = a @ x - y
    return 0.5 * np.vdot(r, r).real + lam * float(np.sum(np.abs(x)))


def _ista_lasso(a, y, lam, n_iters=30000):
    step = 1.0 / (np.linalg.norm(a, 2) ** 2)
    x = np.zeros(a.shape[1], dtype=np.complex128)
    for _ in range(n_iters):
        grad = a.conj().T @ (a @ x - y)
        x_new = _soft_threshold(x - step * grad, step * lam)
        if np.max(np.abs(x_new - x)) < 1e-15:
            return x_new
        x = x_new
    return x


def _dense_lasso(a, y, lam, **kwargs):
    # a dense A is the pair G = [[1]], D = A, with y and x as one row
    res = admm_lasso(np.ones((1, 1)), a, y[None, :], lam, **kwargs)
    return res._replace(coefficients=res.coefficients[0])


def test_c8_solver_and_transform_oracles():
    # identity operator: the lasso minimizer is the soft-threshold of y
    rng = np.random.default_rng(0)
    y = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    res = _dense_lasso(np.eye(y.size), y, lam=0.8, max_iters=2000,
                       tol=1e-10)
    identity_ok = res.converged and np.allclose(
        res.coefficients, _soft_threshold(y, 0.8), atol=1e-8
    )

    worst_gap = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        a = rng.standard_normal((16, 64)) + 1j * rng.standard_normal((16, 64))
        a /= np.linalg.norm(a, axis=0, keepdims=True)
        x0 = np.zeros(64, dtype=np.complex128)
        support = rng.choice(64, size=2, replace=False)
        x0[support] = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
        y = a @ x0
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = _dense_lasso(a, y, lam, max_iters=3000, tol=1e-11)
        gap = abs(
            _lasso_objective(a, y, res.coefficients, lam)
            - _lasso_objective(a, y, _ista_lasso(a, y, lam), lam)
        )
        worst_gap = max(worst_gap, gap) if res.converged else np.inf

    worst_dft = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.001, 0.03, size=48))
        values = rng.standard_normal(48) + 1j * rng.standard_normal(48)
        freqs = rng.uniform(-40.0, 40.0, size=17)
        got = nonuniform_dft(times, values, freqs)
        direct = np.array([
            np.sum(values * np.exp(-2j * np.pi * f * times)) for f in freqs
        ])
        worst_dft = max(worst_dft, float(np.max(np.abs(got - direct))))

    _criterion(
        8,
        "numerics: lasso on identity equals soft-thresholding; solver "
        "objective matches a proximal-gradient reference within 1e-6 on 50 "
        "instances; nonuniform transform matches the direct sum within 1e-9 "
        "on 50 instances",
        identity_ok and worst_gap <= 1e-6 and worst_dft <= 1e-9,
        f"identity {identity_ok}, worst objective gap {worst_gap:.2e}, "
        f"worst transform deviation {worst_dft:.2e}",
    )


# ---------------------------------------------------------------------------
# spectral analysis


def test_c9_stft_on_irregular_schedules(tmp_path):
    rep = run_experiment("stft-irregular", seed=0, out_dir=str(tmp_path))
    _criterion(
        9,
        "spectral: a 9-15 Hz line holds >= 80% band energy under regular "
        "sampling, < 50% through a naive FFT of the irregular series, and "
        ">= 80% again through the nonuniform transform",
        rep.passed,
        "\n".join(rep.lines),
    )
