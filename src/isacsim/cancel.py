"""Transmit self-interference separation for a simultaneously listening radio.

A device that keeps its receiver open while transmitting sees its own signal
leak in tens of dB above any echo of interest. The separator removes it in
three stages: a fixed front-end isolation (circulator or hybrid coupler), a
single complex analog tap fitted to the dominant internal coupling, and a
short adaptive FIR canceller trained on the known preamble. Calibration runs
with the antenna port switched to a dummy load so nothing from the air
contaminates the fit; the frozen taps are then used live.

Every waveform is a plain complex array at ``cfg.sample_rate``. The stages
are linear: the front end scales the coupling, and the analog and digital
stages each add a correction that depends only on the transmit reference.
Per-stage leakage figures therefore come from running the same stages on
the coupling alone; no component streams are kept.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels
from .ofdm import training_burst
from .sigcore import avg_power, complex_noise, db, from_db

# default power budget (dB figures are relative unless suffixed _dbm)
DEFAULT_TX_POWER_DBM = 5.0
DEFAULT_LEAKAGE_DB = -13.0
DEFAULT_NOISE_FLOOR_DBM = -85.0
DEFAULT_FIRST_STAGE_DB = 12.0
DEFAULT_SECONDARY_FRACTION = 1e-4
DEFAULT_DIGITAL_TAPS = 16
# normalized-LMS step and sweep count of every digital FIR fit
NLMS_STEP = 0.1
NLMS_PASSES = 4

PORT_ANTENNA = "antenna"
PORT_DUMMY_LOAD = "dummy_load"


class ProtocolViolation(RuntimeError):
    """An operation was invoked in a state its protocol forbids."""


# ---------------------------------------------------------------------------
# the leakage path


@dataclass
class LeakageChannel:
    """Internal tx->rx coupling as a short FIR.

    The coupling is the hardware path alone, so it is the same at the
    antenna and at the dummy load; that is what lets a dummy-load
    calibration transfer to live use.
    """

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.complex128)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")


def make_leakage(rng):
    """Random 3-tap coupling FIR: a dominant tap at delay 1 between weak ones.

    Total coupling energy is ``DEFAULT_LEAKAGE_DB`` relative to the transmit
    signal; ``DEFAULT_SECONDARY_FRACTION`` of it lies outside the dominant
    tap (this is what the single analog tap cannot reach).
    """
    total = from_db(DEFAULT_LEAKAGE_DB)
    main = np.sqrt(total * (1.0 - DEFAULT_SECONDARY_FRACTION)) * np.exp(
        2j * np.pi * rng.uniform()
    )
    weak = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    weak *= np.sqrt(total * DEFAULT_SECONDARY_FRACTION
                    / np.sum(np.abs(weak) ** 2))
    return LeakageChannel([weak[0], main, weak[1]])


# ---------------------------------------------------------------------------
# separator state


@dataclass
class CancellatorState:
    """Fitted separator settings for one device."""

    analog_tap: complex = 0.0
    analog_delay: int = 0
    digital_taps: np.ndarray = None
    calibrated: bool = False
    port: str = PORT_ANTENNA
    log: list = field(default_factory=list)

    def __post_init__(self):
        if self.digital_taps is None:
            self.digital_taps = np.zeros(DEFAULT_DIGITAL_TAPS, dtype=np.complex128)
        self.digital_taps = np.asarray(self.digital_taps, dtype=np.complex128)
        if self.port not in (PORT_ANTENNA, PORT_DUMMY_LOAD):
            raise ValueError("unknown port")

    def to_dummy_load(self):
        return replace(self, port=PORT_DUMMY_LOAD)

    def to_antenna(self):
        return replace(self, port=PORT_ANTENNA)


def _delayed(samples, delay):
    out = np.zeros_like(samples)
    if delay == 0:
        out[:] = samples
    elif delay < len(samples):
        out[delay:] = samples[: len(samples) - delay]
    return out


# ---------------------------------------------------------------------------
# stages


def first_stage(leakage, isolation_db=DEFAULT_FIRST_STAGE_DB):
    """Front-end isolation: the coupling array scaled by ``-isolation_db``.

    A circulator and a hybrid coupler give the same isolation figure.
    Over-the-air signals are not attenuated, so this stage takes the
    internal coupling alone; echoes and noise are added behind it.
    """
    return leakage * np.sqrt(from_db(-isolation_db))


def analog_cancel(rx, tx_ref, state):
    """``rx`` plus the single analog correction ``analog_tap * tx_ref`` (delayed)."""
    return rx + state.analog_tap * _delayed(np.asarray(tx_ref), state.analog_delay)


def digital_cancel(rx, tx_ref, state, adapt=False, adapt_span=None):
    """``rx`` minus the adaptive-FIR estimate of the remaining coupling.

    The correction spans the whole reference; when ``adapt`` is set, taps are
    first re-adapted by normalized LMS, starting from the state's taps and
    using only the first ``adapt_span`` samples (the preamble) of ``rx``,
    never the payload. The re-adapted taps serve this call only; ``state``
    is left untouched.
    """
    if not state.calibrated:
        raise ProtocolViolation("digital cancellation before calibration")
    ref = np.asarray(tx_ref)
    taps = state.digital_taps
    if adapt:
        span = len(ref) if adapt_span is None else min(adapt_span, len(ref))
        taps = kernels.nlms_fir(
            ref[:span], rx[:span], len(taps), mu=NLMS_STEP,
            n_passes=NLMS_PASSES, taps_init=taps,
        )
    return rx - kernels.fir_apply(ref, taps)


def calibrate(state, tx_ref, leak, noise_floor_dbm=DEFAULT_NOISE_FLOOR_DBM,
              rng=None, isolation_db=DEFAULT_FIRST_STAGE_DB,
              n_passes=NLMS_PASSES):
    """Fit the analog tap and digital FIR against the dummy-load coupling.

    The port must already be on the dummy load so the fit sees coupling and
    noise only. The analog tap is the least-squares single-tap optimum over
    a scanned alignment; the digital FIR is then adapted on the post-analog
    residual by ``n_passes`` sweeps of normalized LMS. Returns a new,
    calibrated state whose log gains (time, stage, residual_db, port) rows:
    the residual relative to the raw coupling power after each stage. The
    time is always 0.0; the layout stays because ``perfbench/tracing.py``
    reads the stage and residual by position.
    """
    if state.port != PORT_DUMMY_LOAD:
        raise ProtocolViolation("calibration requires the dummy-load port")
    rng = np.random.default_rng(rng)
    ref = np.asarray(tx_ref)
    if len(state.digital_taps) < len(leak.taps):
        raise ValueError("digital FIR must be at least as long as the coupling")

    leakage = kernels.fir_apply(ref, leak.taps)
    noise = np.zeros_like(leakage)
    if noise_floor_dbm is not None:
        noise = complex_noise(len(ref), noise_floor_dbm, rng)
    raw_power = avg_power(leakage)
    if raw_power == 0.0:
        # nothing to cancel; zero out the corrections
        cleared = replace(
            state,
            analog_tap=0.0,
            analog_delay=0,
            digital_taps=np.zeros_like(state.digital_taps),
            calibrated=True,
        )
        cleared.log = state.log + [(0.0, "digital", float("-inf"),
                                    PORT_DUMMY_LOAD)]
        return cleared

    rx = first_stage(leakage, isolation_db=isolation_db) + noise
    log = list(state.log)
    log.append((0.0, "first_stage", db(avg_power(rx) / raw_power),
                PORT_DUMMY_LOAD))

    # single complex degree of freedom, alignment scanned over the FIR span
    best = None
    for delay in range(len(state.digital_taps)):
        shifted = _delayed(ref, delay)
        denom = np.vdot(shifted, shifted).real
        if denom == 0.0:
            continue
        tap = -np.vdot(shifted, rx) / denom
        residual = rx + tap * shifted
        p = avg_power(residual)
        if best is None or p < best[0]:
            best = (p, delay, tap, residual)
    _, analog_delay, analog_tap, post_analog = best
    log.append((0.0, "analog", db(avg_power(post_analog) / raw_power),
                PORT_DUMMY_LOAD))

    digital_taps = kernels.nlms_fir(
        ref, post_analog, len(state.digital_taps), mu=NLMS_STEP,
        n_passes=n_passes,
    )
    post_digital = post_analog - kernels.fir_apply(ref, digital_taps)
    log.append((0.0, "digital", db(avg_power(post_digital) / raw_power),
                PORT_DUMMY_LOAD))

    return replace(
        state,
        analog_tap=analog_tap,
        analog_delay=analog_delay,
        digital_taps=digital_taps,
        calibrated=True,
        log=log,
    )


def separator_pipeline(rx, state, mode, tx_ref=None, force=False):
    """Route the receive-port array behind the front end by MAC state.

    Only the monitoring state ("M") cancels: the analog stage, then the
    digital stage. The communicating ("C") and blocked ("B") states return
    ``rx`` itself because filtering someone else's packet would wreck it.
    Forcing cancellation in C/B is the protocol violation that experiment
    reproduces deliberately.
    """
    if mode in ("C", "B"):
        if force:
            raise ProtocolViolation(f"cancellation forced in {mode}-state")
        return rx
    if mode != "M":
        raise ValueError(f"unknown MAC state {mode!r}")
    if not state.calibrated:
        raise ProtocolViolation("separator used before calibration")
    if tx_ref is None:
        raise ValueError("M-state separation needs the transmit reference")
    return digital_cancel(analog_cancel(rx, tx_ref, state), tx_ref, state)


# ---------------------------------------------------------------------------
# harm measurement


def template_snr_db(template, received):
    """Effective SNR of a known waveform inside a received array.

    Fits a single complex gain of the template by least squares; everything
    the scaled template fails to explain counts as noise-plus-distortion.
    """
    p = np.asarray(template)
    y = np.asarray(received)
    n = min(len(p), len(y))
    p, y = p[:n], y[:n]
    gain = np.vdot(p, y) / np.vdot(p, p).real
    err = y - gain * p
    denom = avg_power(err)
    if denom == 0.0:
        return float("inf")
    return db(np.abs(gain) ** 2 * avg_power(p) / denom)


def measure_separator_harm(template, state, remote_gain, noise_floor_dbm, rng):
    """SNR cost of running the separator over someone else's packet.

    The remote packet shares the standard preamble, so the frozen corrections
    (built from the local transmit reference) land right on top of it; the
    front-end isolation is not involved because it only touches the internal
    coupling. Returns (clean_snr_db, separated_snr_db).
    """
    ref = np.asarray(template)
    noise = complex_noise(len(ref), noise_floor_dbm, rng)
    clean = remote_gain * ref + noise
    correction = state.analog_tap * _delayed(ref, state.analog_delay)
    correction -= kernels.fir_apply(ref, state.digital_taps)
    separated = clean + correction
    return (
        template_snr_db(ref, clean),
        template_snr_db(ref, separated),
    )


def calibrated_separator(cfg, rng):
    """A training burst, fresh leakage, and a separator fitted to it.

    The burst runs at the default transmit power; the separator is fitted on
    the dummy load at the default noise floor against ``make_leakage(rng)``,
    drawn before the calibration noise, and handed back switched to the
    antenna. Returns (tx, leak, state).
    """
    tx = training_burst(cfg, n_extra=8)
    tx = tx * np.sqrt(from_db(DEFAULT_TX_POWER_DBM) / avg_power(tx))
    leak = make_leakage(rng)
    state = calibrate(CancellatorState().to_dummy_load(), tx, leak,
                      rng=rng).to_antenna()
    return tx, leak, state


def forced_separator_harm(cfg, rng, clean_snr_db=15.0):
    """Calibrate a separator on fresh leakage, then measure its harm.

    ``calibrated_separator`` fits the separator; a remote copy of its
    training burst ``clean_snr_db`` above the default noise floor then
    passes through the frozen corrections. Returns (clean_snr_db,
    separated_snr_db).
    """
    tx, _, state = calibrated_separator(cfg, rng)
    remote_gain = np.sqrt(from_db(DEFAULT_NOISE_FLOOR_DBM)
                          * from_db(clean_snr_db) / avg_power(tx))
    return measure_separator_harm(tx, state, remote_gain,
                                  DEFAULT_NOISE_FLOOR_DBM, rng)


__all__ = [
    "ProtocolViolation",
    "LeakageChannel",
    "make_leakage",
    "CancellatorState",
    "first_stage",
    "analog_cancel",
    "digital_cancel",
    "calibrate",
    "separator_pipeline",
    "template_snr_db",
    "measure_separator_harm",
    "calibrated_separator",
    "forced_separator_harm",
    "DEFAULT_TX_POWER_DBM",
    "DEFAULT_LEAKAGE_DB",
    "DEFAULT_NOISE_FLOOR_DBM",
    "DEFAULT_FIRST_STAGE_DB",
    "PORT_ANTENNA",
    "PORT_DUMMY_LOAD",
]
