"""Transmit self-interference separation for a simultaneously listening radio.

A device that keeps its receiver open while transmitting sees its own signal
leak in tens of dB above any echo of interest. The separator removes it in
three stages: a fixed front-end isolation (circulator or hybrid coupler), a
single complex analog tap fitted to the dominant internal coupling, and a
short adaptive FIR canceller trained on the known preamble. Calibration
fits a reception built from the coupling and noise alone, as with the
antenna port on a dummy load, so nothing from the air contaminates it. The
frozen taps are then used live; when they run is ``isacsim.mac``'s call.

Every waveform is a plain complex array at ``cfg.sample_rate``. The stages
are linear: the front end scales the coupling, and the analog and digital
stages each add a correction that depends only on the transmit reference.
Per-stage leakage figures therefore come from running the same stages on
the coupling alone; no component streams are kept.
"""

import functools
from dataclasses import dataclass

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


# ---------------------------------------------------------------------------
# the leakage path


@dataclass
class LeakageChannel:
    """Internal tx->rx coupling as a short FIR.

    The coupling is the hardware path alone, so it is the same at the
    antenna and at the dummy load; that is what lets a dummy-load
    calibration transfer to live use. A coupling with no energy leaves
    nothing to fit, so all-zero taps are rejected.
    """

    taps: np.ndarray

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=np.complex128)
        if self.taps.ndim != 1 or self.taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")
        if not np.any(self.taps):
            raise ValueError("taps must not all be zero")


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
    """Fitted separator settings for one device, as ``calibrate`` returns them."""

    analog_tap: complex
    analog_delay: int
    digital_taps: np.ndarray
    log: list


def _delayed(samples, delay):
    out = np.zeros_like(samples)
    if delay == 0:
        out[:] = samples
    elif delay < len(samples):
        out[delay:] = samples[: len(samples) - delay]
    return out


# ---------------------------------------------------------------------------
# stages


def first_stage(leakage):
    """Front-end isolation: the coupling scaled by ``-DEFAULT_FIRST_STAGE_DB``.

    A circulator and a hybrid coupler give the same isolation figure.
    Over-the-air signals are not attenuated, so this stage takes the
    internal coupling alone; echoes and noise are added behind it.
    """
    return leakage * np.sqrt(from_db(-DEFAULT_FIRST_STAGE_DB))


def analog_cancel(rx, tx_ref, state):
    """``rx`` plus the single analog correction ``analog_tap * tx_ref`` (delayed)."""
    return rx + state.analog_tap * _delayed(np.asarray(tx_ref), state.analog_delay)


def digital_cancel(rx, tx_ref, state):
    """``rx`` minus the frozen-FIR estimate of the remaining coupling."""
    return rx - kernels.fir_apply(np.asarray(tx_ref), state.digital_taps)


@functools.lru_cache(maxsize=8)
def _alignments_of(ref, n_taps):
    """The analog scan's fixed half for the complex reference bytes ``ref``.

    Returns, read only, the delays below ``n_taps`` whose delayed reference
    has energy, the conjugated delayed references as rows (so one product
    with a reception gives every delay's correlation) and their energies.
    """
    ref = np.frombuffer(ref, dtype=np.complex128)
    shifted = np.array([_delayed(ref, delay) for delay in range(n_taps)])
    energy = np.array([np.vdot(row, row).real for row in shifted])
    delays = np.flatnonzero(energy)
    rows = np.conj(shifted[delays])
    energy = energy[delays]
    for arr in (delays, rows, energy):
        arr.flags.writeable = False
    return delays, rows, energy


def calibrate(tx_ref, leak, rng):
    """Fit the analog tap and digital FIR to the coupling on a dummy load.

    The reception is the isolated coupling plus ``DEFAULT_NOISE_FLOOR_DBM``
    noise from ``rng``, nothing from the air. The analog tap is the
    least-squares single tap at the alignment that leaves the least
    residual: with c_d the reception's correlation with the reference
    delayed by d < ``DEFAULT_DIGITAL_TAPS`` samples and e_d that delayed
    reference's energy, the scan takes the d that minimises
    ``|rx|^2 - |c_d|^2 / e_d`` (the first on a tie; a delay with no energy
    is skipped). The correlations come from one product with the
    reference's delayed rows, built once per reference; the chosen tap and
    its residual are then computed from the delayed reference itself. The
    ``DEFAULT_DIGITAL_TAPS``-tap FIR is fitted to the post-analog residual
    by ``NLMS_PASSES`` NLMS sweeps. The log gets one (0.0, stage,
    residual_db re the raw coupling) row per stage; ``perfbench/tracing.py``
    reads the rows by position. An empty, non-finite or all-zero
    ``tx_ref`` leaves nothing to fit and raises ``ValueError``.
    """
    ref = np.asarray(tx_ref)
    if ref.ndim != 1 or ref.size == 0:
        raise ValueError("tx_ref must be a non-empty 1-D sequence")
    if not np.all(np.isfinite(ref)):
        raise ValueError("tx_ref must be finite")
    if not np.any(ref):
        raise ValueError("tx_ref must not all be zero")
    n_taps = DEFAULT_DIGITAL_TAPS
    if n_taps < len(leak.taps):
        raise ValueError("digital FIR must be at least as long as the coupling")

    leakage = kernels.fir_apply(ref, leak.taps)
    noise = complex_noise(len(ref), DEFAULT_NOISE_FLOOR_DBM, rng)
    raw_power = avg_power(leakage)
    rx = first_stage(leakage) + noise
    log = [(0.0, "first_stage", db(avg_power(rx) / raw_power))]

    # single complex degree of freedom, alignment scanned over the FIR span
    delays, rows, energy = _alignments_of(
        np.ascontiguousarray(ref, dtype=np.complex128).tobytes(), n_taps)
    corr = rows @ rx
    left = np.vdot(rx, rx).real - (corr.real ** 2 + corr.imag ** 2) / energy
    analog_delay = int(delays[np.argmin(left)])
    shifted = _delayed(ref, analog_delay)
    analog_tap = -np.vdot(shifted, rx) / np.vdot(shifted, shifted).real
    post_analog = rx + analog_tap * shifted
    log.append((0.0, "analog", db(avg_power(post_analog) / raw_power)))

    digital_taps = kernels.nlms_fir(
        ref, post_analog, n_taps, mu=NLMS_STEP, n_passes=NLMS_PASSES,
    )
    post_digital = post_analog - kernels.fir_apply(ref, digital_taps)
    log.append((0.0, "digital", db(avg_power(post_digital) / raw_power)))

    return CancellatorState(analog_tap, analog_delay, digital_taps, log)


def separator_pipeline(rx, tx_ref, state):
    """The analog stage, then the digital stage, on the receive-port array."""
    return digital_cancel(analog_cancel(rx, tx_ref, state), tx_ref, state)


# ---------------------------------------------------------------------------
# harm measurement


def template_snr_db(template, received):
    """Effective SNR of a known waveform inside a received array.

    Fits a single complex gain of the template by least squares; everything
    the scaled template fails to explain counts as noise-plus-distortion.
    A template that is empty or all zero over the samples it shares with
    ``received`` leaves no gain to fit and raises ``ValueError``.
    """
    p = np.asarray(template)
    y = np.asarray(received)
    n = min(len(p), len(y))
    p, y = p[:n], y[:n]
    if not np.any(p):
        raise ValueError("template must not be empty or all zero over the "
                         "received samples")
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
    separated = separator_pipeline(clean, ref, state)
    return template_snr_db(ref, clean), template_snr_db(ref, separated)


def calibrated_separator(cfg, rng):
    """A training burst, fresh leakage, and a separator fitted to it.

    The burst runs at the default transmit power; the separator is fitted on
    the dummy load at the default noise floor against ``make_leakage(rng)``,
    drawn before the calibration noise. Returns (tx, leak, state).
    """
    tx = training_burst(cfg, n_extra=8)
    tx = tx * np.sqrt(from_db(DEFAULT_TX_POWER_DBM) / avg_power(tx))
    leak = make_leakage(rng)
    state = calibrate(tx, leak, rng)
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
]
