"""Discrete-event MAC simulation: the C/M/B mode machine and packet traffic.

A device idles in C (communication), hops to M (monostatic capture, transmit
separator enabled) whenever it starts transmitting anything — DATA or the ACK
it owes a peer — and drops back to C a short timer after the transmission
ends. Receiving a peer's packet from C opens a B (bistatic capture) episode
that closes when the reception completes. The separator must be engaged
exactly while in M: engaging it during a reception shreds the incoming
packet, which is the whole point of the state machine. A state is one of
the strings in ``MAC_STATES``, the same "C"/"M"/"B" that the event log and
``cancel.separator_pipeline`` use.

Channel access is a deliberately small CSMA abstraction: one shared medium,
a device defers while the medium is busy and retries after a random number
of 9 us backoff slots. Every link runs qpsk-1/2, so packet success is one
logistic function of link SNR (``success_probability``); a link without a
given SNR gets its line-of-sight power at ``TX_POWER_DBM`` over the
canceller's noise floor. Traffic comes in three fixed shapes, regular,
streaming and gaming; only the regular rate and the seed are settable.

Randomness is split into two independent streams — one for everything that
affects communications (backoff, loss draws), one for sensing-side noise —
so that a run with sensing disabled consumes the communications stream
identically and produces bit-identical delay/loss statistics.
"""

import heapq
import itertools
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import cancel, channel
from .estimate import TxSchedule
from .ofdm import RadioConfig, packet_duration
from .sigcore import db, from_db

MAC_STATES = ("C", "M", "B")
EVENT_KINDS = ("TxStart", "TxComplete", "RxStart", "RxComplete", "TimerExpiry")

# actions emitted by the transition table
ENABLE_SEPARATOR = "enable-separator"
DISABLE_SEPARATOR = "disable-separator"
ARM_TIMER = "arm-timer"
CONTINUE_BURST = "continue-burst"
BISTATIC_CAPTURE = "bistatic-capture"
END_CAPTURE = "end-capture"
DEFER_BISTATIC = "defer-bistatic"
VIOLATION = "protocol-violation"

# air-interface timing: short interframe space before an ACK, CSMA backoff
# slot, and DATA/ACK lengths in cyclic-prefixed training symbols
SIFS_S = 16e-6
SLOT_S = 9e-6
DATA_SYMBOLS = 20
ACK_SYMBOLS = 2
# transmit power that, against the canceller's noise floor, sets the link
# SNR when a run gives none
TX_POWER_DBM = 15.0

# streaming: burst anchors at a fixed rate with jitter, a few packets per
# burst a couple of milliseconds apart
STREAM_BURSTS_PER_S = 30.0
STREAM_BURST_LOW = 1
STREAM_BURST_HIGH = 8
STREAM_INTRA_GAP_S = 0.002
STREAM_JITTER_S = 0.003
# gaming: short bursts separated by lognormal pauses
GAMING_MEDIAN_GAP_S = 0.02
GAMING_GAP_SIGMA = 1.2
GAMING_BURST_HIGH = 3
GAMING_INTRA_GAP_S = 0.006


_TRANSITIONS = {
    ("C", "TxStart"): ("M", ENABLE_SEPARATOR),
    ("M", "TxStart"): ("M", CONTINUE_BURST),
    ("M", "TxComplete"): ("M", ARM_TIMER),
    ("M", "TimerExpiry"): ("C", DISABLE_SEPARATOR),
    ("C", "RxStart"): ("B", BISTATIC_CAPTURE),
    ("B", "RxComplete"): ("C", END_CAPTURE),
    # a reception that lands while the device is still in its own post-tx
    # window is handled for communications but produces no bistatic capture;
    # (C, RxComplete) is the tail of such a reception when the window closed
    # while it was still in the air
    ("M", "RxStart"): ("M", DEFER_BISTATIC),
    ("M", "RxComplete"): ("M", DEFER_BISTATIC),
    ("C", "RxComplete"): ("C", DEFER_BISTATIC),
}


def step(state, kind):
    """One deterministic transition of a state in ``MAC_STATES`` on an
    event kind in ``EVENT_KINDS``. Undefined pairs leave the state alone
    and report a protocol violation instead of raising; an unknown state or
    kind raises ValueError."""
    if state not in MAC_STATES:
        raise ValueError(f"unknown MAC state {state!r}")
    if kind not in EVENT_KINDS:
        raise ValueError(f"unknown MAC event kind {kind!r}")
    return _TRANSITIONS.get((state, kind), (state, VIOLATION))


def success_probability(snr_db):
    """Logistic qpsk-1/2 packet-success curve: midpoint 6 dB, width 1.5 dB."""
    return 1.0 / (1.0 + np.exp(-(snr_db - 6.0) / 1.5))


# ---------------------------------------------------------------------------
# traffic


@dataclass
class TrafficModel:
    """Seeded packet-arrival process of one of three shapes."""

    kind: str
    rate_hz: float = 40.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("regular", "streaming", "gaming"):
            raise ValueError(f"unknown traffic kind {self.kind!r}")
        if not (np.isfinite(self.rate_hz) and self.rate_hz > 0):
            raise ValueError(f"rate_hz must be positive and finite, "
                             f"got {self.rate_hz!r}")

    @classmethod
    def regular(cls, rate_hz=40.0, seed=0):
        return cls("regular", rate_hz=rate_hz, seed=seed)

    @classmethod
    def streaming(cls, seed=0):
        return cls("streaming", seed=seed)

    @classmethod
    def gaming(cls, seed=0):
        return cls("gaming", seed=seed)


def generate_traffic(model, duration, seed=None):
    """Seeded packet schedule for one device, starting at time 0.

    regular: exact constant spacing at ``rate_hz``. streaming: burst anchors
    at ``STREAM_BURSTS_PER_S`` with jitter, 1-8 packets per burst a couple of
    milliseconds apart. gaming: short bursts separated by heavy-tailed
    lognormal pauses (gap coefficient of variation > 1).
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    rng = np.random.default_rng(model.seed if seed is None else seed)
    times = []
    if model.kind == "regular":
        n = int(np.floor(duration * model.rate_hz - 1e-9)) + 1
        return TxSchedule(np.arange(n) / model.rate_hz)
    if model.kind == "streaming":
        n_bursts = int(np.ceil(duration * STREAM_BURSTS_PER_S))
        for k in range(n_bursts):
            anchor = (k / STREAM_BURSTS_PER_S
                      + rng.uniform(0.0, STREAM_JITTER_S))
            size = int(rng.integers(STREAM_BURST_LOW, STREAM_BURST_HIGH + 1))
            for i in range(size):
                t = anchor + i * STREAM_INTRA_GAP_S
                if t < duration:
                    times.append(t)
    else:  # gaming
        log_median = np.log(GAMING_MEDIAN_GAP_S)
        t = rng.lognormal(log_median, GAMING_GAP_SIGMA)
        while t < duration:
            size = int(rng.integers(1, GAMING_BURST_HIGH + 1))
            for i in range(size):
                tt = t + i * GAMING_INTRA_GAP_S
                if tt < duration:
                    times.append(tt)
            t = times[-1] + rng.lognormal(log_median, GAMING_GAP_SIGMA)
    return TxSchedule(np.asarray(times))


# ---------------------------------------------------------------------------
# scenario


@dataclass
class MacDevice:
    device_id: str
    pos: tuple = (0.0, 0.0, 0.0)
    traffic: TrafficModel = None
    peer_id: str = None


LogEntry = namedtuple("LogEntry", "time device event state_before state_after action")
CsiRecord = namedtuple("CsiRecord", "time kind device tx_device values")


@dataclass
class ScenarioResult:
    log: list
    csi_records: list
    stats: dict
    violations: list
    n_events: int = 0
    invariant_checks: int = 0
    separator_mismatches: int = 0
    separator_penalty_db: float = 0.0


class _DeviceCtx:
    """Per-run state of one device; ``link_*`` describe its packets at the peer."""

    __slots__ = ("dev", "state", "separator_on", "m_timer_deadline",
                 "peer", "link_snr", "link_success")

    def __init__(self, dev):
        self.dev = dev
        self.state = "C"
        self.separator_on = False
        self.m_timer_deadline = None
        self.peer = None


# (state, event kind) -> (state after, action) for every pair, read off
# ``step`` so the event loop never builds a default
_STEP_TABLE = {(s, kind): step(s, kind)
               for s in MAC_STATES for kind in EVENT_KINDS}


def _materialize_csi(captures, geometry, cfg, rng):
    """CsiRecords in capture order, one channel call per (rx, tx) link."""
    values = [None] * len(captures)
    if geometry is not None and geometry.targets:
        links = {}
        for i, (_, _, rx, tx) in enumerate(captures):
            links.setdefault((rx, tx), []).append(i)
        for (rx, tx), idx in links.items():
            g = replace(geometry, tx_pos=tx.dev.pos, rx_pos=rx.dev.pos,
                        include_los=rx is not tx)
            series = channel.synthesize_csi_series(
                g, cfg, np.array([captures[i][0] for i in idx]), snr_db=30.0,
                rng=rng)
            for i, v in zip(idx, series):
                values[i] = v
    return [CsiRecord(t, kind, rx.dev.device_id, tx.dev.device_id, v)
            for (t, kind, rx, tx), v in zip(captures, values)]


def run_scenario(devices, geometry, traffic, duration, seed=0, cfg=None,
                 timer_s=1e-3, link_snr_db=None, sensing_enabled=True,
                 force_separator=False, collect_csi=False, max_csi=256,
                 log=True):
    """Event-driven run of the full scenario.

    ``geometry`` may be None (no CSI materialization) or a
    channel.ScenarioGeometry used to synthesize actual CSI values when
    ``collect_csi`` is on; each link keeps its targets, power and array and
    takes its tx/rx positions from the devices. The event loop only notes when each
    of the first ``max_csi`` captures happened; after it, every (rx, tx)
    link's captures are synthesized in one ``synthesize_csi_series`` call,
    so their noise level is set relative to the strongest path over that
    link's series. ``traffic`` is the default TrafficModel for devices that
    don't carry their own; devices without a ``peer_id`` send to the next
    device in the list (the caller's devices are not modified). Each
    device's schedule is drawn from ``(seed, device index)``, so a
    TrafficModel's own ``seed`` does not affect it. Paired runs that differ
    only in ``sensing_enabled`` produce identical delay/loss numbers;
    ``force_separator`` models the incompatible always-on separator: a
    separator calibrated on fresh leakage is run over a clean remote packet
    15 dB above the noise floor, and the SNR it costs is charged to every
    reception.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if not devices:
        raise ValueError("need at least one device")
    ids = [d.device_id for d in devices]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate device ids")
    cfg = cfg or RadioConfig()

    ctxs = {d.device_id: _DeviceCtx(d) for d in devices}
    for i, d in enumerate(devices):
        peer = d.peer_id
        if peer is None and len(devices) > 1:
            peer = ids[(i + 1) % len(ids)]
        if peer is not None and peer not in ctxs:
            raise ValueError(f"unknown peer {peer!r}")
        ctxs[d.device_id].peer = None if peer is None else ctxs[peer]

    rng_comms = np.random.default_rng([seed, 17])
    rng_sense = np.random.default_rng([seed, 29])

    penalty_db = 0.0
    if force_separator:
        clean, separated = cancel.forced_separator_harm(
            cfg, np.random.default_rng([seed, 91]), 15.0)
        penalty_db = float(clean - separated)

    # positions and the penalty are fixed for the run
    for ctx in ctxs.values():
        if ctx.peer is None:
            continue
        snr = link_snr_db
        if snr is None:
            d = float(np.linalg.norm(np.asarray(ctx.dev.pos, dtype=float)
                                     - np.asarray(ctx.peer.dev.pos, dtype=float)))
            amp = channel.los_gain(max(d, 0.1), cfg,
                                   tx_power=from_db(TX_POWER_DBM))
            snr = db(abs(amp) ** 2) - cancel.DEFAULT_NOISE_FLOOR_DBM
        ctx.link_snr = float(snr) - penalty_db
        ctx.link_success = success_probability(ctx.link_snr)

    data_duration = packet_duration(DATA_SYMBOLS, cfg)
    ack_duration = packet_duration(ACK_SYMBOLS, cfg)

    heap = []
    seq = itertools.count()
    push = heapq.heappush
    pop = heapq.heappop

    for i, d in enumerate(devices):
        model = d.traffic if d.traffic is not None else traffic
        if model is None:
            raise ValueError(f"device {d.device_id!r} has no traffic model")
        sched = generate_traffic(
            model, duration,
            seed=np.random.default_rng([seed, i, 5]).integers(0, 2**32),
        )
        ctx = ctxs[d.device_id]
        for t in sched.times:
            t = float(t)
            push(heap, (t, next(seq), "pkt-due", (ctx, t, "DATA")))

    entries = []
    violations = []
    captures = []
    delays = []
    successes = []
    rx_snrs = []
    medium_free_at = 0.0
    n_events = 0
    invariant_checks = 0
    separator_mismatches = 0

    def apply_step(t, ctx, event_kind):
        nonlocal separator_mismatches, invariant_checks
        before = ctx.state
        after, action = _STEP_TABLE[before, event_kind]
        ctx.state = after
        if action == ENABLE_SEPARATOR or action == DISABLE_SEPARATOR:
            ctx.separator_on = action == ENABLE_SEPARATOR
            ctx.m_timer_deadline = None
        elif action == CONTINUE_BURST:
            ctx.m_timer_deadline = None  # re-armed at this burst's TxComplete
        elif action == ARM_TIMER:
            deadline = ctx.m_timer_deadline = t + timer_s
            push(heap, (deadline, next(seq), "timer", (ctx, deadline)))
        elif action == VIOLATION:
            violations.append(LogEntry(t, ctx.dev.device_id, event_kind,
                                       before, after, action))
        if log:
            entries.append(LogEntry(t, ctx.dev.device_id, event_kind, before,
                                    after, action))
        invariant_checks += 1
        if ctx.separator_on != (after == "M"):
            separator_mismatches += 1

    while heap:
        t, _, kind, payload = pop(heap)
        n_events += 1

        if kind == "pkt-due":
            ctx, sched_t, ptype = payload
            if t < medium_free_at:
                backoff = SLOT_S * int(rng_comms.integers(0, 16))
                push(heap, (medium_free_at + backoff, next(seq), kind, payload))
                continue
            dur = data_duration if ptype == "DATA" else ack_duration
            medium_free_at = t + dur
            if sensing_enabled:
                apply_step(t, ctx, "TxStart")
                if (collect_csi and ctx.state == "M"
                        and len(captures) < max_csi):
                    captures.append((t, "mono", ctx, ctx))
            if ptype == "DATA":
                delays.append(t - sched_t)
            push(heap, (t + dur, next(seq), "tx-complete", ctx))
            rx_ctx = ctx.peer
            if rx_ctx is not None:
                if sensing_enabled:
                    was_c = rx_ctx.state == "C"
                    apply_step(t, rx_ctx, "RxStart")
                    if (was_c and collect_csi and rx_ctx.state == "B"
                            and len(captures) < max_csi):
                        captures.append((t, "bi", rx_ctx, ctx))
                push(heap, (t + dur, next(seq), "rx-complete", (ctx, ptype)))

        elif kind == "tx-complete":
            if sensing_enabled:
                apply_step(t, payload, "TxComplete")

        elif kind == "timer":
            ctx, deadline = payload
            if ctx.m_timer_deadline != deadline:
                continue  # superseded by a later transmission
            if sensing_enabled:
                apply_step(t, ctx, "TimerExpiry")

        elif kind == "rx-complete":
            tx_ctx, ptype = payload
            rx_ctx = tx_ctx.peer
            if sensing_enabled:
                apply_step(t, rx_ctx, "RxComplete")
            ok = rng_comms.random() < tx_ctx.link_success
            if ptype == "DATA":
                successes.append(ok)
                rx_snrs.append(tx_ctx.link_snr)
                if ok:
                    push(heap, (t + SIFS_S, next(seq), "pkt-due",
                                (rx_ctx, t + SIFS_S, "ACK")))

    delays_ms = 1e3 * np.asarray(delays) if delays else np.zeros(1)
    stats = {
        "n_data": len(successes),
        "delay_ms_p50": float(np.percentile(delays_ms, 50)),
        "delay_ms_p95": float(np.percentile(delays_ms, 95)),
        "loss_rate": float(1.0 - np.mean(successes)) if successes else 0.0,
        "mean_rx_snr_db": float(np.mean(rx_snrs)) if rx_snrs else float("nan"),
    }
    return ScenarioResult(entries,
                          _materialize_csi(captures, geometry, cfg, rng_sense),
                          stats, violations,
                          n_events=n_events,
                          invariant_checks=invariant_checks,
                          separator_mismatches=separator_mismatches,
                          separator_penalty_db=penalty_db)


def m_episodes(entries):
    """(enter_time, exit_time, last_tx_complete) for every M dwell in a log."""
    episodes = []
    current = {}
    last_txc = {}
    for e in entries:
        if e.action == ENABLE_SEPARATOR:
            current[e.device] = e.time
            last_txc[e.device] = None
        elif e.event == "TxComplete" and e.device in current:
            last_txc[e.device] = e.time
        elif e.action == DISABLE_SEPARATOR and e.device in current:
            episodes.append((current.pop(e.device), e.time,
                             last_txc.get(e.device)))
    return episodes


__all__ = [
    "MAC_STATES",
    "EVENT_KINDS",
    "step",
    "success_probability",
    "TrafficModel",
    "generate_traffic",
    "MacDevice",
    "LogEntry",
    "CsiRecord",
    "ScenarioResult",
    "run_scenario",
    "m_episodes",
    "ENABLE_SEPARATOR",
    "DISABLE_SEPARATOR",
    "ARM_TIMER",
    "CONTINUE_BURST",
    "BISTATIC_CAPTURE",
    "END_CAPTURE",
    "DEFER_BISTATIC",
    "VIOLATION",
]
