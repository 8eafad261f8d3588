"""Discrete-event MAC simulation: the C/M/B mode machine and packet traffic.

A device idles in C (communication), hops to M (monostatic capture, transmit
separator enabled) whenever it starts transmitting anything — DATA or the ACK
it owes a peer — and drops back to C a short timer after the transmission
ends. Receiving a peer's packet from C opens a B (bistatic capture) episode
that closes when the reception completes. The separator must be engaged
exactly while in M: engaging it during a reception shreds the incoming
packet, which is the whole point of the state machine. This module alone
decides when the separator runs; ``isacsim.cancel`` is signal processing
only. A state is one of the strings in ``MAC_STATES``, the "C"/"M"/"B" of
the event log.

Channel access is a deliberately small CSMA abstraction: one shared medium,
a device defers while the medium is busy and retries after a random number
of 9 us backoff slots. Every link runs qpsk-1/2, so packet success is one
logistic function of link SNR (``success_probability``); a link without a
given SNR gets its line-of-sight power at ``TX_POWER_DBM`` over the
canceller's noise floor. Traffic comes in three fixed shapes, regular,
streaming and gaming; only the regular rate and the seed are settable.

The event loop is a heap of (time, sequence number) entries. It holds only
each device's next scheduled packet, pushed when the one before it comes
due, so the heap stays a few entries deep however long the run. An event
site hands the entry it pushes last on with ``heapq.heappushpop``, so an
entry due before everything in the heap is handled directly and never enters
it; a site that pushes nothing pops. A transmission pushes one completion
entry: the sender's TxComplete and, when it has a peer, the peer's
RxComplete fall at the same instant with nothing scheduled between them, so
they are handled together. The heap holds no timers: an M timer changes only
its own device, which keeps the (deadline, sequence number) key of its one
pending timer and expires it when the first event after that key touches it
or the run ends; log rows out of key order are sorted back. Each of the five
event sites (one per kind in ``EVENT_KINDS``) makes its transition inline
from its kind's fused row, built per run from ``_STEP_TABLE`` (read off
``step``): the state after, the action, whether to build a LogEntry (for the
log or a protocol violation) and whether the separator belongs on. It
handles only the actions its kind can produce: enabling the separator or
continuing a burst at TxStart, arming the timer at TxComplete, disabling the
separator at TimerExpiry, none at either reception.

Randomness is split into two independent streams — one for everything that
affects communications (backoff, loss draws), one for sensing-side noise —
so that a run with sensing disabled consumes the communications stream
identically and produces bit-identical delay/loss statistics. The
communications draws are decoded in plain Python from raw generator words
read in blocks (``_comms_draws``); a loss is decided on the raw word. A
run takes one loss draw per transmission and one backoff per deferral
whether sensing is on or off, and each draw depends only on the words
before it, so both read the same words in the same order. Streaming
schedules are decoded from raw words the same way (``generate_traffic``).
"""

import heapq
import itertools
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from . import cancel, channel
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


def _check_duration(duration):
    if not (np.isfinite(duration) and duration > 0):
        raise ValueError(f"duration must be positive and finite, "
                         f"got {duration!r}")


def generate_traffic(model, duration, seed=None):
    """Seeded packet times of one device in [0, duration), strictly
    increasing; empty when no packet falls before ``duration``, which must
    be positive and finite.

    regular: exact constant spacing at ``rate_hz``. streaming: burst anchors
    at ``STREAM_BURSTS_PER_S`` with jitter, 1-8 packets per burst a couple of
    milliseconds apart. gaming: short bursts separated by heavy-tailed
    lognormal pauses (gap coefficient of variation > 1).

    A streaming schedule is the one numpy's per-burst
    ``uniform(0, STREAM_JITTER_S)`` and ``integers(1, 9)`` would draw, decoded
    from raw PCG64 words in one ``random_raw`` call the way ``_comms_draws``
    reads them (the tests pin this against the scalar loop). Burst k's
    jitter is ``STREAM_JITTER_S`` times the top 53 bits of the next word over
    2**53. Its size is one plus the top 3 bits of the next 32-bit half-word:
    a range of 8 never rejects in Lemire's bounded draw. Even bursts take the
    low half of a fresh word and odd bursts the high half that word kept, so
    bursts 2j and 2j + 1 read words 3j, 3j + 1 and 3j + 2. Gaming draws stay
    scalar: ``lognormal`` is not decodable exactly from raw words.
    """
    _check_duration(duration)
    rng = np.random.default_rng(model.seed if seed is None else seed)
    if model.kind == "regular":
        n = int(np.floor(duration * model.rate_hz - 1e-9)) + 1
        return np.arange(n) / model.rate_hz
    if model.kind == "streaming":
        n_bursts = int(np.ceil(duration * STREAM_BURSTS_PER_S))
        words = rng.bit_generator.random_raw(3 * ((n_bursts + 1) // 2))
        jitter_words = words.reshape(-1, 3)[:, ::2].ravel()[:n_bursts]
        size_words = words[1::3]
        halves = np.column_stack((size_words & 0xFFFFFFFF,
                                  size_words >> 32)).ravel()[:n_bursts]
        anchors = (np.arange(n_bursts) / STREAM_BURSTS_PER_S
                   + STREAM_JITTER_S * ((jitter_words >> 11) * 2.0**-53))
        sizes = STREAM_BURST_LOW + (halves >> 29).astype(int)
        firsts = np.cumsum(sizes) - sizes
        index = np.arange(sizes.sum()) - np.repeat(firsts, sizes)
        times = np.repeat(anchors, sizes) + index * STREAM_INTRA_GAP_S
        return times[times < duration]
    # gaming
    times = []
    log_median = np.log(GAMING_MEDIAN_GAP_S)
    t = rng.lognormal(log_median, GAMING_GAP_SIGMA)
    while t < duration:
        size = int(rng.integers(1, GAMING_BURST_HIGH + 1))
        for i in range(size):
            tt = t + i * GAMING_INTRA_GAP_S
            if tt < duration:
                times.append(tt)
        t = times[-1] + rng.lognormal(log_median, GAMING_GAP_SIGMA)
    return np.asarray(times, dtype=float)


# ---------------------------------------------------------------------------
# scenario


@dataclass
class MacDevice:
    device_id: str
    pos: tuple = (0.0, 0.0, 0.0)
    traffic: TrafficModel = None
    peer_id: str = None


# words the communications stream takes from its bit generator at a time
_RAW_BLOCK = 1024


def _comms_draws(seed):
    """``(words, backoff)``: the raw words and the backoff draw of a run's
    communications stream ``np.random.default_rng([seed, 17])``.

    A loss draw is the top 53 bits of the next word; over 2**53 it is
    numpy's ``Generator.random()``, so ``word < p * 2**53`` decides exactly
    as ``random() < p``. Loss draws and ``backoff`` follow numpy's
    ``random()`` and ``integers(0, 16)`` on PCG64 call for call, in any
    interleaving (the tests pin this), without numpy's per-call overhead:
    the words come from the bit generator's ``random_raw`` in blocks of
    ``_RAW_BLOCK``. ``backoff`` is the top 4 bits of the next 32-bit
    half-word: Lemire's bounded draw never rejects for a range
    of 16, since (2**32 - 16) mod 16 = 0. PCG64 hands out the low half of a
    fresh word first and keeps the high half for the next 32-bit request;
    64-bit draws neither read nor clear the kept half. Words drawn past the
    last one used are dropped with the generator at the end of the run.
    """
    bitgen = np.random.default_rng([seed, 17]).bit_generator
    words = itertools.chain.from_iterable(
        iter(lambda: bitgen.random_raw(_RAW_BLOCK).tolist(), None))
    kept = None

    def backoff():
        nonlocal kept
        if kept is None:
            word = next(words)
            kept = word >> 32
            return (word & 0xFFFFFFFF) >> 28
        half, kept = kept, None
        return half >> 28

    return words, backoff


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


_NO_TIMER = float("inf")  # the deadline of a device with no pending M timer


class _DeviceCtx:
    """Per-run state of one device: ``(deadline, timer_seq)`` keys its
    pending M timer; ``link_*`` and ``success_words`` (the success
    probability times 2**53) describe its packets at the peer."""

    __slots__ = ("dev", "state", "separator_on", "deadline", "timer_seq",
                 "peer", "link_snr", "success_words")

    def __init__(self, dev):
        self.dev = dev
        self.state = "C"
        self.separator_on = False
        self.deadline = _NO_TIMER
        self.timer_seq = 0
        self.peer = None


# event kind -> state -> (state after, action) for every pair, read off
# ``step`` so the event loop never builds a default
_STEP_TABLE = {kind: {s: step(s, kind) for s in MAC_STATES}
               for kind in EVENT_KINDS}


def _materialize_csi(captures, geometry, cfg, rng):
    """CsiRecords in capture order, one channel call per (rx, tx) link."""
    values = [None] * len(captures)
    if geometry is not None and geometry.targets:
        links = {}
        for i, (_, _, rx, tx) in enumerate(captures):
            links.setdefault((rx, tx), []).append(i)
        for (rx, tx), idx in links.items():
            g = replace(geometry, tx_pos=tx.dev.pos, rx_pos=rx.dev.pos)
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
    device in the list (the caller's devices are not modified), and no
    device may name itself. Each device's schedule is drawn from
    ``(seed, device index)``, so a TrafficModel's own ``seed`` does not
    affect it. Paired runs that differ only in ``sensing_enabled``
    produce identical delay/loss numbers; ``force_separator`` models the
    incompatible always-on separator: a separator calibrated on fresh
    leakage is run over a clean remote packet 15 dB above the noise floor,
    and the SNR it costs is charged to every reception.

    The heap holds one pending packet per device (its next scheduled DATA
    packet, in schedule order) plus deferred retries, ACKs and one
    completion entry per transmission, which runs the sender's TxComplete
    and then the peer's RxComplete and loss draw; it holds no timers, whose
    expiries wait on their device. An event hands its last new entry on
    through ``heapq.heappushpop``: one due before everything in the heap is
    handled next without entering it. ``n_events`` counts the events
    handled: every packet that comes due (a deferral counts again when it
    retries), every TxComplete, every RxComplete and every armed M timer,
    superseded ones included, though a superseded timer costs no work. A
    device with no packet before ``duration`` sends nothing. ``duration``
    must be positive and finite, ``timer_s`` finite and non-negative.
    """
    _check_duration(duration)
    if not (np.isfinite(timer_s) and timer_s >= 0):
        raise ValueError(f"timer_s must be finite and non-negative, "
                         f"got {timer_s!r}")
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
        if peer == d.device_id:
            raise ValueError(f"device {peer!r} names itself as its peer")
        ctxs[d.device_id].peer = None if peer is None else ctxs[peer]

    words, draw_backoff = _comms_draws(seed)
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
        ctx.success_words = float(success_probability(ctx.link_snr)) * 2.0**53

    data_duration = packet_duration(DATA_SYMBOLS, cfg)
    ack_duration = packet_duration(ACK_SYMBOLS, cfg)

    heap = []
    push = heapq.heappush
    pushpop = heapq.heappushpop
    pop = heapq.heappop

    # each scheduled packet keeps the sequence number it would have with
    # every schedule pushed up front, its offset in the concatenated
    # schedules, so ties break as they would; dynamic entries number on
    # from there. Schedules yield ready-made heap entries whose payload names
    # the schedule by device index: no reference cycle holds a schedule.
    schedules = []
    n_scheduled = 0
    for i, d in enumerate(devices):
        model = d.traffic if d.traffic is not None else traffic
        if model is None:
            raise ValueError(f"device {d.device_id!r} has no traffic model")
        times = generate_traffic(
            model, duration,
            seed=np.random.default_rng([seed, i, 5]).integers(0, 2**32),
        ).tolist()
        payload = (ctxs[d.device_id], i, "DATA")
        packets = zip(times, itertools.count(n_scheduled),
                      itertools.repeat("pkt-sched"), itertools.repeat(payload))
        schedules.append(packets)
        first = next(packets, None)
        if first is not None:
            push(heap, first)
        n_scheduled += len(times)
    seq = itertools.count(n_scheduled)

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

    # each kind's fused row: state -> (state after, action, build a LogEntry,
    # separator belongs on)
    tx_start, tx_complete, rx_start, rx_complete, timer_expiry = (
        {s: (after, action, log or action == VIOLATION, after == "M")
         for s, (after, action) in _STEP_TABLE[kind].items()}
        for kind in EVENT_KINDS)

    def record(key, ctx, event_kind, before, after, action):
        # a row carries the (time, sequence number) key of its event: the
        # handled entry, or a timer's key
        row = (key, LogEntry(key[0], ctx.dev.device_id, event_kind, before,
                             after, action))
        if log:
            entries.append(row)
        if action == VIOLATION:
            violations.append(row)

    def expire(ctx, entry):
        # an M timer due by ``entry``'s time changes only its own device, so
        # it expires when the first event after its key touches the device
        nonlocal invariant_checks, separator_mismatches
        key = (ctx.deadline, ctx.timer_seq)
        if key > entry:
            return
        ctx.deadline = _NO_TIMER
        before = ctx.state
        after, action, rec, in_m = timer_expiry[before]
        ctx.state = after
        if action == DISABLE_SEPARATOR:
            ctx.separator_on = False
        if rec:
            record(key, ctx, "TimerExpiry", before, after, action)
        invariant_checks += 1
        if ctx.separator_on != in_m:
            separator_mismatches += 1

    # a site hands the entry it pushes last on; a site that pushes none pops
    entry = pop(heap) if heap else None
    while entry is not None:
        t, _, kind, payload = entry
        n_events += 1

        if kind == "tx-done":
            # the sender's TxComplete, then the peer's RxComplete: both fall
            # at t, so they share the entry's key
            tx_ctx, _, ptype = payload
            if sensing_enabled:
                if tx_ctx.deadline <= t:
                    expire(tx_ctx, entry)
                before = tx_ctx.state
                after, action, rec, in_m = tx_complete[before]
                tx_ctx.state = after
                if action == ARM_TIMER:
                    tx_ctx.deadline = t + timer_s
                    tx_ctx.timer_seq = next(seq)
                    n_events += 1
                if rec:
                    record(entry, tx_ctx, "TxComplete", before, after, action)
                invariant_checks += 1
                if tx_ctx.separator_on != in_m:
                    separator_mismatches += 1
            rx_ctx = tx_ctx.peer
            if rx_ctx is None:
                entry = pop(heap) if heap else None
                continue
            n_events += 1
            if sensing_enabled:
                if rx_ctx.deadline <= t:
                    expire(rx_ctx, entry)
                before = rx_ctx.state
                after, action, rec, in_m = rx_complete[before]
                rx_ctx.state = after
                if rec:
                    record(entry, rx_ctx, "RxComplete", before, after, action)
                invariant_checks += 1
                if rx_ctx.separator_on != in_m:
                    separator_mismatches += 1
            ok = next(words) >> 11 < tx_ctx.success_words
            if ptype == "DATA":
                successes.append(ok)
                rx_snrs.append(tx_ctx.link_snr)
                if ok:
                    entry = pushpop(heap, (t + SIFS_S, next(seq), "pkt-due",
                                           (rx_ctx, t + SIFS_S, "ACK")))
                    continue
            entry = pop(heap) if heap else None
            continue

        if kind == "pkt-sched":
            # schedules are strictly increasing: the device's next packet
            # cannot be due before this one
            ctx, i, ptype = payload
            following = next(schedules[i], None)
            if following is not None:
                push(heap, following)
            sched_t = t
        else:
            ctx, sched_t, ptype = payload
        if t < medium_free_at:
            entry = pushpop(heap, (medium_free_at + SLOT_S * draw_backoff(),
                                   next(seq), "pkt-due",
                                   (ctx, sched_t, ptype)))
            continue
        dur = data_duration if ptype == "DATA" else ack_duration
        medium_free_at = t + dur
        if ptype == "DATA":
            delays.append(t - sched_t)
        if sensing_enabled:
            if ctx.deadline <= t:
                expire(ctx, entry)
            before = ctx.state
            after, action, rec, in_m = tx_start[before]
            ctx.state = after
            if action == ENABLE_SEPARATOR:
                ctx.separator_on = True
                ctx.deadline = _NO_TIMER
            elif action == CONTINUE_BURST:
                # re-armed at this burst's TxComplete
                ctx.deadline = _NO_TIMER
            if rec:
                record(entry, ctx, "TxStart", before, after, action)
            invariant_checks += 1
            if ctx.separator_on != in_m:
                separator_mismatches += 1
            if collect_csi and in_m and len(captures) < max_csi:
                captures.append((t, "mono", ctx, ctx))
            rx_ctx = ctx.peer
            if rx_ctx is not None:
                if rx_ctx.deadline <= t:
                    expire(rx_ctx, entry)
                before = rx_ctx.state
                after, action, rec, in_m = rx_start[before]
                rx_ctx.state = after
                if rec:
                    record(entry, rx_ctx, "RxStart", before, after, action)
                invariant_checks += 1
                if rx_ctx.separator_on != in_m:
                    separator_mismatches += 1
                if (before == "C" and after == "B" and collect_csi
                        and len(captures) < max_csi):
                    captures.append((t, "bi", rx_ctx, ctx))
        # the payload names the sender and the packet type, all tx-done needs
        entry = pushpop(heap, (t + dur, next(seq), "tx-done", payload))

    # expiries still pending when the heap drains, in key order; a device
    # with none has the key (inf, n), above (inf,), so none expires
    for ctx in sorted(ctxs.values(), key=lambda c: (c.deadline, c.timer_seq)):
        expire(ctx, (_NO_TIMER,))
    # only an expiry can be recorded after a row with a later key
    rows = entries or violations
    if any(a[0] > b[0] for a, b in itertools.pairwise(rows)):
        entries.sort(key=lambda row: row[0])
        violations.sort(key=lambda row: row[0])
    entries = [e for _, e in entries]
    violations = [e for _, e in violations]

    # a run that sent no DATA packet has no delay, loss or SNR to report
    nan = float("nan")
    p50, p95 = (np.percentile(1e3 * np.asarray(delays), (50, 95)).tolist()
                if delays else (nan, nan))
    stats = {
        "n_data": len(successes),
        "delay_ms_p50": p50,
        "delay_ms_p95": p95,
        # one integer sum and one division: the bits of np.mean
        "loss_rate": (1.0 - sum(successes) / len(successes)
                      if successes else nan),
        "mean_rx_snr_db": float(np.mean(rx_snrs)) if rx_snrs else nan,
    }
    return ScenarioResult(entries,
                          _materialize_csi(captures, geometry, cfg, rng_sense),
                          stats, violations,
                          n_events=n_events,
                          invariant_checks=invariant_checks,
                          separator_mismatches=separator_mismatches,
                          separator_penalty_db=penalty_db)


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
    "ENABLE_SEPARATOR",
    "DISABLE_SEPARATOR",
    "ARM_TIMER",
    "CONTINUE_BURST",
    "BISTATIC_CAPTURE",
    "END_CAPTURE",
    "DEFER_BISTATIC",
    "VIOLATION",
]
