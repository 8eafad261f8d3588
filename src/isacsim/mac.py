"""Discrete-event MAC simulation: the C/M/B mode machine and packet traffic.

A device idles in C (communication), hops to M (monostatic capture, transmit
separator enabled) whenever it starts transmitting anything — DATA or the ACK
it owes a peer — and drops back to C ``M_TIMER_S`` after the transmission
ends. Receiving a peer's packet from C opens a B (bistatic capture) episode
that closes when the reception completes. The separator must be engaged
exactly while in M: engaging it during a reception shreds the incoming
packet, which is the whole point of the state machine. This module alone
decides when the separator runs; ``isacsim.cancel`` is signal processing
only. A state is one of the strings in ``MAC_STATES``, the "C"/"M"/"B" of
the event log.

Channel access is a deliberately small CSMA abstraction: one shared medium,
a device defers while the medium is busy and retries after a random number
of ``SLOT_S`` backoff slots; an ACK follows its DATA by ``SIFS_S``. Every
link runs qpsk-1/2, so packet success is one logistic function of link SNR
(``success_probability``); a link without a given SNR gets its
line-of-sight power at ``TX_POWER_DBM`` over the canceller's noise floor.
A run notes at most ``MAX_CSI`` CSI captures. Traffic comes in three fixed
shapes, regular, streaming and gaming; only the regular rate and the seed
are settable.

The event loop is a heap of (time, sequence number) entries. It holds only
each device's next scheduled packet, pushed when the one before it comes
due, so the heap stays a few entries deep however long the run. An event
site hands the entry it pushes last on with ``heapq.heappushpop``, so an
entry due before everything in the heap is handled directly and never enters
it; a site that pushes nothing pops. A transmission pushes one completion
entry: the sender's TxComplete and, when it has a peer, the peer's
RxComplete fall at the same instant with nothing scheduled between them, so
they are handled together. A completion goes first at its instant: a packet
due as the medium frees starts after the completion that frees it, as
CSMA's idle-medium rule implies. The heap holds no timers, and the loop
keeps no sensing state, which the comms half never reads. With sensing on,
it records each transmission's start key, end time and sender, and each
tx-done reserves the sequence number of the M timer its sender may arm, so
ties break as with timers on the heap. Every state, capture, log row and
count follows from that trace in one numpy pass (``_pass``) that follows
the protocol's table; ``step`` is that table's specification, and the tests
hold the logged rows to it.

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

# air-interface timing: interframe space before an ACK, CSMA backoff slot,
# M window after a transmission, DATA/ACK lengths in training symbols
SIFS_S = 16e-6
SLOT_S = 9e-6
M_TIMER_S = 1e-3
DATA_SYMBOLS = 20
ACK_SYMBOLS = 2
# transmit power that, against the canceller's noise floor, sets the link
# SNR when a run gives none; CSI captures a run notes at most
TX_POWER_DBM = 15.0
MAX_CSI = 256

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
    """Packet-arrival process of one of three shapes. ``seed`` seeds only
    ``generate_traffic`` calls made without one: ``run_scenario`` draws each
    device's schedule from the run's ``(seed, device index)``."""

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


class _DeviceCtx:
    """Per-run state of one device: ``index`` is its place in the run's
    device list; ``link_snr`` and ``success_words`` (the success probability
    times 2**53) describe its packets at the peer."""

    __slots__ = ("dev", "index", "peer", "link_snr", "success_words")

    def __init__(self, dev, index):
        self.dev = dev
        self.index = index
        self.peer = None


def _pass(trace, ctxs, cap, log):
    """``(log rows, captures, invariant checks)`` of a run's ``trace``, at
    most ``cap`` captures, rows only with ``log``.

    Every TxStart puts its sender in M, separator on, and clears its timer,
    and every TxComplete arms one. A device is in M until that timer
    expires and in B only while it receives from C, so no transition is a
    violation or a mismatch. A timer expires unless its sender's next
    TxStart comes first; a RxStart is a bistatic capture unless the
    receiver's last transmission left a timer pending past it, and a
    deferred reception ends in C if that timer lapsed in the air. Keys
    compare by time, then completions first, then by sequence number; a
    transmission's two start rows share one, as do its completion rows."""
    start_t, start_seq, end_t, senders, timer_seqs = trace
    n = len(start_t)
    ts, te = (np.fromiter(times, float, n) for times in (start_t, end_t))
    snd = np.fromiter(senders, np.int64, n)
    timer_t = te + M_TIMER_S

    def timer_first(tj, tk, j, k):
        # whether transmissions j's M timers, due at tj, precede k's starts
        first = tj < tk
        for i in np.flatnonzero(tj == tk).tolist():
            first[i] = timer_seqs[j[i]] < start_seq[k[i]]
        return first

    owns = [(own, ts[own], timer_t[own])
            for own in (np.flatnonzero(snd == d) for d in range(len(ctxs)))]
    # per transmission: its timer expires, and its RxStart is bistatic
    expires, bi = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    checks = 2 * n
    for ctx, (own, starts, deadlines) in zip(ctxs, owns):
        if own.size:
            # the last timer always expires
            expires[own] = np.append(timer_first(
                deadlines[:-1], starts[1:], own[:-1], own[1:]), True)
        if ctx.peer is None:
            continue
        checks += 2 * own.size
        rx, _, rx_deadlines = owns[ctx.peer.index]
        # the receiver's last transmission before each of this device's
        pos = np.searchsorted(rx, own) - 1
        bi[own] = pos < 0
        if rx.size:
            bi[own] |= timer_first(rx_deadlines[pos], starts, rx[pos], own)
    checks += int(np.count_nonzero(expires))

    rows = []
    if log:
        # a TxStart from C or in M, and a reception's RxStart and
        # RxComplete: deferred in M, deferred past a timer that lapsed in
        # the air, or bistatic from C
        tx_starts = (("C", "M", ENABLE_SEPARATOR), ("M", "M", CONTINUE_BURST))
        deferred = ("M", "M", DEFER_BISTATIC)
        receptions = ((deferred, deferred),
                      (deferred, ("C", "C", DEFER_BISTATIC)),
                      (("C", "B", BISTATIC_CAPTURE), ("B", "C", END_CAPTURE)))
        expires = expires.tolist()
        last = [None] * len(ctxs)  # each device's last transmission so far
        for k, (t0, t1, d, is_bi) in enumerate(zip(start_t, end_t, senders,
                                                    bi.tolist())):
            tx, rx = ctxs[d], ctxs[d].peer
            start, end = (t0, start_seq[k]), (t1, -1)
            cont = last[d] is not None and not expires[last[d]]
            rows += [(start, tx, "TxStart", tx_starts[cont]),
                     (end, tx, "TxComplete", ("M", "M", ARM_TIMER))]
            if rx is not None:
                rx_start, rx_end = receptions[
                    2 if is_bi else end_t[last[rx.index]] + M_TIMER_S < t1]
                rows += [(start, rx, "RxStart", rx_start),
                         (end, rx, "RxComplete", rx_end)]
            last[d] = k
            if expires[k]:
                rows.append(((t1 + M_TIMER_S, timer_seqs[k]), tx,
                             "TimerExpiry", ("M", "C", DISABLE_SEPARATOR)))
        rows.sort(key=lambda row: row[0])
        rows = [LogEntry(key[0], ctx.dev.device_id, kind, *change)
                for key, ctx, kind, change in rows]

    captures = []
    if cap:
        # every TxStart notes a mono capture, then maybe a bistatic one
        stop = int(np.searchsorted(np.cumsum(1 + bi), cap)) + 1
        for k, is_bi in enumerate(bi[:stop].tolist()):
            tx = ctxs[senders[k]]
            captures.append((start_t[k], "mono", tx, tx))
            if is_bi:
                captures.append((start_t[k], "bi", tx.peer, tx))
        del captures[cap:]
    return rows, captures, checks


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
                 link_snr_db=None, sensing_enabled=True,
                 force_separator=False, collect_csi=False, log=True):
    """Event-driven run of the full scenario.

    ``geometry`` may be None (no CSI materialization) or a
    channel.ScenarioGeometry used to synthesize actual CSI values when
    ``collect_csi`` is on; each link keeps its targets, power and array and
    takes its tx/rx positions from the devices. The sensing pass notes when
    each of the first ``MAX_CSI`` captures happened; then every (rx, tx)
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

    ``n_events`` counts the events handled: every packet that comes due (a
    deferral counts again when it retries), every TxComplete, every
    RxComplete and every armed M timer, superseded ones included, though a
    superseded timer costs no work. A device with no packet before
    ``duration`` sends nothing. ``duration`` must be positive and finite.

    The log holds one row per sensing transition in key order, completions
    first at a shared instant; ``invariant_checks`` counts the transitions,
    logged or not. ``violations`` would list rows whose action is
    ``VIOLATION`` and ``separator_mismatches`` count transitions that leave
    the separator on outside M or off in M. The pass follows the protocol's
    table, where neither happens, so they are always empty and 0.
    """
    _check_duration(duration)
    if not devices:
        raise ValueError("need at least one device")
    ids = [d.device_id for d in devices]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate device ids")
    cfg = cfg or RadioConfig()

    ctxs = {d.device_id: _DeviceCtx(d, i) for i, d in enumerate(devices)}
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

    delays = []
    successes = []
    rx_snrs = []
    medium_free_at = 0.0
    n_received = 0
    # the trace: one value per transmission in each, kept with sensing on
    trace = start_t, start_seq, end_t, senders, timer_seqs = (
        [], [], [], [], [])

    # a site hands the entry it pushes last on; a site that pushes none pops
    entry = pop(heap) if heap else None
    while entry is not None:
        t, s, kind, payload = entry

        if kind == "tx-done":
            # the sender's TxComplete, then the peer's RxComplete: both fall
            # at t, so they share the entry's key
            tx_ctx, _, ptype = payload
            rx_ctx = tx_ctx.peer
            if sensing_enabled:
                # the sequence number of the M timer the sender may arm
                timer_seqs.append(next(seq))
            if rx_ctx is None:
                entry = pop(heap) if heap else None
                continue
            n_received += 1
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
        done = next(seq)
        if sensing_enabled:
            start_t.append(t)
            start_seq.append(s)
            end_t.append(medium_free_at)
            senders.append(ctx.index)
        # the payload names the sender and the packet type, all tx-done
        # needs; its negated number sorts it before every other entry at
        # its instant, so a packet due as the medium frees starts after it
        entry = pushpop(heap, (medium_free_at, -done, "tx-done", payload))

    # without sensing the trace is empty and the pass reports nothing
    entries, captures, checks = _pass(
        trace, list(ctxs.values()), MAX_CSI if collect_csi else 0, log)

    # each handled entry and each armed M timer holds one sequence number
    # (a scheduled packet its offset below n_scheduled)
    n_events = next(seq) + n_received
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
                          stats, [],
                          n_events=n_events,
                          invariant_checks=checks,
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
