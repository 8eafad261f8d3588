"""Tests for the C/M/B mode machine, traffic models, and scenario runs."""

import heapq
import itertools

import numpy as np
import pytest

from isacsim import cancel, channel, experiments, mac
from isacsim.channel import (
    PropagationPath,
    ScenarioGeometry,
    linear_trajectory,
    synthesize_csi_series,
)
from isacsim.estimate import TxSchedule
from isacsim.mac import step
from isacsim.ofdm import RadioConfig, packet_duration
from isacsim.sigcore import db, from_db


def tx_spans(log):
    """(start, end, device) for every transmission in an event log."""
    spans = []
    open_tx = {}
    for e in log:
        if e.event == "TxStart":
            open_tx[e.device] = e.time
        elif e.event == "TxComplete" and e.device in open_tx:
            spans.append((open_tx.pop(e.device), e.time, e.device))
    return sorted(spans)


def m_episodes(entries):
    """(enter_time, exit_time, last_tx_complete) for every M dwell in a log."""
    episodes = []
    current = {}
    last_txc = {}
    for e in entries:
        if e.action == mac.ENABLE_SEPARATOR:
            current[e.device] = e.time
            last_txc[e.device] = None
        elif e.event == "TxComplete" and e.device in current:
            last_txc[e.device] = e.time
        elif e.action == mac.DISABLE_SEPARATOR and e.device in current:
            episodes.append((current.pop(e.device), e.time,
                             last_txc.get(e.device)))
    return episodes


def two_devices(d=4.0):
    return [
        mac.MacDevice("dev-a", (0.0, 0.0, 0.0)),
        mac.MacDevice("dev-b", (d, 0.0, 0.0)),
    ]


class TestStep:
    def test_tx_from_idle_enables_separator(self):
        state, action = step("C", "TxStart")
        assert state == "M"
        assert action == mac.ENABLE_SEPARATOR

    def test_ack_transmission_also_enters_m(self):
        state, action = step("C", "TxStart")
        assert state == "M"
        assert action == mac.ENABLE_SEPARATOR

    def test_timer_expiry_returns_to_idle(self):
        state, action = step("M", "TimerExpiry")
        assert state == "C"
        assert action == mac.DISABLE_SEPARATOR

    def test_reception_from_idle_opens_bistatic_capture(self):
        state, action = step("C", "RxStart")
        assert state == "B"
        assert action == mac.BISTATIC_CAPTURE

    def test_reception_complete_closes_capture(self):
        state, action = step("B", "RxComplete")
        assert state == "C"
        assert action == mac.END_CAPTURE

    def test_tx_complete_arms_timer(self):
        state, action = step("M", "TxComplete")
        assert state == "M"
        assert action == mac.ARM_TIMER

    def test_burst_continuation_stays_in_m(self):
        state, action = step("M", "TxStart")
        assert state == "M"
        assert action == mac.CONTINUE_BURST

    def test_reception_during_m_window_is_deferred(self):
        state, action = step("M", "RxStart")
        assert state == "M"
        assert action == mac.DEFER_BISTATIC

    @pytest.mark.parametrize(
        "state,event",
        [
            ("B", "TxStart"),
            ("B", "TimerExpiry"),
            ("C", "TxComplete"),
            ("C", "TimerExpiry"),
            ("B", "RxStart"),
        ],
    )
    def test_undefined_pairs_leave_state_unchanged(self, state, event):
        new_state, action = step(state, event)
        assert new_state == state
        assert action == mac.VIOLATION

    def test_unknown_event_kind_raises(self):
        with pytest.raises(ValueError):
            step("C", "Sleep")

    def test_unknown_state_raises(self):
        with pytest.raises(ValueError, match="state"):
            step("X", "TxStart")

    def test_plain_string_event_accepted(self):
        assert step("C", "TxStart") == ("M", mac.ENABLE_SEPARATOR)

    def test_step_is_total_over_states_and_kinds(self):
        for state in mac.MAC_STATES:
            for kind in mac.EVENT_KINDS:
                expected = mac._TRANSITIONS.get((state, kind),
                                                (state, mac.VIOLATION))
                assert step(state, kind) == expected
                assert mac._STEP_TABLE[kind][state] == expected
        assert list(mac._STEP_TABLE) == list(mac.EVENT_KINDS)
        for row in mac._STEP_TABLE.values():
            assert list(row) == list(mac.MAC_STATES)


class TestSuccessProbability:
    def test_midpoint_is_half(self):
        # qpsk-1/2: 2 bits * 1/2 rate -> midpoint 2 + 4*1 = 6 dB
        p = mac.success_probability(6.0)
        assert abs(p - 0.5) < 1e-12

    def test_monotone_in_snr(self):
        snrs = np.linspace(-5, 40, 60)
        probs = [mac.success_probability(s) for s in snrs]
        assert np.all(np.diff(probs) > 0)


class TestTraffic:
    def test_regular_40hz_gives_400_packets_at_exact_spacing(self):
        times = mac.generate_traffic(mac.TrafficModel.regular(40.0), 10.0)
        assert len(times) == 400
        assert times[0] == 0.0
        assert np.allclose(np.diff(times), 0.025, atol=1e-12)

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate_hz"):
            mac.TrafficModel.regular(rate)

    def test_regular_is_uniform(self):
        times = mac.generate_traffic(mac.TrafficModel.regular(100.0), 1.0)
        assert TxSchedule(times).is_uniform()

    def test_streaming_seeded_identical(self):
        a = mac.generate_traffic(mac.TrafficModel.streaming(seed=5), 4.0)
        b = mac.generate_traffic(mac.TrafficModel.streaming(seed=5), 4.0)
        assert np.array_equal(a, b)

    def test_streaming_burst_sizes_within_bounds(self):
        model = mac.TrafficModel.streaming(seed=2)
        gaps = np.diff(mac.generate_traffic(model, 10.0))
        # bursts are ~2 ms apart inside, anchors >= 1/30 s apart
        burst_sizes = []
        size = 1
        for g in gaps:
            if g < 1.5 * mac.STREAM_INTRA_GAP_S:
                size += 1
            else:
                burst_sizes.append(size)
                size = 1
        burst_sizes.append(size)
        assert max(burst_sizes) <= mac.STREAM_BURST_HIGH
        n_bursts = len(burst_sizes)
        assert abs(n_bursts / 10.0 - mac.STREAM_BURSTS_PER_S) < 3.0

    def test_gaming_gaps_are_heavy_tailed(self):
        for seed in range(4):
            gaps = np.diff(mac.generate_traffic(
                mac.TrafficModel.gaming(seed=seed), 60.0))
            cv = gaps.std() / gaps.mean()
            assert cv > 1.0

    def test_gaming_schedule_is_irregular(self):
        times = mac.generate_traffic(mac.TrafficModel.gaming(seed=1), 20.0)
        assert not TxSchedule(times).is_uniform()

    def test_times_bounded_by_duration(self):
        for model in (
            mac.TrafficModel.regular(40.0),
            mac.TrafficModel.streaming(seed=0),
            mac.TrafficModel.gaming(seed=0),
        ):
            times = mac.generate_traffic(model, 3.0)
            assert times[-1] < 3.0
            assert np.all(np.diff(times) > 0)

    @pytest.mark.parametrize("kind", ["regular", "streaming", "gaming"])
    def test_schedules_are_strictly_increasing(self, kind):
        # the event loop pushes a device's next packet only when the one
        # before it pops, which is right only for increasing schedules
        for seed in range(8):
            for duration in (0.05, 1.0, 12.0):
                times = mac.generate_traffic(mac.TrafficModel(kind), duration,
                                             seed=seed)
                assert times.ndim == 1 and times.dtype == float
                assert np.all(np.diff(times) > 0)
                assert np.all((times >= 0) & (times < duration))

    @pytest.mark.parametrize("kind,duration", [
        ("gaming", 0.001), ("gaming", 0.005), ("streaming", 0.001)])
    def test_no_packet_before_duration_is_an_empty_schedule(self, kind,
                                                            duration):
        assert mac.generate_traffic(mac.TrafficModel(kind), duration,
                                    seed=0).size == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            mac.TrafficModel("periodic")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            mac.generate_traffic(mac.TrafficModel.regular(10.0), 0.0)

    @pytest.mark.parametrize("duration", [float("inf"), float("nan")])
    @pytest.mark.parametrize("kind", ["regular", "streaming", "gaming"])
    def test_nonfinite_duration_rejected(self, kind, duration):
        # gaming never returned on inf and gave an empty schedule on nan
        with pytest.raises(ValueError, match="duration"):
            mac.generate_traffic(mac.TrafficModel(kind), duration)

    def test_streaming_matches_scalar_draws(self):
        model = mac.TrafficModel.streaming()
        for seed in range(60):
            for duration in (0.001, 0.01, 0.05, 1.0, 3.3, 8.0):
                got = mac.generate_traffic(model, duration, seed=seed)
                want = reference_streaming(duration, seed)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def reference_streaming(duration, seed):
    """The scalar per-burst draws that ``generate_traffic`` decodes from raw
    generator words for a streaming schedule."""
    rng = np.random.default_rng(seed)
    times = []
    for k in range(int(np.ceil(duration * mac.STREAM_BURSTS_PER_S))):
        anchor = (k / mac.STREAM_BURSTS_PER_S
                  + rng.uniform(0.0, mac.STREAM_JITTER_S))
        size = int(rng.integers(mac.STREAM_BURST_LOW,
                                mac.STREAM_BURST_HIGH + 1))
        for i in range(size):
            t = anchor + i * mac.STREAM_INTRA_GAP_S
            if t < duration:
                times.append(t)
    return np.asarray(times, dtype=float)


class TestCommsDraws:
    """``_comms_draws`` must give the draws numpy's ``Generator.random`` and
    ``integers(0, 16)`` give on the same seed, call for call: a loss draw's
    53-bit word over 2**53 is ``random()``, and deciding a loss on the word
    against the success probability times 2**53 is ``random() < p``."""

    @staticmethod
    def assert_matches_generator(seed, calls):
        words, backoff = mac._comms_draws(seed)
        gen = np.random.default_rng([seed, 17])
        gen_random, gen_integers = gen.random, gen.integers
        got = [backoff() if is_backoff else (next(words) >> 11) * 2.0**-53
               for is_backoff in calls]
        want = [gen_integers(0, 16) if is_backoff else gen_random()
                for is_backoff in calls]
        assert got == want

    @pytest.mark.parametrize("seed", [0, 3, 2**32 - 1])
    def test_random_interleaving_matches_generator(self, seed):
        # 102,000 calls over the three seeds, about a third of them backoffs
        calls = (np.random.default_rng(seed).random(34_000) < 0.3).tolist()
        self.assert_matches_generator(seed, calls)

    def test_backoff_pair_straddles_a_block_refill(self):
        # the low half of the first block's last word goes to a backoff, a
        # loss draw refills, and the next backoff takes the kept high half;
        # later a backoff splits the first word of the third block
        block = mac._RAW_BLOCK
        calls = ([False] * (block - 1) + [True, False, True, True, True]
                 + [False] * (block - 2) + [True, True, False])
        self.assert_matches_generator(0, calls)

    @staticmethod
    def experiment_success_probabilities(monkeypatch):
        """Every link success probability comms-impact computes at the
        seeds CI runs, its forced-separator penalties included."""
        seen = set()
        real = mac.success_probability

        def recording(snr_db):
            p = real(snr_db)
            seen.add(float(p))
            return p

        monkeypatch.setattr(mac, "success_probability", recording)
        for seed in (0, 1, 2, 3, 7):
            experiments.run_comms_impact(experiments.ExperimentContext(
                seed=seed, values={"run.duration_s": 0.05}))
        return seen

    def test_word_threshold_decides_like_random(self, monkeypatch):
        used = self.experiment_success_probabilities(monkeypatch)
        assert len(used) > 5
        multiples = [k * 2.0**-53 for k in (1, 2, 3, 2**26 + 1, 2**52,
                                             2**53 - 1)]
        probabilities = {0.0, 1.0, *used, *multiples}
        for p in list(probabilities):
            probabilities.update((np.nextafter(p, 0.0), np.nextafter(p, 2.0)))
        words = (np.random.default_rng(0).bit_generator.random_raw(200)
                 >> 11).tolist()
        for p in probabilities:
            threshold = float(p) * 2.0**53
            edge = int(threshold)
            for x in {0, 1, 2**53 - 1, *words,
                      *(w for w in (edge - 1, edge, edge + 1)
                        if 0 <= w < 2**53)}:
                assert (x < threshold) == (x * 2.0**-53 < p), (p, x)


class TestRunScenario:
    def run(self, **kw):
        args = dict(seed=7)
        args.update(kw)
        return mac.run_scenario(
            two_devices(), None, mac.TrafficModel.streaming(seed=1), 2.0, **args
        )

    def test_run_without_data_reports_nan(self):
        res = mac.run_scenario(two_devices(), None,
                               mac.TrafficModel.streaming(seed=1), 0.001)
        assert res.stats["n_data"] == 0
        for key in ("delay_ms_p50", "delay_ms_p95", "loss_rate",
                    "mean_rx_snr_db"):
            assert np.isnan(res.stats[key])

    def test_nominal_run_has_no_violations(self):
        res = self.run()
        assert res.violations == []
        assert res.separator_mismatches == 0
        assert res.invariant_checks > 1000

    def test_no_overlapping_transmissions(self):
        spans = tx_spans(self.run().log)
        assert len(spans) > 500
        for prev, cur in zip(spans, spans[1:]):
            assert cur[0] >= prev[1] - 1e-12

    def test_deterministic_given_seed(self):
        a = self.run()
        b = self.run()
        assert a.log == b.log
        assert a.stats == b.stats
        assert a.n_events == b.n_events

    def test_different_seed_changes_timing_draws(self):
        a = self.run(seed=7)
        b = self.run(seed=8)
        assert a.log != b.log

    def test_sensing_toggle_does_not_affect_comms(self):
        on = self.run(sensing_enabled=True)
        off = self.run(sensing_enabled=False)
        assert on.stats == off.stats

    def test_sensing_disabled_never_leaves_c(self):
        res = self.run(sensing_enabled=False)
        assert all(e.state_after == "C" for e in res.log)
        assert res.csi_records == []

    def test_separator_tracks_m_state(self):
        res = self.run()
        on = {d: False for d in ("dev-a", "dev-b")}
        for e in res.log:
            if e.action == mac.ENABLE_SEPARATOR:
                on[e.device] = True
            elif e.action == mac.DISABLE_SEPARATOR:
                on[e.device] = False
            assert on[e.device] == (e.state_after == "M")

    def test_m_episode_ends_one_timer_after_last_tx(self):
        timer = 1e-3
        res = self.run(timer_s=timer)
        episodes = m_episodes(res.log)
        assert len(episodes) > 100
        for entered, exited, last_txc in episodes:
            assert last_txc is not None
            assert exited - last_txc == pytest.approx(timer, abs=1e-9)

    def test_forced_separator_degrades_reception(self):
        base = self.run(link_snr_db=15.0)
        forced = self.run(link_snr_db=15.0, force_separator=True)
        assert forced.separator_penalty_db >= 10.0
        drop = base.stats["mean_rx_snr_db"] - forced.stats["mean_rx_snr_db"]
        assert drop >= 10.0
        assert forced.stats["loss_rate"] > base.stats["loss_rate"]

    def test_csi_streams_follow_state(self):
        geom = ScenarioGeometry(
            targets=(PropagationPath(position=(3.0, 2.0, 0.0)),)
        )
        res = mac.run_scenario(
            two_devices(6.0), geom, mac.TrafficModel.streaming(seed=1), 1.0,
            seed=3, collect_csi=True, max_csi=64,
        )
        kinds = {r.kind for r in res.csi_records}
        assert kinds == {"mono", "bi"}
        for r in res.csi_records:
            assert r.values.shape[-1] == 52
            assert np.all(np.isfinite(r.values))
        # monostatic records carry the device's own id as transmitter
        for r in res.csi_records:
            if r.kind == "mono":
                assert r.tx_device == r.device
            else:
                assert r.tx_device != r.device

    def test_single_device_is_mono_only(self):
        dev = [mac.MacDevice("solo", traffic=mac.TrafficModel.regular(50.0))]
        res = mac.run_scenario(dev, None, None, 1.0, seed=0)
        assert res.stats["n_data"] == 0  # nobody to receive
        assert np.isnan(res.stats["loss_rate"])
        assert res.violations == []
        assert any(e.state_after == "M" for e in res.log)
        assert not any(e.state_after == "B" for e in res.log)

    def test_duplicate_device_ids_rejected(self):
        devs = [mac.MacDevice("x"), mac.MacDevice("x", (1.0, 0.0, 0.0))]
        with pytest.raises(ValueError):
            mac.run_scenario(devs, None, mac.TrafficModel.regular(10.0), 1.0)

    def test_missing_traffic_rejected(self):
        with pytest.raises(ValueError):
            mac.run_scenario([mac.MacDevice("x")], None, None, 1.0)

    @pytest.mark.parametrize("duration", [0.0, float("inf"), float("nan")])
    def test_bad_duration_rejected(self, duration):
        with pytest.raises(ValueError, match="duration"):
            mac.run_scenario(two_devices(), None,
                             mac.TrafficModel.regular(10.0), duration)

    @pytest.mark.parametrize("timer_s", [-1.0, float("inf"), float("nan")])
    def test_bad_timer_rejected(self, timer_s):
        # a NaN timer never expired (NaN != NaN) and a negative one popped
        # before the event that armed it
        with pytest.raises(ValueError, match="timer_s"):
            self.run(timer_s=timer_s)

    def test_unknown_peer_rejected(self):
        devs = [mac.MacDevice("x", peer_id="ghost")]
        with pytest.raises(ValueError):
            mac.run_scenario(devs, None, mac.TrafficModel.regular(10.0), 1.0)

    def test_self_peer_rejected(self):
        # it would receive and ACK its own DATA at the distance floor
        devs = [mac.MacDevice("x", peer_id="x"),
                mac.MacDevice("y", (1.0, 0.0, 0.0))]
        with pytest.raises(ValueError, match="itself"):
            mac.run_scenario(devs, None, mac.TrafficModel.regular(10.0), 1.0)

    def test_loss_rate_near_logistic_prediction(self):
        # pin the link right at the qpsk-1/2 midpoint: expect ~50% loss
        res = mac.run_scenario(
            two_devices(), None, mac.TrafficModel.streaming(seed=2), 4.0,
            seed=11, link_snr_db=6.0,
        )
        assert res.stats["n_data"] > 800
        assert abs(res.stats["loss_rate"] - 0.5) < 0.08

    def test_contention_produces_nonzero_delays(self):
        # regular traffic on both devices at the same phase forces deferrals
        devs = two_devices()
        for d in devs:
            d.traffic = mac.TrafficModel.regular(200.0)
        res = mac.run_scenario(devs, None, None, 2.0, seed=0)
        assert res.stats["delay_ms_p95"] > 0.0
        assert res.violations == []

    def test_caller_devices_are_not_modified(self):
        a, b = two_devices()
        c = mac.MacDevice("dev-c", (0.0, 4.0, 0.0))
        traffic = mac.TrafficModel.regular(50.0)
        mac.run_scenario([a, b, c], None, traffic, 0.2, seed=0)
        assert (a.peer_id, b.peer_id, c.peer_id) == (None, None, None)
        res = mac.run_scenario([a, b], None, traffic, 0.2, seed=0)
        assert res.violations == []
        assert res.stats["n_data"] > 0


class ReferenceDevice:
    """The reference loop's own per-run state of one device: the M timer
    that may fire is the one whose deadline ``m_timer_deadline`` still
    names."""

    def __init__(self, dev):
        self.dev = dev
        self.state = "C"
        self.separator_on = False
        self.m_timer_deadline = None
        self.peer = None


def reference_run_scenario(devices, geometry, traffic, duration, seed=0,
                           timer_s=1e-3, link_snr_db=None,
                           sensing_enabled=True, force_separator=False,
                           collect_csi=False, max_csi=256):
    """The straightforward event loop ``run_scenario`` must reproduce: every
    scheduled packet pushed up front, and separate tx-complete and
    rx-complete entries for each transmission, and every M timer pushed on
    the heap and skipped when it pops superseded."""
    cfg = RadioConfig()
    ids = [d.device_id for d in devices]
    ctxs = {d.device_id: ReferenceDevice(d) for d in devices}
    for i, d in enumerate(devices):
        peer = d.peer_id
        if peer is None and len(devices) > 1:
            peer = ids[(i + 1) % len(ids)]
        ctxs[d.device_id].peer = None if peer is None else ctxs[peer]
    rng_comms = np.random.default_rng([seed, 17])
    rng_sense = np.random.default_rng([seed, 29])
    penalty_db = 0.0
    if force_separator:
        clean, separated = cancel.forced_separator_harm(
            cfg, np.random.default_rng([seed, 91]), 15.0)
        penalty_db = float(clean - separated)
    for ctx in ctxs.values():
        if ctx.peer is None:
            continue
        snr = link_snr_db
        if snr is None:
            d = float(np.linalg.norm(np.asarray(ctx.dev.pos, dtype=float)
                                     - np.asarray(ctx.peer.dev.pos,
                                                  dtype=float)))
            amp = channel.los_gain(max(d, 0.1), cfg,
                                   tx_power=from_db(mac.TX_POWER_DBM))
            snr = db(abs(amp) ** 2) - cancel.DEFAULT_NOISE_FLOOR_DBM
        ctx.link_snr = float(snr) - penalty_db
        ctx.link_success = mac.success_probability(ctx.link_snr)
    data_duration = packet_duration(mac.DATA_SYMBOLS, cfg)
    ack_duration = packet_duration(mac.ACK_SYMBOLS, cfg)

    heap = []
    seq = itertools.count()
    for i, d in enumerate(devices):
        times = mac.generate_traffic(
            d.traffic or traffic, duration,
            seed=np.random.default_rng([seed, i, 5]).integers(0, 2**32))
        for t in times:
            heapq.heappush(heap, (float(t), next(seq), "pkt-due",
                                  (ctxs[d.device_id], float(t), "DATA")))

    entries, violations, captures = [], [], []
    delays, successes, rx_snrs = [], [], []
    medium_free_at = 0.0
    counts = {"events": 0, "checks": 0, "mismatches": 0}

    def take_step(t, ctx, event_kind):
        before = ctx.state
        after, action = mac._STEP_TABLE[event_kind][before]
        ctx.state = after
        if action in (mac.ENABLE_SEPARATOR, mac.DISABLE_SEPARATOR):
            ctx.separator_on = action == mac.ENABLE_SEPARATOR
            ctx.m_timer_deadline = None
        elif action == mac.CONTINUE_BURST:
            ctx.m_timer_deadline = None
        elif action == mac.ARM_TIMER:
            deadline = ctx.m_timer_deadline = t + timer_s
            heapq.heappush(heap, (deadline, next(seq), "timer",
                                  (ctx, deadline)))
        entry = mac.LogEntry(t, ctx.dev.device_id, event_kind, before, after,
                             action)
        if action == mac.VIOLATION:
            violations.append(entry)
        entries.append(entry)
        counts["checks"] += 1
        counts["mismatches"] += ctx.separator_on != (after == "M")

    while heap:
        t, _, kind, payload = heapq.heappop(heap)
        counts["events"] += 1
        if kind == "pkt-due":
            ctx, sched_t, ptype = payload
            if t < medium_free_at:
                backoff = mac.SLOT_S * int(rng_comms.integers(0, 16))
                heapq.heappush(heap, (medium_free_at + backoff, next(seq),
                                      kind, payload))
                continue
            dur = data_duration if ptype == "DATA" else ack_duration
            medium_free_at = t + dur
            if sensing_enabled:
                take_step(t, ctx, "TxStart")
                if (collect_csi and ctx.state == "M"
                        and len(captures) < max_csi):
                    captures.append((t, "mono", ctx, ctx))
            if ptype == "DATA":
                delays.append(t - sched_t)
            heapq.heappush(heap, (t + dur, next(seq), "tx-complete", ctx))
            rx_ctx = ctx.peer
            if rx_ctx is not None:
                if sensing_enabled:
                    was_c = rx_ctx.state == "C"
                    take_step(t, rx_ctx, "RxStart")
                    if (was_c and collect_csi and rx_ctx.state == "B"
                            and len(captures) < max_csi):
                        captures.append((t, "bi", rx_ctx, ctx))
                heapq.heappush(heap, (t + dur, next(seq), "rx-complete",
                                      (ctx, ptype)))
        elif kind == "tx-complete":
            if sensing_enabled:
                take_step(t, payload, "TxComplete")
        elif kind == "timer":
            ctx, deadline = payload
            if ctx.m_timer_deadline == deadline and sensing_enabled:
                take_step(t, ctx, "TimerExpiry")
        else:
            tx_ctx, ptype = payload
            rx_ctx = tx_ctx.peer
            if sensing_enabled:
                take_step(t, rx_ctx, "RxComplete")
            ok = rng_comms.random() < tx_ctx.link_success
            if ptype == "DATA":
                successes.append(ok)
                rx_snrs.append(tx_ctx.link_snr)
                if ok:
                    heapq.heappush(heap, (t + mac.SIFS_S, next(seq), "pkt-due",
                                          (rx_ctx, t + mac.SIFS_S, "ACK")))

    nan = float("nan")
    delays_ms = 1e3 * np.asarray(delays)
    stats = {
        "n_data": len(successes),
        "delay_ms_p50": (float(np.percentile(delays_ms, 50)) if delays
                         else nan),
        "delay_ms_p95": (float(np.percentile(delays_ms, 95)) if delays
                         else nan),
        "loss_rate": float(1.0 - np.mean(successes)) if successes else nan,
        "mean_rx_snr_db": float(np.mean(rx_snrs)) if rx_snrs else nan,
    }
    return mac.ScenarioResult(
        entries, mac._materialize_csi(captures, geometry, cfg, rng_sense),
        stats, violations, n_events=counts["events"],
        invariant_checks=counts["checks"],
        separator_mismatches=counts["mismatches"],
        separator_penalty_db=penalty_db)


def three_traffic_devices():
    return [
        mac.MacDevice("dev-a", (0.0, 0.0, 0.0),
                      traffic=mac.TrafficModel.regular(120.0)),
        mac.MacDevice("dev-b", (4.0, 0.0, 0.0),
                      traffic=mac.TrafficModel.streaming(seed=1)),
        mac.MacDevice("dev-c", (2.0, 3.0, 0.0),
                      traffic=mac.TrafficModel.gaming(seed=2)),
    ]


class TestEventLoop:
    def test_every_logged_transition_matches_step(self):
        res = mac.run_scenario(three_traffic_devices(), None, None, 1.0,
                               seed=5)
        events = {e.event for e in res.log}
        assert events == set(mac.EVENT_KINDS)
        for e in res.log:
            assert step(e.state_before, e.event) == (e.state_after, e.action)

    def test_log_is_time_ordered_with_valid_entries(self):
        res = mac.run_scenario(
            two_devices(), None, mac.TrafficModel.streaming(seed=1), 0.5, seed=7
        )
        assert res.log
        for e in res.log:
            assert e.device in ("dev-a", "dev-b")
            assert e.state_before in ("C", "M", "B")
            assert e.event in mac.EVENT_KINDS
            assert e.state_after in ("C", "M", "B")
        times = [e.time for e in res.log]
        assert times == sorted(times)

    def test_csi_capture_is_batched_per_link(self):
        # default array, then a tilted pair at another power the links must keep
        for array in ({}, {"n_antennas": 2, "boresight_deg": 60.0,
                           "tx_power_dbm": 11.0}):
            self.check_csi_capture_is_batched_per_link(array)

    def check_csi_capture_is_batched_per_link(self, array):
        geom = ScenarioGeometry(targets=(PropagationPath(
            trajectory=linear_trajectory((3.0, 2.0, 0.0), (0.6, -0.4, 0.0))),),
            **array)
        devices = three_traffic_devices()
        res = mac.run_scenario(devices, geom, None, 1.0, seed=4,
                               collect_csi=True, max_csi=90)
        # the captures the event log implies, in event order
        expected = []
        peer = {"dev-a": "dev-b", "dev-b": "dev-c", "dev-c": "dev-a"}
        sender = {v: k for k, v in peer.items()}
        for e in res.log:
            if e.event == "TxStart" and e.state_after == "M":
                expected.append((e.time, "mono", e.device, e.device))
            elif e.event == "RxStart" and e.action == mac.BISTATIC_CAPTURE:
                expected.append((e.time, "bi", e.device, sender[e.device]))
        assert len(expected) > 90
        got = [(r.time, r.kind, r.device, r.tx_device) for r in res.csi_records]
        assert got == expected[:90]

        # one synthesis per link over its capture times, links in order of
        # first capture, all drawing noise from the same sensing stream; each
        # link keeps the caller's array and power
        pos = {d.device_id: d.pos for d in devices}
        rng = np.random.default_rng([4, 29])
        links = {}
        for r in res.csi_records:
            links.setdefault((r.device, r.tx_device), []).append(r)
        assert len(links) == 6
        for (rx, tx), records in links.items():
            g = ScenarioGeometry(tx_pos=pos[tx], rx_pos=pos[rx],
                                 targets=geom.targets, **array)
            values = synthesize_csi_series(
                g, RadioConfig(), np.array([r.time for r in records]),
                snr_db=30.0, rng=rng)
            for r, v in zip(records, values):
                np.testing.assert_array_equal(r.values, v)


def assert_same_run(got, want, log=True):
    """``got`` reproduces ``want``; a run without a log keeps none."""
    assert got.log == (want.log if log else [])
    # repr, so that a NaN mean SNR compares equal to itself
    assert repr(got.stats) == repr(want.stats)
    assert got.violations == want.violations
    assert got.n_events == want.n_events
    assert got.invariant_checks == want.invariant_checks
    assert got.separator_mismatches == want.separator_mismatches
    assert got.separator_penalty_db == want.separator_penalty_db
    assert ([(r.time, r.kind, r.device, r.tx_device, r.values.tobytes())
             for r in got.csi_records]
            == [(r.time, r.kind, r.device, r.tx_device, r.values.tobytes())
                for r in want.csi_records])


MODES = {
    "on-csi": dict(collect_csi=True, max_csi=120),
    "off": dict(sensing_enabled=False),
    "forced": dict(force_separator=True),
}


def assert_matches_reference(devices, geometry, traffic, duration, **kw):
    """``run_scenario`` with the log on and off reproduces the reference
    loop and never hands an M timer to its heap, by push or by push-pop;
    returns the logged run."""
    want = reference_run_scenario(devices, geometry, traffic, duration, **kw)
    real_push = heapq.heappush
    real_pushpop = heapq.heappushpop
    for log in (False, True):
        pushed = []

        def counting_push(heap, entry):
            pushed.append(entry[2])
            real_push(heap, entry)

        def counting_pushpop(heap, entry):
            pushed.append(entry[2])
            return real_pushpop(heap, entry)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mac.heapq, "heappush", counting_push)
            mp.setattr(mac.heapq, "heappushpop", counting_pushpop)
            got = mac.run_scenario(devices, geometry, traffic, duration,
                                   log=log, **kw)
        assert set(pushed) <= {"pkt-sched", "pkt-due", "tx-done"}
        assert_same_run(got, want, log=log)
    if kw.get("sensing_enabled", True):
        # an event is an entry handed to the heap (popped later or handed
        # straight back), the RxComplete that shares its tx-done entry, or
        # an armed M timer, superseded or not
        assert got.n_events == (
            len(pushed) + sum(e.event == "RxComplete" for e in got.log)
            + sum(e.action == mac.ARM_TIMER for e in got.log))
    return got


class TestEventLoopOracle:
    """``run_scenario`` keeps one pending packet per device and one
    completion entry per transmission; it must handle exactly the events
    of the loop that pushes everything up front, whether it keeps a log or
    not, at every M-window length in ``TIMERS``: a 20 ms window defers
    expiries past many of the other devices' events."""

    GEOM = ScenarioGeometry(targets=(PropagationPath(position=(3.0, 2.0,
                                                               0.0)),))
    TIMERS = (0.0, 1e-3, 0.02)

    def assert_matches(self, *args, **kw):
        """``assert_matches_reference`` at each of ``TIMERS``; returns the
        logged run at the default 1 ms window."""
        runs = {timer_s: assert_matches_reference(*args, timer_s=timer_s,
                                                  **kw)
                for timer_s in self.TIMERS}
        return runs[1e-3]

    @pytest.mark.parametrize("mode", list(MODES))
    @pytest.mark.parametrize("n_devices", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["regular", "streaming", "gaming"])
    def test_matches_reference_loop(self, kind, n_devices, mode):
        model = mac.TrafficModel(kind, rate_hz=150.0)
        for seed in (0, 1, 5):
            devices = [mac.MacDevice(f"dev-{i}", (4.0 * i, 1.5 * (i == 2),
                                                  0.0))
                       for i in range(n_devices)]
            kw = MODES[mode]
            geom = self.GEOM if kw.get("collect_csi") else None
            got = self.assert_matches(devices, geom, model, 0.6,
                                      seed=seed, **kw)
            assert got.n_events > 0

    def test_regular_devices_tie_at_every_packet(self):
        # identical regular schedules: every packet ties with the other
        # device's, so only the sequence numbers order them
        devices = two_devices()
        model = mac.TrafficModel.regular(400.0)
        times = mac.generate_traffic(model, 1.0)
        for seed in (0, 3):
            got = self.assert_matches(devices, self.GEOM, model, 1.0,
                                      seed=seed, collect_csi=True,
                                      max_csi=200)
            starts = [e.time for e in got.log
                      if e.event == "TxStart" and e.device == "dev-a"]
            assert len(starts) >= len(times)
            assert got.stats["delay_ms_p95"] > 0.0

    @pytest.mark.parametrize("mode", list(MODES))
    def test_long_run_crosses_several_draw_blocks(self, mode):
        # every DATA packet takes a loss draw, so this run reads its
        # communications stream over several blocks of raw words
        devices = two_devices()
        model = mac.TrafficModel.regular(400.0)
        kw = MODES[mode]
        geom = self.GEOM if kw.get("collect_csi") else None
        got = self.assert_matches(devices, geom, model, 3.0, seed=2, **kw)
        assert got.stats["n_data"] > 2 * mac._RAW_BLOCK

    @pytest.mark.parametrize("mode", list(MODES))
    def test_coexist_benchmark_shape(self, mode):
        # the coexist benchmark's regular scene: two 100 Hz devices tie on
        # every packet, so each tie defers one of them behind the other, and
        # the forced separator's penalty loses packets that then take no ACK
        model = mac.TrafficModel.regular(100.0)
        kw = MODES[mode]
        geom = self.GEOM if kw.get("collect_csi") else None
        for seed in (0, 5):
            got = self.assert_matches(two_devices(), geom, model, 2.0,
                                      seed=seed, link_snr_db=18.0, **kw)
            assert got.stats["n_data"] == 400
            assert got.stats["delay_ms_p95"] > 0.0
            if mode == "forced":
                assert got.stats["loss_rate"] > 0.0

    def test_timer_ties_with_the_next_scheduled_packet(self):
        # dev-b's M timer, armed at its packet's TxComplete, expires exactly
        # when its next packet comes due; that packet was scheduled before
        # the timer was pushed, so it goes first and continues the burst
        data_s = packet_duration(mac.DATA_SYMBOLS, RadioConfig())
        timer_s = 1.0 / 400.0 - data_s
        assert data_s + timer_s == 1.0 / 400.0
        devices = two_devices()
        devices[0].traffic = mac.TrafficModel.regular(100.0)
        devices[1].traffic = mac.TrafficModel.regular(400.0)
        for seed in (0, 1):
            got = assert_matches_reference(devices, None, None, 0.3,
                                           seed=seed, timer_s=timer_s)
            tie = [(e.device, e.event, e.action) for e in got.log
                   if e.time == 2.0 / 400.0]
            assert tie == [("dev-b", "TxStart", mac.CONTINUE_BURST),
                           ("dev-a", "RxStart", mac.DEFER_BISTATIC)]

    def test_devices_without_packets_send_nothing(self):
        # at 2 ms neither streaming nor gaming draws a packet at seed 0
        for model in (mac.TrafficModel.streaming(), mac.TrafficModel.gaming()):
            res = mac.run_scenario(two_devices(), None, model, 0.002, seed=0)
            assert res.n_events == 0 and res.log == []
            assert res.stats["n_data"] == 0
            self.assert_matches(two_devices(), None, model, 0.002, seed=0)
        # one idle device beside a busy one
        devices = two_devices()
        devices[0].traffic = mac.TrafficModel.regular(100.0)
        devices[1].traffic = mac.TrafficModel.gaming()
        res = self.assert_matches(devices, None, None, 0.002, seed=0)
        assert res.stats["n_data"] == 1  # dev-a's packet at t = 0

    def test_each_event_kind_has_a_pinned_action_set(self):
        # each event site of run_scenario handles only its kind's actions;
        # a new action in _TRANSITIONS must come with a site that handles it
        actions = {kind: {action for _, action in row.values()}
                   for kind, row in mac._STEP_TABLE.items()}
        assert actions == {
            "TxStart": {mac.ENABLE_SEPARATOR, mac.CONTINUE_BURST,
                        mac.VIOLATION},
            "TxComplete": {mac.ARM_TIMER, mac.VIOLATION},
            "RxStart": {mac.BISTATIC_CAPTURE, mac.DEFER_BISTATIC,
                        mac.VIOLATION},
            "RxComplete": {mac.END_CAPTURE, mac.DEFER_BISTATIC},
            "TimerExpiry": {mac.DISABLE_SEPARATOR, mac.VIOLATION},
        }

    @pytest.mark.parametrize("kind,state,broken,report", [
        # a burst that starts without engaging the separator
        ("TxStart", "C", ("M", mac.CONTINUE_BURST), "separator_mismatches"),
        # a timer that can never close the M window
        ("TimerExpiry", "M", ("M", mac.VIOLATION), "violations"),
    ])
    def test_broken_table_is_reported(self, monkeypatch, kind, state, broken,
                                      report):
        monkeypatch.setitem(mac._STEP_TABLE[kind], state, broken)
        for mode in ("on-csi", "forced"):
            kw = MODES[mode]
            geom = self.GEOM if kw.get("collect_csi") else None
            got = self.assert_matches(
                two_devices(), geom, mac.TrafficModel.streaming(), 0.5,
                seed=3, **kw)
            assert getattr(got, report)


class TestSeparatorPenalty:
    def test_penalty_is_large_and_deterministic(self):
        a, b = (mac.run_scenario(two_devices(), None,
                                 mac.TrafficModel.regular(10.0), 0.2, seed=4,
                                 force_separator=True).separator_penalty_db
                for _ in range(2))
        assert a == b
        assert a >= 10.0
        clean, separated = cancel.forced_separator_harm(
            RadioConfig(), np.random.default_rng([4, 91]), 15.0)
        assert a == clean - separated
