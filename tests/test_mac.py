"""Tests for the C/M/B mode machine, traffic models, and scenario runs."""

import numpy as np
import pytest

from isacsim import cancel, mac
from isacsim.channel import (
    PropagationPath,
    ScenarioGeometry,
    linear_trajectory,
    synthesize_csi_series,
)
from isacsim.mac import step
from isacsim.ofdm import RadioConfig


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
                assert mac._STEP_TABLE[state, kind] == expected
        assert len(mac._STEP_TABLE) == (len(mac.MAC_STATES)
                                        * len(mac.EVENT_KINDS))


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
        sched = mac.generate_traffic(mac.TrafficModel.regular(40.0), 10.0)
        assert len(sched) == 400
        assert sched.times[0] == 0.0
        assert np.allclose(np.diff(sched.times), 0.025, atol=1e-12)

    @pytest.mark.parametrize("rate", [0.0, -5.0, float("nan"), float("inf")])
    def test_rate_must_be_positive_and_finite(self, rate):
        with pytest.raises(ValueError, match="rate_hz"):
            mac.TrafficModel.regular(rate)

    def test_regular_is_uniform(self):
        sched = mac.generate_traffic(mac.TrafficModel.regular(100.0), 1.0)
        assert sched.is_uniform()

    def test_streaming_seeded_identical(self):
        a = mac.generate_traffic(mac.TrafficModel.streaming(seed=5), 4.0)
        b = mac.generate_traffic(mac.TrafficModel.streaming(seed=5), 4.0)
        assert np.array_equal(a.times, b.times)

    def test_streaming_burst_sizes_within_bounds(self):
        model = mac.TrafficModel.streaming(seed=2)
        sched = mac.generate_traffic(model, 10.0)
        gaps = np.diff(sched.times)
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
            sched = mac.generate_traffic(mac.TrafficModel.gaming(seed=seed), 60.0)
            gaps = np.diff(sched.times)
            cv = gaps.std() / gaps.mean()
            assert cv > 1.0

    def test_gaming_schedule_is_irregular(self):
        sched = mac.generate_traffic(mac.TrafficModel.gaming(seed=1), 20.0)
        assert not sched.is_uniform()

    def test_times_bounded_by_duration(self):
        for model in (
            mac.TrafficModel.regular(40.0),
            mac.TrafficModel.streaming(seed=0),
            mac.TrafficModel.gaming(seed=0),
        ):
            sched = mac.generate_traffic(model, 3.0)
            assert sched.times[-1] < 3.0
            assert np.all(np.diff(sched.times) > 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            mac.TrafficModel("periodic")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            mac.generate_traffic(mac.TrafficModel.regular(10.0), 0.0)


class TestRunScenario:
    def run(self, **kw):
        args = dict(seed=7)
        args.update(kw)
        return mac.run_scenario(
            two_devices(), None, mac.TrafficModel.streaming(seed=1), 2.0, **args
        )

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
        episodes = mac.m_episodes(res.log)
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

    def test_unknown_peer_rejected(self):
        devs = [mac.MacDevice("x", peer_id="ghost")]
        with pytest.raises(ValueError):
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
        # default array, then a tilted sub-half-wave pair the links must keep
        for array in ({}, {"n_antennas": 2, "boresight_deg": 60.0,
                           "array_spacing_wl": 0.25}):
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
                                 targets=geom.targets, include_los=rx != tx,
                                 **array)
            values = synthesize_csi_series(
                g, RadioConfig(), np.array([r.time for r in records]),
                snr_db=30.0, rng=rng)
            for r, v in zip(records, values):
                np.testing.assert_array_equal(r.values, v)


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
