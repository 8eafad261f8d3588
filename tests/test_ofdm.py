import numpy as np
import pytest

from isacsim.ofdm import (
    MAX_FRAME_S,
    MCS_TABLE,
    CsiMatrix,
    Mcs,
    Modulation,
    PacketMeta,
    RadioConfig,
    build_packet,
    burst_symbol_spans,
    demodulate_packet,
    detect_preamble,
    extract_csi,
    extract_csi_symbols,
    generate_preamble,
    packet_duration,
    training_burst,
)
from isacsim.sigcore import SampleBuffer, avg_power, complex_noise, unwrap_phase

CFG = RadioConfig()


class TestRadioConfig:
    def test_defaults(self):
        assert CFG.subcarrier_spacing == 312.5e3
        assert CFG.n_used == 52
        assert 0 not in CFG.used_subcarriers
        assert CFG.cyclic_prefix_len == 16
        assert abs(CFG.wavelength - 0.1249135) < 1e-4

    def test_signed_index(self):
        signed = CFG.signed_index()
        assert signed.min() == -26 and signed.max() == 26
        assert 0 not in signed

    def test_invalid(self):
        with pytest.raises(ValueError):
            RadioConfig(cyclic_prefix_len=64)
        with pytest.raises(ValueError):
            RadioConfig(used_subcarriers=(0, 1))

    def test_fft_size_override_recomputes_spacing(self):
        small = RadioConfig(fft_size=32, cyclic_prefix_len=8)
        assert small.subcarrier_spacing == 20e6 / 32


class TestPreamble:
    def test_fixed_length_and_unit_power(self):
        pre = generate_preamble(CFG)
        assert len(pre) == 5 * CFG.fft_size == 320
        assert abs(pre.power() - 1.0) < 1e-9

    def test_deterministic(self):
        a = generate_preamble(CFG).samples
        b = generate_preamble(CFG).samples
        np.testing.assert_array_equal(a, b)

    def test_long_symbol_autocorrelation(self):
        pre = generate_preamble(CFG).samples
        n = CFG.fft_size
        first = pre[3 * n : 4 * n]
        second = pre[4 * n : 5 * n]
        corr = abs(np.dot(first, np.conj(second)))
        energy = np.sqrt(np.sum(np.abs(first) ** 2) * np.sum(np.abs(second) ** 2))
        assert corr >= 0.99 * energy

    def test_short_section_periodicity(self):
        pre = generate_preamble(CFG).samples
        stf = pre[: CFG.stf_len]
        np.testing.assert_allclose(stf[16:], stf[:-16], atol=1e-12)


class TestPackets:
    def test_empty_payload_is_preamble_only(self):
        meta = PacketMeta(0.0, MCS_TABLE["bpsk-1/2"], 0)
        pkt = build_packet([], meta, CFG)
        assert len(pkt) == CFG.preamble_len

    def test_bpsk_loopback(self):
        rng = np.random.default_rng(17)
        bits = rng.integers(0, 2, 100)
        mcs = MCS_TABLE["bpsk-1/2"]
        meta = PacketMeta(0.0, mcs, 5)
        pkt = build_packet(bits, meta, CFG)
        back = demodulate_packet(pkt, meta, CFG, n_bits=100)
        np.testing.assert_array_equal(back, bits)

    def test_qam64_loopback_and_power(self):
        rng = np.random.default_rng(18)
        mcs = MCS_TABLE["qam64-3/4"]
        meta = PacketMeta(0.0, mcs, 10)
        bits = rng.integers(0, 2, 10 * 48 * 6)  # fill every raw bin
        pkt = build_packet(bits[: meta.n_symbols * 48 * 6 * 3 // 4], meta, CFG)
        assert abs(pkt.power() - 1.0) < 0.05
        back = demodulate_packet(pkt, meta, CFG)
        n_info = meta.n_symbols * 48 * 6 * 3 // 4
        np.testing.assert_array_equal(back[:n_info], bits[:n_info])

    def test_payload_overflow(self):
        meta = PacketMeta(0.0, MCS_TABLE["bpsk-1/2"], 1)
        with pytest.raises(ValueError):
            build_packet(np.ones(1000, dtype=int), meta, CFG)

    def test_duration_consistency(self):
        meta = PacketMeta(0.0, MCS_TABLE["qpsk-1/2"], 8)
        assert meta.duration == packet_duration(8, CFG)
        with pytest.raises(ValueError):
            PacketMeta(0.0, MCS_TABLE["qpsk-1/2"], 8, duration=1e-3)

    def test_max_frame_duration(self):
        # longest legal frame stays under the 5.484 ms cap
        n_max = int((MAX_FRAME_S * CFG.sample_rate - CFG.preamble_len) // 80)
        PacketMeta(0.0, MCS_TABLE["qam64-5/6"], n_max)
        with pytest.raises(ValueError):
            PacketMeta(0.0, MCS_TABLE["qam64-5/6"], n_max + 60)

    def test_mcs_table_complete(self):
        assert len(MCS_TABLE) == 16
        assert MCS_TABLE["qam16-2/3"].bits_per_symbol == 4
        assert abs(MCS_TABLE["qam64-5/6"].coding_rate - 5 / 6) < 1e-12

    def test_all_mcs_loopback(self):
        rng = np.random.default_rng(19)
        for name, mcs in MCS_TABLE.items():
            meta = PacketMeta(0.0, mcs, 2)
            n_info = 2 * 48 * mcs.bits_per_symbol  # raw capacity
            n_send = int(n_info * mcs.coding_rate)
            bits = rng.integers(0, 2, n_send)
            pkt = build_packet(bits, meta, CFG)
            back = demodulate_packet(pkt, meta, CFG, n_bits=n_send)
            np.testing.assert_array_equal(back, bits, err_msg=name)


class TestDetection:
    def test_known_offset_clean(self):
        pkt = build_packet([], PacketMeta(0.0, MCS_TABLE["bpsk-1/2"], 0), CFG)
        rx = SampleBuffer(
            np.concatenate([np.zeros(100, dtype=complex), pkt.samples, np.zeros(50, dtype=complex)]),
            CFG.sample_rate,
        )
        det = detect_preamble(rx, CFG, threshold=0.5)
        assert det is not None
        assert det.index == 100
        assert det.metric > 0.99

    def test_noise_only_returns_none(self):
        rng = np.random.default_rng(23)
        rx = SampleBuffer(complex_noise(2000, 0.0, rng), CFG.sample_rate)
        assert detect_preamble(rx, CFG, threshold=0.8) is None

    def test_threshold_validation(self):
        rx = SampleBuffer(np.zeros(512, dtype=complex), CFG.sample_rate)
        with pytest.raises(ValueError):
            detect_preamble(rx, CFG, threshold=0.0)

    def test_monte_carlo_snr10(self):
        rng = np.random.default_rng(24)
        pkt = build_packet([], PacketMeta(0.0, MCS_TABLE["bpsk-1/2"], 0), CFG)
        n_trials = 500
        detected = 0
        within_two = 0
        for _ in range(n_trials):
            offset = int(rng.integers(40, 400))
            total = offset + len(pkt) + 64
            buf = complex_noise(total, -10.0, rng)  # packet power 1.0 -> SNR 10 dB
            buf[offset : offset + len(pkt)] += pkt.samples
            det = detect_preamble(SampleBuffer(buf, CFG.sample_rate), CFG, threshold=0.4)
            if det is None:
                continue
            detected += 1
            if abs(det.index - offset) <= 2:
                within_two += 1
        assert detected / n_trials >= 0.99
        assert within_two / detected >= 0.95


class TestCsiExtraction:
    def test_identity_channel(self):
        pkt = training_burst(CFG)
        csi = extract_csi(pkt, 0, CFG)
        assert csi.values.shape == (1, 1, 52)
        np.testing.assert_allclose(csi.values, np.ones((1, 1, 52)), atol=1e-9)

    def test_keeps_packet_id_and_timestamp(self):
        csi = extract_csi(training_burst(CFG), 0, CFG, packet_id=7,
                          timestamp=1.25)
        assert csi.packet_id == 7
        assert csi.timestamp == 1.25

    def test_loopback_build_detect_extract(self):
        pkt = build_packet([], PacketMeta(0.0, MCS_TABLE["bpsk-1/2"], 0), CFG)
        det = detect_preamble(pkt, CFG, threshold=0.5)
        csi = extract_csi(pkt, det.index, CFG)
        np.testing.assert_allclose(csi.values, np.ones((1, 1, 52)), atol=1e-9)

    def test_pdd_phase_ramp(self):
        # detection early by 2 samples <=> phase -2*pi*k*2/64; at k=16 that is -pi
        pkt = training_burst(CFG)
        samples = np.concatenate([np.zeros(8, dtype=complex), pkt.samples])
        csi = extract_csi(SampleBuffer(samples, CFG.sample_rate), 8 - 2, CFG)
        k16 = list(CFG.used_subcarriers).index(16)
        phase = np.angle(csi.values[0, 0, k16])
        assert min(abs(phase - np.pi), abs(phase + np.pi)) < 1e-6

    def test_pdd_slope_across_bins(self):
        pkt = training_burst(CFG)
        samples = np.concatenate([np.zeros(8, dtype=complex), pkt.samples])
        csi = extract_csi(SampleBuffer(samples, CFG.sample_rate), 8 - 1, CFG)
        bins = CFG.used_bins.astype(float)
        ph = unwrap_phase(np.angle(csi.values[0, 0]))
        slope = np.polyfit(bins, ph, 1)[0]
        assert abs(slope - (-2 * np.pi / 64)) < 1e-6

    def test_per_symbol_cfo_increment(self):
        # gamma_c such that gamma_c/(df*N) = 1/4 -> phase steps of -pi/2 per symbol
        n_sym = 6
        burst = training_burst(CFG, n_extra=n_sym - 2)
        samples = burst.samples.copy()
        for l, (lo, hi, _win) in enumerate(burst_symbol_spans(CFG, n_sym)):
            samples[lo:hi] *= np.exp(-2j * np.pi * (l / 4.0))
        sym_csi = extract_csi_symbols(
            SampleBuffer(samples, CFG.sample_rate), 0, CFG, n_symbols=n_sym
        )
        mean_phase = np.angle(np.sum(sym_csi, axis=1))
        d = np.diff(unwrap_phase(mean_phase))
        np.testing.assert_allclose(d, -np.pi / 2, atol=1e-9)

    def test_monostatic_fixed_cpo_no_drift(self):
        n_sym = 100
        burst = training_burst(CFG, n_extra=n_sym - 2)
        samples = burst.samples * np.exp(-2j * np.pi * 0.3)  # fixed phase only
        sym_csi = extract_csi_symbols(
            SampleBuffer(samples, CFG.sample_rate), 0, CFG, n_symbols=n_sym
        )
        ph = np.angle(np.sum(sym_csi, axis=1))
        assert np.max(np.abs(ph - ph[0])) < 1e-6

    def test_out_of_bounds(self):
        pkt = training_burst(CFG)
        with pytest.raises(ValueError):
            extract_csi(pkt, 100, CFG)

    def test_multi_antenna(self):
        pkt = training_burst(CFG)
        other = SampleBuffer(pkt.samples * np.exp(1j * 0.7), CFG.sample_rate)
        csi = extract_csi([pkt, other], 0, CFG)
        assert csi.values.shape == (2, 1, 52)
        np.testing.assert_allclose(
            np.angle(csi.values[1, 0] / csi.values[0, 0]), 0.7, atol=1e-9
        )

    def test_csi_matrix_validation(self):
        with pytest.raises(ValueError):
            CsiMatrix(np.ones((2, 52)), 0.0)
        with pytest.raises(ValueError):
            CsiMatrix(np.full((1, 1, 4), np.nan), 0.0)
