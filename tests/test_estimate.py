"""Tests for the sparse delay/Doppler estimator and the classical baselines."""

import numpy as np
import pytest

from isacsim.channel import (
    PropagationPath,
    ScenarioGeometry,
    linear_trajectory,
    steering_vector,
    synthesize_csi_series,
)
from isacsim.estimate import (
    FeatureVector,
    LassoResult,
    SensingEstimate,
    TxSchedule,
    admm_lasso,
    aoa_music,
    dictionary_matrices,
    estimate_features_sparse,
    ifft_range_profile,
    localize_single,
    matched_filter_peak,
    range_ifft,
    range_music,
    snap_to_uniform,
    velocity_fft,
    velocity_sparse,
)
from isacsim.estimate import _kron_apply, _rotation, _soft_threshold
from isacsim.ofdm import SPEED_OF_LIGHT, RadioConfig
from isacsim.sigcore import TWO_PI, from_db

CFG = RadioConfig()


# ---------------------------------------------------------------------------
# oracles and builders


def soft_threshold(x, kappa):
    mags = np.abs(x)
    scale = np.where(mags > kappa, 1.0 - kappa / np.maximum(mags, 1e-300), 0.0)
    return x * scale


def lasso_objective(a_mat, y, x, lam):
    r = a_mat @ x - y
    return 0.5 * np.vdot(r, r).real + lam * float(np.sum(np.abs(x)))


def ista_lasso(a_mat, y, lam, n_iters=30000):
    """Proximal-gradient reference solver, run to (numerical) convergence."""
    step = 1.0 / (np.linalg.norm(a_mat, 2) ** 2)
    x = np.zeros(a_mat.shape[1], dtype=np.complex128)
    for _ in range(n_iters):
        grad = a_mat.conj().T @ (a_mat @ x - y)
        x_new = soft_threshold(x - step * grad, step * lam)
        if np.max(np.abs(x_new - x)) < 1e-15:
            return x_new
        x = x_new
    return x


def sparse_instance(seed, m=16, n=64, k=2):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    a /= np.linalg.norm(a, axis=0, keepdims=True)
    support = np.sort(rng.choice(n, size=k, replace=False))
    x0 = np.zeros(n, dtype=np.complex128)
    x0[support] = np.exp(1j * rng.uniform(0.0, TWO_PI, k))
    return a, a @ x0, x0, support


# fat, tall and mixed Kronecker factor pairs
KRON_PAIRS = [((3, 7), (4, 9)), ((7, 3), (9, 4)), ((3, 7), (9, 4))]


def random_factors(rng, shapes):
    return [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]


def rotated_x_update(factors, y, v, rho=None):
    """``v + W^H((y~ - W v)/(e + rho))`` from ``_rotation``; rho defaults to max(e)."""
    ws, uhs, e = _rotation(factors)
    if rho is None:
        rho = float(e.max())
    y_rot = _kron_apply(uhs, y)
    w_step = (y_rot - _kron_apply(ws, v)) / (e + rho)
    return rho, v + _kron_apply([w.conj().T for w in ws], w_step)


def dense_admm(a, y, lam, rho, max_iters, tol):
    """Textbook ADMM lasso: explicit (A^H A + rho I) solve and explicit A z.

    Same splitting, updates and stopping rule as ``admm_lasso``, written
    the way Boyd et al. (2011, section 6.4) state them.
    """
    n = a.shape[1]
    aty = a.conj().T @ y
    gram = a.conj().T @ a + rho * np.eye(n)
    z = u = np.zeros(n, dtype=np.complex128)
    objectives, stalled, converged = [], 0, False
    for it in range(max_iters):
        x = np.linalg.solve(gram, aty + rho * (z - u))
        z_old = z
        z = soft_threshold(x + u, lam / rho)
        u = u + x - z
        objectives.append(lasso_objective(a, y, z, lam))
        if len(objectives) >= 2 and abs(objectives[-1] - objectives[-2]) <= (
            tol * max(1.0, abs(objectives[-2]))
        ):
            stalled += 1
        else:
            stalled = 0
        r_norm = np.linalg.norm(x - z)
        s_norm = rho * np.linalg.norm(z - z_old)
        eps_pri = np.sqrt(n) * tol + tol * max(np.linalg.norm(x),
                                               np.linalg.norm(z))
        eps_dual = np.sqrt(n) * tol + tol * rho * np.linalg.norm(u)
        if r_norm <= eps_pri and (s_norm <= eps_dual or stalled >= 5):
            converged = True
            break
    return LassoResult(z, converged, it + 1, np.asarray(objectives),
                       float(r_norm), float(s_norm))


def model_csi(cfg, times, paths, snr_db=None, rng=None):
    """Direct evaluation of the path model: (amp, delay_s, doppler_hz) tuples.

    Returns one-antenna (packets, 1, subcarriers) CSI.
    """
    freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
    times = np.asarray(times, dtype=np.float64)
    h = np.zeros((times.size, freqs.size), dtype=np.complex128)
    for amp, tau, nu in paths:
        h += (
            amp
            * np.exp(-2j * np.pi * freqs * tau)[None, :]
            * np.exp(-2j * np.pi * nu * times)[:, None]
        )
    if snr_db is not None:
        peak = max(abs(p[0]) ** 2 for p in paths)
        sigma = np.sqrt(peak / from_db(snr_db) / 2.0)
        gen = np.random.default_rng(rng)
        h = h + sigma * (
            gen.standard_normal(h.shape) + 1j * gen.standard_normal(h.shape)
        )
    return h[:, None, :]


def gaming_times(n, seed, median_gap=0.02, sigma=1.2):
    """Heavy-tailed packet gaps, the shape interactive traffic produces."""
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.lognormal(np.log(median_gap), sigma, n))


def top_two_profile_peaks(fv, min_sep_s=50e-9):
    prof = np.max(np.abs(fv.coefficients), axis=1)
    order = np.argsort(prof)[::-1]
    first = order[0]
    second = next(
        i for i in order[1:] if abs(fv.delay_grid[i] - fv.delay_grid[first]) > min_sep_s
    )
    return sorted([fv.delay_grid[first], fv.delay_grid[second]])


SMALL_DELAYS = np.arange(0.0, 200e-9 + 1e-12, 5e-9)
SMALL_DOPPLERS = np.arange(-30.0, 30.0 + 1e-9, 0.5)


# ---------------------------------------------------------------------------
# ADMM solver


class TestAdmmLasso:
    def test_identity_matches_soft_threshold(self):
        y = np.zeros(8, dtype=np.complex128)
        y[3] = 3.0
        res = admm_lasso((np.eye(y.size),), y, lam=1.0, max_iters=2000,
                         tol=1e-10)
        assert res.converged
        expected = np.zeros(8, dtype=np.complex128)
        expected[3] = 2.0
        assert np.allclose(res.coefficients, expected, atol=1e-8)

    def test_identity_complex_phase(self):
        y = np.zeros(4, dtype=np.complex128)
        y[1] = 3.0 * np.exp(1j * 0.7)
        res = admm_lasso((np.eye(y.size),), y, lam=1.0, max_iters=2000,
                         tol=1e-10)
        assert np.allclose(res.coefficients[1], 2.0 * np.exp(1j * 0.7), atol=1e-8)
        assert np.allclose(res.coefficients[[0, 2, 3]], 0.0)

    def test_support_recovery_with_lambda_sweep(self):
        for seed in range(5):
            a, y, _, support = sparse_instance(seed)
            corr = np.max(np.abs(a.conj().T @ y))
            recovered = False
            for frac in (0.3, 0.1, 0.05, 0.02):
                res = admm_lasso(
                    (a,), y,
                    lam=frac * corr, max_iters=800, tol=1e-9,
                )
                found = set(np.flatnonzero(np.abs(res.coefficients) > 1e-6))
                if res.converged and found == set(support):
                    recovered = True
                    break
            assert recovered, f"seed {seed}: no lambda in sweep gave exact support"

    def test_objective_matches_proximal_gradient(self):
        for seed in range(5):
            a, y, _, _ = sparse_instance(seed)
            lam = 0.1 * np.max(np.abs(a.conj().T @ y))
            res = admm_lasso(
                (a,), y, lam,
                max_iters=3000, tol=1e-11,
            )
            assert res.converged
            x_ref = ista_lasso(a, y, lam)
            obj_admm = lasso_objective(a, y, res.coefficients, lam)
            obj_ref = lasso_objective(a, y, x_ref, lam)
            assert abs(obj_admm - obj_ref) < 1e-6

    def test_objective_monotone_after_burn_in(self):
        a, y, _, _ = sparse_instance(12)
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = admm_lasso((a,), y, lam,
                         max_iters=400, tol=1e-12)
        tail = res.objectives[5:]
        assert np.all(np.diff(tail) <= 1e-8)

    def test_non_convergence_is_flagged(self):
        a, y, _, _ = sparse_instance(3)
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = admm_lasso((a,), y, lam,
                         max_iters=2, tol=1e-14)
        assert not res.converged
        assert res.iterations == 2

    def test_dimension_mismatch_raises(self):
        a, _, _, _ = sparse_instance(0)
        bad_y = np.ones(5, dtype=np.complex128)
        with pytest.raises(ValueError):
            admm_lasso((a,), bad_y, lam=0.1)

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    def test_kron_apply_and_adjoint_match_np_kron(self, shapes):
        rng = np.random.default_rng(5)
        factors = random_factors(rng, shapes)
        a = np.kron(*factors)
        x = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
        y = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
        assert np.allclose(_kron_apply(factors, x), a @ x, rtol=0, atol=1e-12)
        adjoint = _kron_apply([f.conj().T for f in factors], y)
        assert np.allclose(adjoint, a.conj().T @ y, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    def test_rotation_has_orthogonal_rows(self, shapes):
        factors = random_factors(np.random.default_rng(3), shapes)
        ws, uhs, e = _rotation(factors)
        w, uh = np.kron(*ws), np.kron(*uhs)
        scale = np.linalg.norm(np.kron(*factors), 2) ** 2
        assert np.allclose(uh @ uh.conj().T, np.eye(uh.shape[0]),
                           rtol=0, atol=1e-12)
        assert np.allclose(uh.conj().T @ w, np.kron(*factors),
                           rtol=0, atol=1e-12 * np.sqrt(scale))
        assert np.allclose(w @ w.conj().T, np.diag(e), rtol=0,
                           atol=1e-12 * scale)

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    @pytest.mark.parametrize("rho", [None, 0.05, 30.0])
    def test_exact_x_update_matches_dense_solve(self, shapes, rho):
        rng = np.random.default_rng(7)
        factors = random_factors(rng, shapes)
        a = np.kron(*factors)
        y = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
        v = rng.standard_normal(a.shape[1]) + 1j * rng.standard_normal(a.shape[1])
        rho_used, x = rotated_x_update(factors, y, v, rho)
        expected = np.linalg.solve(
            a.conj().T @ a + rho_used * np.eye(a.shape[1]),
            a.conj().T @ y + rho_used * v)
        err = np.linalg.norm(x - expected) / np.linalg.norm(expected)
        assert err <= 1e-10

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    def test_default_rho_is_squared_operator_norm(self, shapes):
        factors = random_factors(np.random.default_rng(11), shapes)
        _, _, e = _rotation(factors)
        expected = np.linalg.norm(np.kron(*factors), 2) ** 2
        assert e.max() == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("shapes", KRON_PAIRS + [((24, 1), (52, 40))])
    @pytest.mark.parametrize("max_iters", [1, 5, 40])
    @pytest.mark.parametrize("tol", [1e-6, 1e-2])
    def test_matches_dense_admm_oracle(self, shapes, max_iters, tol):
        rng = np.random.default_rng(17)
        factors = random_factors(rng, shapes)
        a = np.kron(*factors)
        y = rng.standard_normal(a.shape[0]) + 1j * rng.standard_normal(a.shape[0])
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = admm_lasso(factors, y, lam, max_iters=max_iters, tol=tol)
        ref = dense_admm(a, y, lam, np.linalg.norm(a, 2) ** 2, max_iters, tol)
        assert res.iterations == ref.iterations
        assert res.converged == ref.converged
        err = np.linalg.norm(res.coefficients - ref.coefficients)
        assert err <= 1e-9 * np.linalg.norm(ref.coefficients)
        assert np.allclose(res.objectives, ref.objectives, rtol=1e-9, atol=0)
        assert res.primal_residual == pytest.approx(ref.primal_residual, rel=1e-9)
        assert res.dual_residual == pytest.approx(ref.dual_residual, rel=1e-9)

    def test_two_atom_size_products_per_iteration(self, monkeypatch):
        # lambda's A^H y once, then W^H and W z per iteration; no other
        # product may touch an atom-size vector
        times = gaming_times(48, seed=21, median_gap=0.015, sigma=0.9)
        delays = np.arange(0.0, 500e-9, 2.5e-9)
        dopplers = np.arange(-17.0, 17.1, 0.25)
        n_atoms = delays.size * dopplers.size
        h = model_csi(CFG, times, [(1e-4, 40e-9, 6.0), (5e-5, 90e-9, 0.0)],
                      snr_db=15, rng=21)
        calls = []

        def counting_apply(mats, x):
            out = _kron_apply(mats, x)
            calls.append(n_atoms in (x.size, out.size))
            return out

        monkeypatch.setattr("isacsim.estimate._kron_apply", counting_apply)
        for max_iters, tol in [(60, 1e-3), (4, 1e-14)]:
            calls.clear()
            fv = estimate_features_sparse(h, TxSchedule(times), CFG, delays,
                                          dopplers, max_iters=max_iters,
                                          tol=tol)
            assert sum(calls) == 1 + 2 * fv.iterations
        assert fv.iterations == 4

    def test_final_residuals_reported(self):
        a, y, _, _ = sparse_instance(4)
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = admm_lasso((a,), y, lam, max_iters=3, tol=1e-14)
        assert isinstance(res, LassoResult)
        assert np.isfinite(res.primal_residual) and res.primal_residual > 0
        assert np.isfinite(res.dual_residual) and res.dual_residual > 0

    def test_soft_threshold_is_bit_identical_to_oracle(self):
        rng = np.random.default_rng(23)
        kappa = 0.7
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        x[:40] = 0.0
        x[40:80] = kappa * np.exp(1j * rng.uniform(0.0, TWO_PI, 40))
        np.testing.assert_array_equal(_soft_threshold(x, kappa),
                                      soft_threshold(x, kappa))

    def test_bad_penalty_raises(self):
        y = np.ones(4, dtype=np.complex128)
        with pytest.raises(ValueError):
            admm_lasso((np.eye(y.size),), y, lam=0.0)
        with pytest.raises(ValueError):
            admm_lasso((np.eye(y.size),), y, lam=1.0, rho=-1.0)


# ---------------------------------------------------------------------------
# sparse delay/Doppler features


class TestSparseFeatures:
    def test_dictionary_adjoint_consistency(self):
        rng = np.random.default_rng(2)
        sched = TxSchedule(gaming_times(12, 9))
        delays = np.arange(0.0, 100e-9, 10e-9)
        dopplers = np.arange(-10.0, 10.1, 2.0)
        d_mat, g_mat = dictionary_matrices(sched, CFG, delays, dopplers)
        gamma = rng.standard_normal((delays.size, dopplers.size)) + 1j * (
            rng.standard_normal((delays.size, dopplers.size))
        )
        y2 = rng.standard_normal((12, CFG.n_used)) + 1j * rng.standard_normal(
            (12, CFG.n_used)
        )
        forward = g_mat @ gamma.T @ d_mat.T
        adjoint = d_mat.conj().T @ y2.T @ g_mat.conj()
        lhs = np.vdot(y2, forward)
        rhs = np.vdot(adjoint, gamma)
        assert abs(lhs - rhs) < 1e-6 * abs(lhs)

    def test_matches_lasso_on_explicit_dense_dictionary(self):
        times = gaming_times(12, seed=3)
        sched = TxSchedule(times)
        delays = np.arange(0.0, 150e-9, 10e-9)
        dopplers = np.arange(-10.0, 10.1, 2.0)
        h = model_csi(CFG, times, [(1.0, 60e-9, 4.0), (0.5, 120e-9, 0.0)],
                      snr_db=20, rng=3)
        fv = estimate_features_sparse(h, sched, CFG, delay_grid=delays,
                                      doppler_grid=dopplers)
        d_mat, g_mat = dictionary_matrices(sched, CFG, delays, dopplers)
        # row (packet l, subcarrier k), column (Doppler j, delay i)
        a = np.kron(g_mat, d_mat) / np.sqrt(h.size)
        y = h.reshape(-1)
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = admm_lasso((a,), y, lam, max_iters=80, tol=1e-3)
        expected = res.coefficients.reshape(dopplers.size, delays.size).T
        assert fv.iterations == res.iterations
        assert fv.converged == res.converged
        assert fv.primal_residual == pytest.approx(res.primal_residual, rel=1e-6)
        assert fv.dual_residual == pytest.approx(res.dual_residual, rel=1e-6)
        assert np.allclose(fv.coefficients, expected, rtol=0,
                           atol=1e-9 * np.max(np.abs(expected)))

    def test_single_path_regular_schedule(self):
        times = np.arange(96) / 40.0
        h = model_csi(CFG, times, [(1.0, 100e-9, 0.0)])
        fv = estimate_features_sparse(
            h, TxSchedule(times), CFG,
            delay_grid=SMALL_DELAYS, doppler_grid=SMALL_DOPPLERS,
        )
        assert fv.converged
        delay, doppler, _ = fv.dominant()
        assert abs(delay - 100e-9) <= 5e-9 + 1e-15
        assert abs(doppler) <= 0.5
        mf_delay, _ = matched_filter_peak(
            h, TxSchedule(times), CFG, SMALL_DELAYS, SMALL_DOPPLERS
        )
        assert abs(delay - mf_delay) <= 5e-9 + 1e-15

    def test_single_path_irregular_schedule(self):
        times = gaming_times(96, seed=5)
        h = model_csi(CFG, times, [(1.0, 100e-9, 0.0)], snr_db=20, rng=5)
        fv = estimate_features_sparse(
            h, TxSchedule(times), CFG,
            delay_grid=SMALL_DELAYS, doppler_grid=SMALL_DOPPLERS,
        )
        delay, _, _ = fv.dominant()
        mf_delay, _ = matched_filter_peak(
            h, TxSchedule(times), CFG, SMALL_DELAYS, SMALL_DOPPLERS
        )
        # irregular packet times change nothing for the sparse dictionary
        assert abs(delay - 100e-9) <= 5e-9 + 1e-15
        assert abs(delay - mf_delay) <= 5e-9 + 1e-15

    def test_two_paths_at_snr20(self):
        times = np.arange(64) / 50.0
        h = model_csi(
            CFG, times,
            [(1.0, 100e-9, 0.0), (0.85 * np.exp(1j * 1.3), 300e-9, 0.0)],
            snr_db=20, rng=11,
        )
        fv = estimate_features_sparse(
            h, TxSchedule(times), CFG,
            delay_grid=np.arange(0.0, 400e-9 + 1e-12, 5e-9),
            doppler_grid=np.arange(-10.0, 10.1, 0.5),
        )
        lo, hi = top_two_profile_peaks(fv)
        assert abs(lo - 100e-9) <= 5e-9 + 1e-15
        assert abs(hi - 300e-9) <= 5e-9 + 1e-15

    def test_zero_csi_returns_empty_features(self):
        times = np.arange(16) / 40.0
        h = np.zeros((16, 1, CFG.n_used), dtype=np.complex128)
        fv = estimate_features_sparse(
            h, TxSchedule(times), CFG,
            delay_grid=SMALL_DELAYS, doppler_grid=SMALL_DOPPLERS,
        )
        assert fv.converged
        assert np.all(fv.coefficients == 0.0)

    def test_row_count_mismatch_raises(self):
        times = np.arange(8) / 40.0
        h = np.ones((7, 1, CFG.n_used), dtype=np.complex128)
        with pytest.raises(ValueError):
            estimate_features_sparse(h, TxSchedule(times), CFG,
                                     delay_grid=SMALL_DELAYS,
                                     doppler_grid=SMALL_DOPPLERS)

    def test_empty_series_raises(self):
        times = np.arange(3) / 40.0
        h = np.zeros((3, 1, 0), dtype=np.complex128)
        with pytest.raises(ValueError):
            estimate_features_sparse(h, TxSchedule(times), CFG,
                                     delay_grid=SMALL_DELAYS,
                                     doppler_grid=SMALL_DOPPLERS)


# ---------------------------------------------------------------------------
# inverse-transform range baseline


class TestRangeIfft:
    def test_single_path_at_15m(self):
        tau = 2.0 / CFG.sample_rate  # exactly two range bins
        h = model_csi(CFG, [0.0], [(1.0, tau, 0.0)])
        est = range_ifft(h, CFG)
        assert abs(est - 15.0) <= 3.75

    def test_flat_csi_is_zero_range(self):
        h = np.ones((1, 1, CFG.n_used), dtype=np.complex128)
        assert range_ifft(h, CFG) == 0.0

    def test_two_paths_profile_peaks(self):
        h = model_csi(
            CFG, [0.0],
            [(1.0, 2.0 / CFG.sample_rate, 0.0), (0.9, 6.0 / CFG.sample_rate, 0.0)],
        )
        ranges, profile = ifft_range_profile(h, CFG)
        half = len(profile) // 2
        idx = np.argsort(profile[:half])[::-1][:2]
        found = sorted(ranges[i] for i in idx)
        assert abs(found[0] - 15.0) <= 3.75
        assert abs(found[1] - 45.0) <= 3.75

    def test_packet_series_is_averaged(self):
        tau = 2.0 / CFG.sample_rate
        h = model_csi(CFG, [0.0, 0.1], [(1.0, tau, 0.0)])
        assert range_ifft(h, CFG) == range_ifft(h[:1], CFG)

    def test_packet_averaging_buries_moving_target(self):
        # the baseline's advertised weakness: coherent averaging across
        # packets wipes out anything whose carrier phase is spinning
        times = np.arange(64) / 40.0
        h = model_csi(
            CFG, times,
            [(1.0, 2.0 / CFG.sample_rate, 16.0), (0.3, 6.0 / CFG.sample_rate, 0.0)],
        )
        est = range_ifft(h, CFG)
        assert abs(est - 45.0) <= 3.75  # static clutter wins

    def test_too_few_bins_raises(self):
        with pytest.raises(ValueError):
            range_ifft(np.ones((1, 1, 1), dtype=np.complex128), CFG)


# ---------------------------------------------------------------------------
# subspace range estimator


class TestRangeMusic:
    def test_single_path_snr20(self):
        times = np.arange(20) / 40.0
        tau = 100e-9
        h = model_csi(CFG, times, [(1.0, tau, 0.0)], snr_db=20, rng=4)
        res = range_music(h, 1, CFG)
        truth = SPEED_OF_LIGHT * tau / 2.0
        assert abs(res.values[0] - truth) <= 1.5
        assert not res.degraded

    def test_two_paths(self):
        times = np.arange(40) / 40.0
        h = model_csi(
            CFG, times,
            [(1.0, 100e-9, 0.0), (0.9 * np.exp(0.4j), 300e-9, 0.0)],
            snr_db=25, rng=8,
        )
        res = range_music(h, 2, CFG)
        found = np.sort(res.values)
        assert abs(found[0] - SPEED_OF_LIGHT * 50e-9) <= 1.5
        assert abs(found[1] - SPEED_OF_LIGHT * 150e-9) <= 1.5

    def test_zero_paths_raises(self):
        h = np.ones((1, 1, CFG.n_used), dtype=np.complex128)
        with pytest.raises(ValueError):
            range_music(h, 0, CFG)

    def test_model_order_must_fit_subarray(self):
        h = np.ones((1, 1, CFG.n_used), dtype=np.complex128)
        with pytest.raises(ValueError):
            range_music(h, 16, CFG, subarray_len=16)

    def test_subarray_longer_than_runs_raises(self):
        h = np.ones((1, 1, CFG.n_used), dtype=np.complex128)
        with pytest.raises(ValueError):
            range_music(h, 1, CFG, subarray_len=27)

    def test_rank_deficient_covariance_is_flagged(self):
        h = model_csi(CFG, [0.0], [(1.0, 100e-9, 0.0)], snr_db=30, rng=1)
        res = range_music(h, 1, CFG, subarray_len=25)
        assert res.degraded


# ---------------------------------------------------------------------------
# arrival-angle estimator


def aoa_scene(paths, n_packets, snr_db, seed, n_ant=3):
    """paths: (theta_deg, tau_s, amp) triples for a small ULA scene."""
    freqs = CFG.carrier_freq + CFG.subcarrier_freqs()
    h = np.zeros((n_packets, n_ant, freqs.size), dtype=np.complex128)
    for theta, tau, amp in paths:
        h += (
            amp
            * steering_vector(theta, n_ant)[None, :, None]
            * np.exp(-2j * np.pi * freqs * tau)[None, None, :]
        )
    peak = max(abs(p[2]) ** 2 for p in paths)
    sigma = np.sqrt(peak / from_db(snr_db) / 2.0)
    rng = np.random.default_rng(seed)
    return h + sigma * (
        rng.standard_normal(h.shape) + 1j * rng.standard_normal(h.shape)
    )


class TestAoaMusic:
    def test_broadside(self):
        h = aoa_scene([(0.0, 80e-9, 1.0)], 20, 20, seed=3)
        res = aoa_music(h, 1)
        assert abs(res.values[0]) <= 1.0

    def test_thirty_degrees_snr20(self):
        h = aoa_scene([(30.0, 120e-9, 1.0)], 20, 20, seed=6)
        res = aoa_music(h, 1)
        assert abs(res.values[0] - 30.0) <= 2.0

    def test_two_sources(self):
        h = aoa_scene([(-40.0, 50e-9, 1.0), (40.0, 180e-9, 1.0)], 30, 30, seed=9)
        res = aoa_music(h, 2)
        found = np.sort(res.values)
        assert abs(found[0] + 40.0) <= 3.0
        assert abs(found[1] - 40.0) <= 3.0

    def test_too_many_sources_raises(self):
        h = aoa_scene([(0.0, 80e-9, 1.0)], 5, 20, seed=1)
        with pytest.raises(ValueError):
            aoa_music(h, 3)
        with pytest.raises(ValueError):
            aoa_music(h, 0)

    def test_channel_synthesis_round_trip(self):
        # end-to-end sign convention: scene synthesis and the estimator must
        # agree on which way the array phase tilts
        target = PropagationPath(position=(6.0 * np.cos(np.radians(30.0)),
                                           6.0 * np.sin(np.radians(30.0)), 0.0),
                                 amplitude=1.0)
        geom = ScenarioGeometry(targets=(target,), n_antennas=3)
        times = np.arange(20) / 40.0
        csi = synthesize_csi_series(geom, CFG, times, snr_db=20,
                                    rng=np.random.default_rng(12))
        res = aoa_music(csi, 1)
        assert abs(res.values[0] - 30.0) <= 2.0


# ---------------------------------------------------------------------------
# velocity


class TestVelocityFft:
    def test_one_meter_per_second(self):
        times = np.arange(64) / 40.0
        doppler = 2.0 * 1.0 / CFG.wavelength  # 16 Hz
        h = model_csi(CFG, times, [(1.0, 100e-9, doppler), (0.5, 50e-9, 0.0)])
        est = velocity_fft(h, TxSchedule(times), CFG)
        assert abs(est - 1.0) <= 0.05

    def test_static_scene_is_zero(self):
        times = np.arange(32) / 40.0
        h = model_csi(CFG, times, [(1.0, 100e-9, 0.0)])
        assert velocity_fft(h, TxSchedule(times), CFG) == 0.0

    def test_irregular_schedule_raises(self):
        times = gaming_times(32, seed=2)
        h = model_csi(CFG, times, [(1.0, 100e-9, 16.0)])
        with pytest.raises(ValueError):
            velocity_fft(h, TxSchedule(times), CFG)

    def test_nyquist_limit(self):
        # 3.5 m/s is 56 Hz of Doppler: a 100 pkt/s schedule aliases it,
        # 160 pkt/s resolves it
        doppler = 2.0 * 3.5 / CFG.wavelength
        t_slow = np.arange(128) / 100.0
        h_slow = model_csi(CFG, t_slow, [(1.0, 100e-9, doppler)])
        est_slow = velocity_fft(h_slow, TxSchedule(t_slow), CFG)
        assert abs(est_slow - 3.5) > 0.3

        t_fast = np.arange(128) / 160.0
        h_fast = model_csi(CFG, t_fast, [(1.0, 100e-9, doppler)])
        est_fast = velocity_fft(h_fast, TxSchedule(t_fast), CFG)
        assert abs(est_fast - 3.5) <= 0.1

    def test_channel_synthesis_round_trip(self):
        target = PropagationPath(
            trajectory=linear_trajectory((5.0, 0.0, 0.0), (1.0, 0.0, 0.0)),
            amplitude=1.0,
        )
        geom = ScenarioGeometry(targets=(target,))
        times = np.arange(64) / 40.0
        csi = synthesize_csi_series(geom, CFG, times, snr_db=25,
                                    rng=np.random.default_rng(7))
        est = velocity_fft(csi, TxSchedule(times), CFG)
        assert abs(est - 1.0) <= 0.05


class TestVelocitySparse:
    def test_gaming_schedule_beats_naive_resampling(self):
        times = gaming_times(96, seed=0)
        doppler = 2.0 * 1.0 / CFG.wavelength
        h = model_csi(CFG, times, [(1.0, 100e-9, doppler)], snr_db=20, rng=21)
        sched = TxSchedule(times)
        est = velocity_sparse(h, sched, CFG,
                              doppler_grid=np.arange(-30.0, 30.01, 0.25))
        assert abs(est - 1.0) <= 0.1

        h_u, sched_u = snap_to_uniform(h, sched)
        est_naive = velocity_fft(h_u, sched_u, CFG)
        assert abs(est_naive - 1.0) > 0.3

    def test_static_scene(self):
        times = gaming_times(64, seed=3)
        h = model_csi(CFG, times, [(1.0, 100e-9, 0.0)], snr_db=30, rng=3)
        est = velocity_sparse(h, TxSchedule(times), CFG,
                              doppler_grid=np.arange(-30.0, 30.01, 0.25))
        assert est <= 0.05

    def test_speed_sweep_median_error(self):
        errs = []
        for i, v in enumerate((0.8, 2.0, 3.2)):
            for seed in range(3):
                times = gaming_times(96, seed=100 + 10 * i + seed, median_gap=0.012)
                doppler = 2.0 * v / CFG.wavelength
                h = model_csi(CFG, times, [(1.0, 100e-9, doppler)],
                              snr_db=15, rng=200 + 10 * i + seed)
                est = velocity_sparse(
                    h, TxSchedule(times), CFG,
                    doppler_grid=np.arange(-60.0, 60.01, 0.5),
                    max_iters=40, tol=1e-3,
                )
                errs.append(abs(est - v))
        assert np.median(errs) <= 0.2

    def test_too_few_packets_raises(self):
        times = np.arange(5) / 40.0
        h = model_csi(CFG, times, [(1.0, 100e-9, 0.0)])
        with pytest.raises(ValueError, match="at least 8 packets"):
            velocity_sparse(h, TxSchedule(times), CFG,
                            doppler_grid=np.arange(-30.0, 30.01, 0.25))

    def test_global_phase_invariance(self):
        times = gaming_times(64, seed=13)
        doppler = 2.0 * 1.5 / CFG.wavelength
        h = model_csi(CFG, times, [(1.0, 100e-9, doppler)], snr_db=20, rng=13)
        grid = np.arange(-40.0, 40.01, 0.25)
        v_plain = velocity_sparse(h, TxSchedule(times), CFG, doppler_grid=grid)
        v_rotated = velocity_sparse(h * np.exp(1.1j), TxSchedule(times), CFG,
                                    doppler_grid=grid)
        assert v_plain == v_rotated


# ---------------------------------------------------------------------------
# localization


class TestLocalizeSingle:
    def test_boresight(self):
        est = SensingEstimate(range_m=5.0, aoa_deg=0.0)
        pos = localize_single(est)
        assert np.allclose(pos, [5.0, 0.0], atol=1e-12)

    def test_thirty_degrees(self):
        est = SensingEstimate(range_m=5.0, aoa_deg=30.0)
        pos = localize_single(est)
        assert np.allclose(pos, [4.330127, 2.5], atol=1e-4)

    def test_device_pose_offsets(self):
        est = SensingEstimate(range_m=2.0, aoa_deg=0.0)
        pos = localize_single(est, device_pos=(1.0, 1.0), heading_deg=90.0)
        assert np.allclose(pos, [1.0, 3.0], atol=1e-12)

    def test_missing_inputs_raise(self):
        with pytest.raises(ValueError):
            localize_single(SensingEstimate(range_m=5.0))
        with pytest.raises(ValueError):
            localize_single(SensingEstimate(aoa_deg=10.0))

    def test_error_propagation_first_order(self):
        truth_r, truth_deg = 7.0, 20.0
        sigma_r, sigma_deg = 0.3, 2.0
        rng = np.random.default_rng(17)
        truth = localize_single(SensingEstimate(range_m=truth_r, aoa_deg=truth_deg))
        sq = []
        for _ in range(500):
            est = SensingEstimate(
                range_m=truth_r + rng.normal(0.0, sigma_r),
                aoa_deg=truth_deg + rng.normal(0.0, sigma_deg),
            )
            sq.append(np.sum((localize_single(est) - truth) ** 2))
        rmse = np.sqrt(np.mean(sq))
        predicted = np.sqrt(sigma_r**2 + (truth_r * np.radians(sigma_deg)) ** 2)
        assert abs(rmse - predicted) <= 0.2 * predicted


# ---------------------------------------------------------------------------
# one CSI shape


_SHAPE_TIMES = np.arange(8) / 40.0
_SHAPE_CALLS = {
    "range_ifft": lambda h: range_ifft(h, CFG),
    "range_music": lambda h: range_music(h, 1, CFG),
    "aoa_music": lambda h: aoa_music(h, 1),
    "velocity_fft": lambda h: velocity_fft(h, TxSchedule(_SHAPE_TIMES), CFG),
    "estimate_features_sparse": lambda h: estimate_features_sparse(
        h, TxSchedule(_SHAPE_TIMES), CFG, SMALL_DELAYS, SMALL_DOPPLERS),
    "matched_filter_peak": lambda h: matched_filter_peak(
        h, TxSchedule(_SHAPE_TIMES), CFG, SMALL_DELAYS, SMALL_DOPPLERS),
    "snap_to_uniform": lambda h: snap_to_uniform(h, TxSchedule(_SHAPE_TIMES)),
}


class TestCsiShape:
    @pytest.mark.parametrize("name", sorted(_SHAPE_CALLS))
    @pytest.mark.parametrize("shape", [(52,), (8, 52), (8, 2, 52, 1)],
                             ids=["1d", "2d", "4d"])
    def test_non_3d_csi_raises(self, name, shape):
        h = np.ones(shape, dtype=np.complex128)
        with pytest.raises(ValueError, match="packets, antennas, subcarriers"):
            _SHAPE_CALLS[name](h)

    def test_snap_to_uniform_keeps_antennas(self):
        times = gaming_times(8, seed=4)
        h = np.arange(8 * 2 * 3).reshape(8, 2, 3).astype(np.complex128)
        h_u, _ = snap_to_uniform(h, TxSchedule(times))
        assert h_u.shape == h.shape


# ---------------------------------------------------------------------------
# containers, schedules, CSV


class TestContainers:
    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            TxSchedule(np.array([0.0, 0.1, 0.1]))
        with pytest.raises(ValueError):
            TxSchedule(np.array([0.2, 0.1]))
        with pytest.raises(ValueError):
            TxSchedule(np.array([]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_schedule_must_be_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            TxSchedule(np.array([0.0, bad, 1.0]))

    def test_schedule_uniformity(self):
        assert TxSchedule(np.arange(10) * 0.025).is_uniform()
        assert not TxSchedule(gaming_times(10, 1)).is_uniform()

    def test_schedule_ids_default(self):
        s = TxSchedule(np.array([0.0, 1.0, 2.5]))
        assert len(s) == 3

    def test_feature_vector_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(np.zeros(3), np.zeros(2), np.zeros((2, 3)))
        bad = np.full((2, 2), np.nan, dtype=np.complex128)
        with pytest.raises(ValueError):
            FeatureVector(np.zeros(2), np.zeros(2), bad)

    def test_feature_vector_dominant_and_support(self):
        coef = np.zeros((3, 2), dtype=np.complex128)
        coef[1, 0] = 2.0
        coef[2, 1] = 0.5
        fv = FeatureVector(np.array([0.0, 1e-9, 2e-9]), np.array([-1.0, 1.0]), coef)
        delay, doppler, peak = fv.dominant()
        assert delay == 1e-9 and doppler == -1.0 and peak == 2.0

    def test_sensing_estimate_fills_range(self):
        est = SensingEstimate(tof=1e-7)
        assert np.isclose(est.range_m, SPEED_OF_LIGHT * 5e-8)
        est2 = SensingEstimate(range_m=7.5)
        assert np.isclose(est2.tof, 15.0 / SPEED_OF_LIGHT)

    def test_sensing_estimate_consistency(self):
        with pytest.raises(ValueError):
            SensingEstimate(tof=1e-7, range_m=99.0)
        with pytest.raises(ValueError):
            SensingEstimate(range_m=5.0, aoa_deg=120.0)

    def test_snap_to_uniform_is_identity_on_uniform(self):
        times = np.arange(16) / 40.0
        h = model_csi(CFG, times, [(1.0, 100e-9, 4.0)])
        h_u, sched_u = snap_to_uniform(h, TxSchedule(times))
        assert np.array_equal(h_u, h)
        assert np.allclose(sched_u.times, times)
