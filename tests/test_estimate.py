"""Tests for the sparse delay/Doppler estimator and the classical baselines."""

import tracemalloc

import numpy as np
import pytest

from isacsim.channel import (
    PropagationPath,
    ScenarioGeometry,
    linear_trajectory,
    resolve_paths,
    steering_vector,
    synthesize_csi_series,
)
from isacsim.estimate import (
    FeatureVector,
    LassoResult,
    TxSchedule,
    admm_lasso,
    aoa_music,
    estimate_features_sparse,
    ifft_range_profile,
    range_ifft,
    range_music,
    snap_to_uniform,
    velocity_fft,
    velocity_sparse,
)
from isacsim.estimate import (
    _Half,
    _apply,
    _delay_half,
    _delay_half_of,
    _delay_steering,
    _music,
    _rotate,
    _soft_threshold,
    _workspace,
)
from isacsim.fusion import SensingMessage, fuse_ml
from isacsim.ofdm import SPEED_OF_LIGHT, RadioConfig
from isacsim.sigcore import TWO_PI, delay_phase, from_db

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


def dense_dictionary(sched, cfg, delay_grid, doppler_grid):
    """The dictionary's two halves, evaluated directly: D, (subcarriers x
    delays), and G, (packets x Dopplers), whose Kronecker product holds the
    atoms ``exp(-2j*pi*((f_c+f_k)*tau_i + nu_j*T_l))``."""
    freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
    d = np.exp(-2j * np.pi * np.asarray(delay_grid)[:, None] * freqs).T
    g = np.exp(-2j * np.pi * sched.times[:, None] * np.asarray(doppler_grid))
    return d, g


def matched_filter_peak(csi_series, sched, cfg, delay_grid, doppler_grid):
    """Dense correlation search over the sparse solver's dictionary."""
    h = csi_series[:, 0, :]
    d_mat, g_mat = dense_dictionary(sched, cfg, delay_grid, doppler_grid)
    corr = np.abs(d_mat.conj().T @ h.T @ g_mat.conj())
    i, j = np.unravel_index(np.argmax(corr), corr.shape)
    return float(delay_grid[i]), float(doppler_grid[j])


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


def dense_lasso(a, y, lam, **kwargs):
    """``admm_lasso`` on a dense A: G = [[1]] and D = A, vectors as one row."""
    res = admm_lasso(np.ones((1, 1)), a, y[None, :], lam, **kwargs)
    return res._replace(coefficients=res.coefficients[0])


# fat, tall and mixed (G, D) shape pairs
KRON_PAIRS = [((3, 7), (4, 9)), ((7, 3), (9, 4)), ((3, 7), (9, 4))]


def random_matrix(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_pair(rng, shapes):
    return [random_matrix(rng, s) for s in shapes]


def rotated(g, d):
    """Both matrices ``_rotate``d, and e = outer(e_G, e_D), the squared row
    norms of the rotated operator X -> W_G X W_D^T."""
    g, d = _rotate(g), _rotate(d)
    return g, d, np.multiply.outer(g.e, d.e)


def rotated_x_update(g, d, y, v, rho=None):
    """``V + W^H((Y~ - W(V))/(e + rho))`` on ``rotated`` halves, rho default
    max(e)."""
    g, d, e = rotated(g, d)
    if rho is None:
        rho = float(e.max())
    y_rot = _apply(g.uh, d.uh, y)
    w_step = (y_rot - _apply(g.w, d.w, v)) / (e + rho)
    return rho, v + _apply(g.wh, d.wh, w_step)


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
        res = dense_lasso(np.eye(y.size), y, lam=1.0, max_iters=2000,
                          tol=1e-10)
        assert res.converged
        expected = np.zeros(8, dtype=np.complex128)
        expected[3] = 2.0
        assert np.allclose(res.coefficients, expected, atol=1e-8)

    def test_identity_complex_phase(self):
        y = np.zeros(4, dtype=np.complex128)
        y[1] = 3.0 * np.exp(1j * 0.7)
        res = dense_lasso(np.eye(y.size), y, lam=1.0, max_iters=2000,
                          tol=1e-10)
        assert np.allclose(res.coefficients[1], 2.0 * np.exp(1j * 0.7), atol=1e-8)
        assert np.allclose(res.coefficients[[0, 2, 3]], 0.0)

    def test_support_recovery_with_lambda_sweep(self):
        for seed in range(5):
            a, y, _, support = sparse_instance(seed)
            corr = np.max(np.abs(a.conj().T @ y))
            recovered = False
            for frac in (0.3, 0.1, 0.05, 0.02):
                res = dense_lasso(
                    a, y,
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
            res = dense_lasso(
                a, y, lam,
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
        res = dense_lasso(a, y, lam, max_iters=400, tol=1e-12)
        tail = res.objectives[5:]
        assert np.all(np.diff(tail) <= 1e-8)

    def test_non_convergence_is_flagged(self):
        a, y, _, _ = sparse_instance(3)
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = dense_lasso(a, y, lam, max_iters=2, tol=1e-14)
        assert not res.converged
        assert res.iterations == 2

    def test_dimension_mismatch_raises(self):
        a, _, _, _ = sparse_instance(0)
        bad_y = np.ones(5, dtype=np.complex128)
        with pytest.raises(ValueError):
            dense_lasso(a, bad_y, lam=0.1)

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    def test_kron_apply_and_adjoint_match_np_kron(self, shapes):
        rng = np.random.default_rng(5)
        g, d = random_pair(rng, shapes)
        a = np.kron(g, d)
        m = random_matrix(rng, (g.shape[1], d.shape[1]))
        y = random_matrix(rng, (g.shape[0], d.shape[0]))
        assert np.allclose(_apply(g, d, m).ravel(), a @ m.ravel(),
                           rtol=0, atol=1e-12)
        adjoint = _apply(g.conj().T, d.conj().T, y)
        assert np.allclose(adjoint.ravel(), a.conj().T @ y.ravel(),
                           rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    def test_rotation_has_orthogonal_rows(self, shapes):
        g, d = random_pair(np.random.default_rng(3), shapes)
        g_half, d_half, e = rotated(g, d)
        w, uh = np.kron(g_half.w, d_half.w), np.kron(g_half.uh, d_half.uh)
        scale = np.linalg.norm(np.kron(g, d), 2) ** 2
        assert e.shape == (min(g.shape), min(d.shape))
        assert np.allclose(uh @ uh.conj().T, np.eye(uh.shape[0]),
                           rtol=0, atol=1e-12)
        assert np.allclose(uh.conj().T @ w, np.kron(g, d),
                           rtol=0, atol=1e-12 * np.sqrt(scale))
        assert np.allclose(w @ w.conj().T, np.diag(e.ravel()), rtol=0,
                           atol=1e-12 * scale)

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    @pytest.mark.parametrize("rho", [None, 0.05, 30.0])
    def test_exact_x_update_matches_dense_solve(self, shapes, rho):
        rng = np.random.default_rng(7)
        g, d = random_pair(rng, shapes)
        a = np.kron(g, d)
        y = random_matrix(rng, (g.shape[0], d.shape[0]))
        v = random_matrix(rng, (g.shape[1], d.shape[1]))
        rho_used, x = rotated_x_update(g, d, y, v, rho)
        expected = np.linalg.solve(
            a.conj().T @ a + rho_used * np.eye(a.shape[1]),
            a.conj().T @ y.ravel() + rho_used * v.ravel())
        err = np.linalg.norm(x.ravel() - expected) / np.linalg.norm(expected)
        assert err <= 1e-10

    @pytest.mark.parametrize("shapes", KRON_PAIRS)
    def test_default_rho_is_squared_operator_norm(self, shapes):
        g, d = random_pair(np.random.default_rng(11), shapes)
        e = rotated(g, d)[-1]
        expected = np.linalg.norm(np.kron(g, d), 2) ** 2
        assert e.max() == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize(
        "shapes", KRON_PAIRS + [((24, 1), (52, 40)), ((6, 9), (52, 30))])
    @pytest.mark.parametrize("max_iters", [1, 5, 40])
    @pytest.mark.parametrize("tol", [1e-6, 1e-2])
    def test_matches_dense_admm_oracle(self, shapes, max_iters, tol):
        rng = np.random.default_rng(17)
        g, d = random_pair(rng, shapes)
        a = np.kron(g, d)
        y = random_matrix(rng, (g.shape[0], d.shape[0]))
        lam = 0.1 * np.max(np.abs(a.conj().T @ y.ravel()))
        res = admm_lasso(g, d, y, lam, max_iters=max_iters, tol=tol)
        ref = dense_admm(a, y.ravel(), lam, np.linalg.norm(a, 2) ** 2,
                         max_iters, tol)
        assert res.iterations == ref.iterations
        assert res.converged == ref.converged
        err = np.linalg.norm(res.coefficients.ravel() - ref.coefficients)
        assert err <= 1e-9 * np.linalg.norm(ref.coefficients)
        assert np.allclose(res.objectives, ref.objectives, rtol=1e-9, atol=0)
        assert res.primal_residual == pytest.approx(ref.primal_residual, rel=1e-9)
        assert res.dual_residual == pytest.approx(ref.dual_residual, rel=1e-9)

    def test_two_atom_size_products_per_iteration(self, monkeypatch):
        # lambda's A^H y once, then W^H and W z per iteration; no other
        # product may touch an atom-size matrix
        times = gaming_times(48, seed=21, median_gap=0.015, sigma=0.9)
        delays = np.arange(0.0, 500e-9, 2.5e-9)
        dopplers = np.arange(-17.0, 17.1, 0.25)
        n_atoms = delays.size * dopplers.size
        h = model_csi(CFG, times, [(1e-4, 40e-9, 6.0), (5e-5, 90e-9, 0.0)],
                      snr_db=15, rng=21)
        calls = []

        def counting_apply(a, b, m, out=None):
            out = _apply(a, b, m, out=out)
            calls.append(n_atoms in (m.size, out.size))
            return out

        monkeypatch.setattr("isacsim.estimate._apply", counting_apply)
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
        res = dense_lasso(a, y, lam, max_iters=3, tol=1e-14)
        assert isinstance(res, LassoResult)
        assert np.isfinite(res.primal_residual) and res.primal_residual > 0
        assert np.isfinite(res.dual_residual) and res.dual_residual > 0

    def test_soft_threshold_is_bit_identical_to_oracle(self):
        rng = np.random.default_rng(23)
        kappa = 0.7
        x = rng.standard_normal(400) + 1j * rng.standard_normal(400)
        x[:40] = 0.0
        x[40:80] = kappa * np.exp(1j * rng.uniform(0.0, TWO_PI, 40))
        got = _soft_threshold(x, kappa, np.empty(x.shape), np.empty_like(x))
        np.testing.assert_array_equal(got, soft_threshold(x, kappa))

    def test_bad_penalty_raises(self):
        y = np.ones(4, dtype=np.complex128)
        with pytest.raises(ValueError):
            dense_lasso(np.eye(y.size), y, lam=0.0)


# ---------------------------------------------------------------------------
# rank cut and the delay-half memo


EPS = np.finfo(float).eps
RANGING_DELAYS = np.arange(0.0, 500e-9, 2.5e-9)
RANGING_DOPPLERS = np.arange(-17.0, 17.1, 0.25)


def rank_deficient(rng, shape, rank):
    return random_matrix(rng, (shape[0], rank)) @ random_matrix(
        rng, (rank, shape[1]))


def full_half(m):
    """``_rotate`` without the cut: every eigenpair of M M^H kept."""
    e, u = np.linalg.eigh(m @ m.conj().T)
    uh = u.conj().T
    w = uh @ m
    return _Half(w, w.conj().T, uh, e)


def ranging_dictionary(seed):
    """(G, D) shaped like the ranging workload's: 48 x 137 and 52 x 200."""
    times = gaming_times(48, seed=seed, median_gap=0.015, sigma=0.9)
    d, g = dense_dictionary(TxSchedule(times), CFG, RANGING_DELAYS,
                            RANGING_DOPPLERS)
    return g / np.sqrt(g.shape[0] * d.shape[0]), d


def cut_test_matrices():
    rng = np.random.default_rng(31)
    g, d = ranging_dictionary(31)
    velocity_d = dense_dictionary(TxSchedule([0.0]), CFG,
                                  np.arange(0.0, 300e-9, 10e-9), [0.0])[0]
    return {
        "random fat": random_matrix(rng, (7, 40)),
        "random tall": random_matrix(rng, (40, 7)),
        "rank-deficient tall": rank_deficient(rng, (40, 12), 5),
        "ranging D": d,
        "ranging G": g,
        "velocity D": velocity_d,
        "localization G": np.exp(-2j * np.pi * np.arange(24) * 0.01 * 3.0
                                 )[:, None],
    }


class TestRankCut:
    @pytest.mark.parametrize("name", sorted(cut_test_matrices()))
    def test_kept_eigenvalues_exceed_eps_times_max(self, name):
        m = cut_test_matrices()[name]
        half = _rotate(m)
        e = np.linalg.eigh(m @ m.conj().T)[0]  # ascending
        k = half.e.size
        assert k >= 1
        assert np.all(half.e > EPS * e[-1])
        assert np.all(e[: e.size - k] <= EPS * e[-1])
        np.testing.assert_array_equal(half.e, e[e.size - k:])
        np.testing.assert_array_equal(half.wh, half.w.conj().T)
        assert half.uh.shape == (k, m.shape[0])
        assert np.allclose(half.uh @ half.uh.conj().T, np.eye(k),
                           rtol=0, atol=1e-12)
        # a dropped direction carries a singular value of about
        # sqrt(eps) * ||M|| at most, the finest the row Gram resolves, so
        # the kept rows rebuild M to a few times that in the 2-norm
        rebuilt = half.uh.conj().T @ half.w
        assert np.linalg.norm(m - rebuilt, 2) <= 4 * np.sqrt(EPS * e[-1])

    def test_delay_halves_drop_their_null_rows(self):
        # a full rotation keeps all 52 rows of either
        mats = cut_test_matrices()
        assert _rotate(mats["velocity D"]).e.size < 30
        assert _rotate(mats["ranging D"]).e.size < 52 // 2

    @pytest.mark.parametrize("case", ["rank-deficient tall", "ranging"])
    def test_cut_solve_matches_full_rotation(self, case):
        rng = np.random.default_rng(37)
        if case == "ranging":
            g, d = ranging_dictionary(37)
        else:
            g, d = random_matrix(rng, (6, 9)), rank_deficient(rng, (40, 12), 5)
        y = random_matrix(rng, (g.shape[0], d.shape[0]))
        lam = 0.1 * np.max(np.abs(g.conj().T @ y @ d.conj()))
        cut = admm_lasso(g, d, y, lam, max_iters=40, tol=1e-14)
        full = admm_lasso(full_half(g), full_half(d), y, lam, max_iters=40,
                          tol=1e-14)
        assert cut.iterations == full.iterations == 40
        # the cut drops directions whose singular values are at most about
        # sqrt(eps) ~ 1.5e-8 of each factor's largest, so the coefficients
        # agree to well within 1e-6 and the objectives, which add the
        # dropped data energy back, to 1e-9
        err = np.linalg.norm(cut.coefficients - full.coefficients)
        assert err <= 1e-6 * np.linalg.norm(full.coefficients)
        assert np.allclose(cut.objectives, full.objectives, rtol=1e-9, atol=0)
        assert cut.primal_residual == pytest.approx(full.primal_residual,
                                                    rel=1e-5)
        assert cut.dual_residual == pytest.approx(full.dual_residual,
                                                  rel=1e-5)

    def test_delay_half_is_built_once_per_frequencies_and_grid(self):
        # a 3 ns step, so the 3.4 GHz carrier change is no whole number of
        # turns per delay step and changes D
        grid = np.arange(0.0, 150e-9, 3e-9)

        def built(cfg, delays):
            freqs = cfg.carrier_freq + cfg.subcarrier_freqs()
            return _rotate(delay_phase(delays, freqs).T)

        half = _delay_half(CFG, grid)
        assert _delay_half(RadioConfig(), grid.copy()) is half
        assert not any(arr.flags.writeable for arr in half)
        for cached, fresh in zip(half, built(CFG, grid)):
            np.testing.assert_array_equal(cached, fresh)
        for cfg, other_grid in [(RadioConfig(carrier_freq=5.8e9), grid),
                                (RadioConfig(fft_size=128), grid),
                                (CFG, grid + 1e-9)]:
            other = _delay_half(cfg, other_grid)
            assert other is not half
            assert (other.w.shape != half.w.shape
                    or not np.allclose(other.w, half.w))
            for cached, fresh in zip(other, built(cfg, other_grid)):
                np.testing.assert_array_equal(cached, fresh)
        assert _delay_half_of.cache_info().maxsize is not None

    def test_delay_half_carries_its_conjugate_once(self):
        half = _delay_half(CFG, RANGING_DELAYS)
        np.testing.assert_array_equal(half.wh, half.w.conj().T)
        assert not half.wh.flags.writeable
        # a second call returns the memoized half, W^H and all, so no call
        # conjugates W again
        again = _delay_half(CFG, RANGING_DELAYS.copy())
        assert again is half and again.wh is half.wh


# ---------------------------------------------------------------------------
# the per-shape workspace


def reference_admm(g, d, y, lam, max_iters, tol):
    """``admm_lasso`` written plainly: every step of the loop builds fresh
    arrays. Same arithmetic, in the same order, so the results must match
    bit for bit. ``g`` and ``d`` are ``_rotate``d halves; W^H is formed
    here rather than read from them."""
    w_g, w_d, uh_g, uh_d = g.w, d.w, g.uh, d.uh
    e = np.multiply.outer(g.e, d.e)
    wh_g, wh_d = w_g.conj().T, w_d.conj().T
    rho = max(float(e.max(initial=0.0)), 1e-8)
    gain = 1.0 / (e + rho)
    y_rot = _apply(uh_g, uh_d, y)
    dropped = 0.5 * (np.vdot(y, y).real - np.vdot(y_rot, y_rot).real)

    def threshold(x, kappa):
        scale = np.abs(x)
        np.maximum(scale, kappa, out=scale)
        np.divide(kappa, scale, out=scale)
        np.subtract(1.0, scale, out=scale)
        return x * scale

    z = u = np.zeros((w_g.shape[1], w_d.shape[1]), dtype=np.complex128)
    wz = wu = np.zeros_like(y_rot)
    objectives, converged, iterations, stalled = [], False, 0, 0
    r_norm = s_norm = np.inf
    sqrt_n = np.sqrt(z.size)
    for it in range(max_iters):
        iterations = it + 1
        wv = wz - wu
        w_step = (y_rot - wv) * gain
        x = z - u + _apply(wh_g, wh_d, w_step)
        wx = wv + e * w_step
        z_old = z
        z = threshold(x + u, lam / rho)
        u = u + x - z
        wz = _apply(w_g, w_d, z)
        wu = wu + wx - wz
        resid = wz - y_rot
        objectives.append(0.5 * np.vdot(resid, resid).real + dropped
                          + lam * np.sum(np.abs(z)))
        if len(objectives) >= 2 and abs(objectives[-1] - objectives[-2]) <= (
            tol * max(1.0, abs(objectives[-2]))
        ):
            stalled += 1
        else:
            stalled = 0
        r_norm = np.linalg.norm(x - z)
        s_norm = rho * np.linalg.norm(z - z_old)
        eps_pri = sqrt_n * tol + tol * max(np.linalg.norm(x), np.linalg.norm(z))
        eps_dual = sqrt_n * tol + tol * rho * np.linalg.norm(u)
        if r_norm <= eps_pri and (s_norm <= eps_dual or stalled >= 5):
            converged = True
            break
    return LassoResult(z, converged, iterations, np.asarray(objectives),
                       float(r_norm), float(s_norm))


# (packets, delay grid, Doppler grid) of the ranging and velocity solves
SOLVE_SHAPES = {
    "ranging": (48, RANGING_DELAYS, RANGING_DOPPLERS),
    "velocity": (64, np.arange(0.0, 300e-9, 10e-9),
                 np.arange(-60.0, 60.0 + 1e-9, 0.5)),
}


def sparse_problem(shape, cfg, scale):
    """One capture of ``shape`` at ``cfg``'s carrier, times ``scale``, and
    the halves, data and lambda ``estimate_features_sparse`` solves with."""
    n_packets, delays, dopplers = SOLVE_SHAPES[shape]
    sched = TxSchedule(gaming_times(n_packets, seed=43, median_gap=0.015,
                                    sigma=0.9))
    h = scale * model_csi(cfg, sched.times, [(1e-4, 40e-9, 6.0),
                                             (5e-5, 90e-9, 0.0)],
                          snr_db=15, rng=43)
    y = h[:, 0, :]
    d, g = dense_dictionary(sched, cfg, delays, dopplers)
    doppler, delay = _rotate(g / np.sqrt(y.size)), _delay_half(cfg, delays)
    corr = _apply(doppler.w.conj().T, delay.w.conj().T,
                  _apply(doppler.uh, delay.uh, y))
    lam = 0.1 * float(np.max(np.abs(corr)))
    return (h, sched, cfg, delays, dopplers), (doppler, delay, y, lam)


def assert_same_bits(res, ref):
    assert res.coefficients.tobytes() == ref.coefficients.tobytes()
    assert res.objectives.tobytes() == ref.objectives.tobytes()
    assert (res.converged, res.iterations) == (ref.converged, ref.iterations)
    assert res.primal_residual == ref.primal_residual
    assert res.dual_residual == ref.dual_residual


class TestWorkspace:
    @pytest.mark.parametrize("carrier_hz", [2.4e9, 5.8e9])
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e3, 1e6])
    def test_matches_allocating_loop_bit_for_bit(self, carrier_hz, scale):
        # shapes interleaved, so each solve follows one on another shape
        cfg = RadioConfig(carrier_freq=carrier_hz)
        for shape in ["ranging", "velocity", "ranging"]:
            capture, problem = sparse_problem(shape, cfg, scale)
            for max_iters in (1, 2, 40):
                ref = reference_admm(*problem, max_iters, 1e-3)
                assert_same_bits(admm_lasso(*problem, max_iters=max_iters,
                                            tol=1e-3), ref)
                fv = estimate_features_sparse(*capture, max_iters=max_iters,
                                              tol=1e-3)
                assert (fv.coefficients.tobytes()
                        == ref.coefficients.T.tobytes())
                assert (fv.converged, fv.iterations) == (ref.converged,
                                                         ref.iterations)

    @pytest.mark.parametrize("case", ["random", "ranging"])
    def test_raw_matrices_match_rotated_halves(self, case):
        rng = np.random.default_rng(41)
        if case == "ranging":
            g, d = ranging_dictionary(41)
        else:
            g, d = random_pair(rng, ((6, 9), (52, 30)))
        y = random_matrix(rng, (g.shape[0], d.shape[0]))
        lam = 0.1 * np.max(np.abs(g.conj().T @ y @ d.conj()))
        for max_iters in (1, 40):
            raw = admm_lasso(g, d, y, lam, max_iters=max_iters, tol=1e-14)
            assert_same_bits(admm_lasso(_rotate(g), _rotate(d), y, lam,
                                        max_iters=max_iters, tol=1e-14), raw)
            assert_same_bits(admm_lasso(g, _rotate(d), y, lam,
                                        max_iters=max_iters, tol=1e-14), raw)

    def test_result_owns_its_coefficients(self):
        capture, (doppler, delay, y, lam) = sparse_problem("ranging", CFG, 1.0)
        first = admm_lasso(doppler, delay, y, lam, max_iters=3, tol=1e-14)
        kept = first.coefficients.copy()
        buffers = _workspace(first.coefficients.shape)
        assert _workspace(first.coefficients.shape) is buffers
        assert not any(np.shares_memory(first.coefficients, b)
                       for b in buffers)
        second = admm_lasso(doppler, delay, 2.0 * y, lam, max_iters=3,
                            tol=1e-14)
        assert not np.shares_memory(first.coefficients, second.coefficients)
        assert first.coefficients.tobytes() == kept.tobytes()
        assert second.coefficients.tobytes() != kept.tobytes()
        fv = estimate_features_sparse(*capture)
        assert not any(np.shares_memory(fv.coefficients, b) for b in buffers)

    def test_ranging_solve_allocates_one_atom_array(self):
        # tracemalloc sees every numpy data buffer, whatever the allocator
        # does with it; a warm-up builds the memos and the workspace
        capture, _ = sparse_problem("ranging", CFG, 1.0)
        estimate_features_sparse(*capture)
        atom_bytes = RANGING_DELAYS.size * RANGING_DOPPLERS.size * 16
        tracemalloc.start()
        try:
            fv = estimate_features_sparse(*capture, max_iters=5, tol=1e-14)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fv.iterations == 5
        assert peak < 2 * atom_bytes


# ---------------------------------------------------------------------------
# sparse delay/Doppler features


class TestSparseFeatures:
    def test_dictionary_adjoint_consistency(self):
        rng = np.random.default_rng(2)
        sched = TxSchedule(gaming_times(12, 9))
        delays = np.arange(0.0, 100e-9, 10e-9)
        dopplers = np.arange(-10.0, 10.1, 2.0)
        d_mat, g_mat = dense_dictionary(sched, CFG, delays, dopplers)
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

    def test_synthesized_echo_is_an_atom_of_the_delay_half(self):
        # the CSI the synthesizer makes and the dictionary the estimator
        # solves on come from one propagation model: a fixed monostatic
        # echo is its amplitude times the delay column at its own delay
        geom = ScenarioGeometry(targets=(PropagationPath(
            position=(4.0, 1.5, 0.0)),))
        times = np.array([0.0, 0.013, 0.05])
        csi = synthesize_csi_series(geom, CFG, times)
        alpha, tau, _ = resolve_paths(geom, CFG, times,
                                      from_db(geom.tx_power_dbm))
        # delays more than the inverse bandwidth apart, so D's columns are
        # well conditioned and the rank cut keeps every direction they span
        grid = tau[0, 0] + 100e-9 * np.arange(-2, 3)
        d = dense_dictionary(TxSchedule(times), CFG, grid, [0.0])[0]
        for row in csi[:, 0, :]:
            np.testing.assert_array_equal(row, alpha[0, 0] * d[:, 2])
        half = _delay_half(CFG, grid)
        np.testing.assert_allclose(half.uh.conj().T @ half.w, d, rtol=1e-12)

    def test_matches_lasso_on_explicit_dense_dictionary(self):
        times = gaming_times(12, seed=3)
        sched = TxSchedule(times)
        delays = np.arange(0.0, 150e-9, 10e-9)
        dopplers = np.arange(-10.0, 10.1, 2.0)
        h = model_csi(CFG, times, [(1.0, 60e-9, 4.0), (0.5, 120e-9, 0.0)],
                      snr_db=20, rng=3)
        fv = estimate_features_sparse(h, sched, CFG, delay_grid=delays,
                                      doppler_grid=dopplers)
        d_mat, g_mat = dense_dictionary(sched, CFG, delays, dopplers)
        # row (packet l, subcarrier k), column (Doppler j, delay i)
        a = np.kron(g_mat, d_mat) / np.sqrt(h.size)
        y = h.reshape(-1)
        lam = 0.1 * np.max(np.abs(a.conj().T @ y))
        res = dense_lasso(a, y, lam, max_iters=80, tol=1e-3)
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


def music_stack_loop(csi, cfg, subarray_len):
    """``range_music``'s snapshot stack built one window start at a time:
    every contiguous run of sorted bins, then every start in the run, then
    every packet. ``subarray_len`` None takes ``range_music``'s default."""
    signed = cfg.signed_index()
    order = np.argsort(signed)
    arr = csi[:, 0, order]
    runs = np.split(np.arange(signed.size),
                    np.flatnonzero(np.diff(signed[order]) != 1) + 1)
    if subarray_len is None:
        subarray_len = min(16, max(run.size for run in runs))
    snapshots = []
    for run in runs:
        if run.size < subarray_len:
            continue
        block = arr[:, run]
        for start in range(run.size - subarray_len + 1):
            snapshots.append(block[:, start : start + subarray_len])
    return np.concatenate(snapshots, axis=0)


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

    def test_default_subarray_fits_narrow_band(self):
        # a 32-point FFT leaves runs of 13 bins, shorter than the usual 16
        cfg = RadioConfig(fft_size=32, cyclic_prefix_len=8)
        h = model_csi(cfg, np.arange(20) / 40.0, [(1.0, 100e-9, 0.0)],
                      snr_db=20, rng=4)
        res = range_music(h, 1, cfg)
        ref = range_music(h, 1, cfg, subarray_len=13)
        np.testing.assert_array_equal(res.values, ref.values)
        np.testing.assert_array_equal(res.spectrum, ref.spectrum)

    def test_steering_is_built_once_per_spacing_and_subarray(self):
        h = model_csi(CFG, [0.0, 0.1], [(1.0, 60e-9, 0.0)])
        first, second = range_music(h, 1, CFG), range_music(h.copy(), 1, CFG)
        assert second.grid is first.grid
        grid, steer = _delay_steering(CFG.subcarrier_spacing, 16)
        assert grid is first.grid
        assert not grid.flags.writeable and not steer.flags.writeable
        np.testing.assert_array_equal(steer, delay_phase(
            np.arange(0.0, 500e-9, 1e-9),
            CFG.subcarrier_spacing * np.arange(16)).T)
        assert _delay_steering(CFG.subcarrier_spacing, 8)[1].shape == (8, 500)
        assert _delay_steering.cache_info().maxsize is not None

    @pytest.mark.parametrize("fft_size,cp_len",
                             [(16, 4), (33, 8), (64, 16), (128, 16)])
    @pytest.mark.parametrize("subarray_len", [None, 5])
    def test_snapshot_stack_matches_per_start_loop(self, fft_size, cp_len,
                                                   subarray_len, monkeypatch):
        cfg = RadioConfig(fft_size=fft_size, cyclic_prefix_len=cp_len)
        h = model_csi(cfg, gaming_times(12, seed=47),
                      [(1.0, 100e-9, 3.0), (0.6, 220e-9, 0.0)], snr_db=20,
                      rng=47)
        stacks = []

        def recording_music(snapshots, *args):
            stacks.append(snapshots)
            return _music(snapshots, *args)

        monkeypatch.setattr("isacsim.estimate._music", recording_music)
        res = range_music(h, 2, cfg, subarray_len=subarray_len)
        ref = music_stack_loop(h, cfg, subarray_len)
        assert stacks[0].shape == ref.shape
        assert stacks[0].tobytes() == ref.tobytes()
        grid, steer = _delay_steering(cfg.subcarrier_spacing, ref.shape[1])
        assert res.spectrum.tobytes() == _music(ref, 2, grid, steer)[2].tobytes()

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
                                           6.0 * np.sin(np.radians(30.0)), 0.0))
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
    """One device's fix: ``fuse_ml`` on that device's message alone, which
    lands within half a 0.25 m grid cell of the closed form."""

    @staticmethod
    def fix(range_m, aoa_deg, device_pos=(0.0, 0.0), heading_deg=0.0):
        x, y = device_pos
        reach = range_m + 1.0
        msg = SensingMessage("dev", 0.0, x, y, heading_deg, range_m, aoa_deg)
        res = fuse_ml([msg], bounds=(x - reach, x + reach, y - reach, y + reach))
        return np.array([res.x_m, res.y_m])

    def test_boresight(self):
        assert np.allclose(self.fix(5.0, 0.0), [5.0, 0.0], atol=0.125)

    def test_thirty_degrees(self):
        assert np.allclose(self.fix(5.0, 30.0), [4.330127, 2.5], atol=0.125)

    def test_device_pose_offsets(self):
        pos = self.fix(2.0, 0.0, device_pos=(1.0, 1.0), heading_deg=90.0)
        assert np.allclose(pos, [1.0, 3.0], atol=0.125)

    def test_missing_inputs_raise(self):
        with pytest.raises(ValueError, match="range_m must be finite"):
            SensingMessage("dev", 0.0, 0.0, 0.0, 0.0, float("nan"), 10.0)
        # a missing angle is a range-only view: the fix lands on the ring
        assert np.hypot(*self.fix(5.0, float("nan"))) == pytest.approx(
            5.0, abs=0.125)

    def test_error_propagation_first_order(self):
        truth_r, truth_deg = 7.0, 20.0
        sigma_r, sigma_deg = 0.3, 2.0
        rng = np.random.default_rng(17)
        ang = np.radians(truth_deg)
        truth = truth_r * np.array([np.cos(ang), np.sin(ang)])
        sq = []
        for _ in range(500):
            pos = self.fix(truth_r + rng.normal(0.0, sigma_r),
                           truth_deg + rng.normal(0.0, sigma_deg))
            sq.append(np.sum((pos - truth) ** 2))
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

    @pytest.mark.parametrize("name", sorted(_SHAPE_CALLS))
    @pytest.mark.parametrize("shape", [(0, 2, 52), (8, 0, 52), (8, 2, 0)],
                             ids=["packets", "antennas", "subcarriers"])
    def test_empty_axis_raises(self, name, shape):
        h = np.ones(shape, dtype=np.complex128)
        with pytest.raises(ValueError, match="no empty axis"):
            _SHAPE_CALLS[name](h)

    @pytest.mark.parametrize("name", sorted(_SHAPE_CALLS))
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)],
                             ids=["nan", "inf", "-inf-imag"])
    def test_non_finite_csi_raises(self, name, bad):
        h = np.ones((8, 2, 52), dtype=np.complex128)
        h[3, 0, 5] = bad
        with pytest.raises(ValueError, match="finite"):
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

    def test_dominant_skips_slow_atoms(self):
        coef = np.zeros((3, 2), dtype=np.complex128)
        coef[1, 0] = 2.0
        coef[2, 1] = 0.5
        kept = coef.copy()
        fv = FeatureVector(np.array([0.0, 1e-9, 2e-9]), np.array([0.0, 2.0]),
                           coef)
        assert fv.dominant(min_doppler_hz=1.0) == (2e-9, 2.0, 0.5)
        np.testing.assert_array_equal(fv.coefficients, kept)
        with pytest.raises(ValueError, match="cutoff"):
            fv.dominant(min_doppler_hz=3.0)

    def test_snap_to_uniform_is_identity_on_uniform(self):
        times = np.arange(16) / 40.0
        h = model_csi(CFG, times, [(1.0, 100e-9, 4.0)])
        h_u, sched_u = snap_to_uniform(h, TxSchedule(times))
        assert np.array_equal(h_u, h)
        assert np.allclose(sched_u.times, times)
