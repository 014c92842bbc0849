import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavemesh as wm
from wavemesh import autodiff as ad
from wavemesh import wavelets
from wavemesh.errors import NotTightFrame, SpectrumMismatch
from wavemesh.mesh import TriMesh
from wavemesh.operators import assemble_lbo
from wavemesh.spectrum import Spectrum, solve_eigs
from wavemesh.wavelets import (
    KernelSpec,
    analyze,
    build_filterbank,
    dense_filter_matrix,
    kernel_g,
    kernel_h,
    select_scales,
    synthesize,
    wavelet_at,
)

from .conftest import build_bank_for, grid_mesh, jittered_grid


@pytest.fixture(scope="module")
def small_mesh():
    return jittered_grid(4, 4, seed=11)  # 25 vertices


@pytest.fixture(scope="module")
def small_bank(small_mesh):
    return build_bank_for(small_mesh, k=15, directions=1, scales=4, tighten=True)


@pytest.fixture(scope="module")
def aniso_bank_30():
    mesh = jittered_grid(5, 4, seed=12)  # 30 vertices
    return build_bank_for(mesh, k=18, directions=4, alpha=50.0, scales=4,
                          tighten=False)


class TestKernels:
    def test_band_pass_values(self):
        assert kernel_g(0.0) == 0.0
        assert abs(kernel_g(1.0) - 1.0) < 1e-15
        assert abs(kernel_g(2.0) - 4.0 * math.exp(-3.0)) < 1e-15
        assert abs(kernel_g(2.0) - 0.199148) < 1e-6

    def test_band_pass_negative_rejected(self):
        with pytest.raises(ValueError):
            kernel_g(-0.1)

    @settings(max_examples=100, deadline=None)
    @given(x=st.floats(1e-6, 20.0))
    def test_band_pass_positive_and_peaked(self, x):
        # positivity is testable only below the exp(-x^2) underflow point
        assert kernel_g(x) > 0.0
        assert kernel_g(x) <= 1.0 + 1e-15

    def test_low_pass_values(self):
        assert kernel_h(0.0, 2.0) == 1.0
        assert abs(kernel_h(2.0, 2.0) - math.exp(-1.0)) < 1e-15
        assert kernel_h(20.0, 2.0) == 0.0  # exp(-1e4) underflows

    def test_low_pass_monotone(self):
        xs = np.linspace(0.0, 10.0, 200)
        vals = kernel_h(xs, 1.7)
        assert (np.diff(vals) <= 1e-18).all()

    def test_low_pass_errors(self):
        with pytest.raises(ValueError):
            kernel_h(-1.0, 1.0)
        with pytest.raises(ValueError):
            kernel_h(1.0, 0.0)

    def test_select_scales_examples(self):
        assert np.allclose(select_scales(10.0, 2), [0.1, 4.0], atol=1e-15)
        assert np.allclose(select_scales(10.0, 1), [0.2], atol=1e-15)
        scales = select_scales(3.3, 6)
        assert (scales > 0).all()
        assert (np.diff(scales) > 0).all()

    def test_select_scales_errors(self):
        with pytest.raises(ValueError):
            select_scales(0.0, 3)
        with pytest.raises(ValueError):
            select_scales(1.0, 0)


class TestBankConstruction:
    def test_tight_frame_on_sampled_eigenvalues(self, small_bank):
        resp = small_bank.responses
        frame = small_bank.scaling_responses**2 + (resp**2).sum(axis=1)
        assert np.abs(frame - 1.0).max() < 1e-10
        assert np.abs(small_bank.frame_bounds - 1.0).max() < 1e-10

    def test_sixteen_filters(self, aniso_bank_30):
        assert aniso_bank_30.n_filters == 16
        assert aniso_bank_30.n_directions == 4
        assert aniso_bank_30.n_scales == 4

    def test_untight_frame_bounds_reported(self, aniso_bank_30):
        resp = aniso_bank_30.responses
        frame = aniso_bank_30.scaling_responses**2 + (resp**2).sum(axis=1)
        assert np.allclose(aniso_bank_30.frame_bounds[:, 0], frame.min(axis=1))
        assert np.allclose(aniso_bank_30.frame_bounds[:, 1], frame.max(axis=1))

    def test_positive_l1_normalizers(self, aniso_bank_30):
        assert (aniso_bank_30.l1_normalizers > 0).all()

    def test_spectrum_mismatch(self, small_mesh, ico1):
        a = solve_eigs(assemble_lbo(small_mesh), 10)
        b = solve_eigs(assemble_lbo(ico1), 10)
        kernel = KernelSpec.mexican_hat(4.0, 2)
        with pytest.raises(SpectrumMismatch):
            build_filterbank([a, b], kernel)

    def test_normalizers_match_blockwise_and_dense(self, small_bank):
        for j in range(small_bank.n_scales):
            psi = dense_filter_matrix(small_bank, 0, j)
            assert np.allclose(np.abs(psi).sum(axis=0),
                               small_bank.l1_normalizers[0, j], atol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 30])
    def test_normalizers_match_dense_over_panels(self, aniso_bank_30,
                                                 monkeypatch, block):
        # one-row panels, a ragged last panel (30 = 4 * 7 + 2), and a single
        # panel: each must give the full column sums of the dense matrix
        monkeypatch.setattr(wavelets, "L1_BLOCK", block)
        bank = build_filterbank(aniso_bank_30.spectra, aniso_bank_30.kernel,
                                tighten=aniso_bank_30.tighten)
        for m in range(bank.n_directions):
            for j in range(bank.n_scales):
                want = np.abs(dense_filter_matrix(bank, m, j)).sum(axis=0)
                got = bank.l1_normalizers[m, j]
                assert np.abs(got / want - 1.0).max() < 1e-12

    def test_peak_memory_below_one_dense_filter(self, monkeypatch):
        import tracemalloc
        monkeypatch.setattr(wavelets, "L1_BLOCK", 16)
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        spectra = [solve_eigs(assemble_lbo(mesh), 20)]
        kernel = KernelSpec.mexican_hat(spectra[0].lambda_max, 4)
        n = mesh.n_vertices
        tracemalloc.start()
        try:
            build_filterbank(spectra, kernel)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8


class TestLocalizedWavelets:
    def test_matches_brute_force_sum(self, small_bank):
        # direct summation over the spectral definition of the localized
        # wavelet: sum_k a(v) g(t lambda_k) phi_k(v) phi_k(u)
        spec = small_bank.spectra[0]
        phi, lam, mass = spec.eigenvectors, spec.eigenvalues, spec.mass
        for j in (0, 2):
            resp = small_bank.responses[0, j]
            for v in (0, 7, 24):
                brute = np.zeros(spec.n)
                for k in range(spec.k):
                    brute += mass[v] * resp[k] * phi[v, k] * phi[:, k]
                got = wavelet_at(small_bank, 0, j, v)
                assert np.abs(got - brute).max() < 1e-12

    def test_response_recovery_in_mass_inner_product(self, small_bank):
        spec = small_bank.spectra[0]
        w = wavelet_at(small_bank, 0, 1, 5)
        for k in (0, 3, 9):
            got = spec.eigenvectors[:, k] @ (spec.mass * w)
            want = spec.mass[5] * small_bank.responses[0, 1][k] \
                * spec.eigenvectors[5, k]
            assert abs(got - want) < 1e-10

    def test_no_constant_component(self, small_bank):
        # g vanishes at lambda=0, so wavelets are orthogonal (in the
        # area-weighted inner product) to the constant direction
        w = wavelet_at(small_bank, 0, 0, 3)
        const = np.ones(small_bank.n_vertices)
        assert abs(const @ (small_bank.spectra[0].mass * w)) < 1e-10

    def test_rigid_motion_invariance(self):
        from .conftest import perturbed_sphere
        from .test_mesh import rotation_matrix
        base = perturbed_sphere(3)
        bank_a = build_bank_for(base, k=12, directions=1, scales=3)
        r = rotation_matrix([0.2, 1.0, -0.4], 0.9)
        moved = TriMesh(base.vertices @ r.T + 2.0, base.faces.copy())
        bank_b = build_bank_for(moved, k=12, directions=1, scales=3)
        for v in (0, 17):
            wa = wavelet_at(bank_a, 0, 1, v)
            wb = wavelet_at(bank_b, 0, 1, v)
            assert np.abs(wa - wb).max() < 1e-6

    def test_eigenvalue_cluster_invariance(self, ico1):
        # remixing eigenvectors of a degenerate cluster with an orthogonal
        # matrix leaves the filter (a function of lambda alone) unchanged
        spec = solve_eigs(assemble_lbo(ico1), 8)
        lam = spec.eigenvalues
        assert np.ptp(lam[1:4]) < 1e-6 * lam[3]  # sphere l=1 cluster
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        phi2 = spec.eigenvectors.copy()
        phi2[:, 1:4] = phi2[:, 1:4] @ q
        remixed = Spectrum(eigenvalues=lam.copy(), eigenvectors=phi2,
                           mass=spec.mass.copy(), k=spec.k)
        from .conftest import test_kernel
        kernel = test_kernel([spec], 3, tighten=True)
        bank_a = build_filterbank([spec], kernel)
        bank_b = build_filterbank([remixed], kernel)
        for v in (2, 30):
            wa = wavelet_at(bank_a, 0, 0, v)
            wb = wavelet_at(bank_b, 0, 0, v)
            assert np.abs(wa - wb).max() < 1e-8

    def test_index_errors(self, small_bank):
        with pytest.raises(IndexError):
            wavelet_at(small_bank, 5, 0, 0)
        with pytest.raises(IndexError):
            wavelet_at(small_bank, 0, 9, 0)
        with pytest.raises(IndexError):
            wavelet_at(small_bank, 0, 0, 10**6)


class TestAnalysisSynthesis:
    def test_eigenvector_input_gives_scaled_response(self, small_bank):
        spec = small_bank.spectra[0]
        k = 4
        coeffs = analyze(small_bank, spec.eigenvectors[:, k])
        for j in range(small_bank.n_scales):
            want = spec.mass * small_bank.responses[0, j][k] \
                * spec.eigenvectors[:, k]
            assert np.abs(coeffs.wavelet[0, j] - want).max() < 1e-10

    def test_constant_input(self, small_bank):
        coeffs = analyze(small_bank, np.ones(small_bank.n_vertices))
        assert np.abs(coeffs.wavelet).max() < 1e-10
        assert np.abs(coeffs.scaling).max() > 1e-3

    def test_matches_dense_oracle(self, aniso_bank_30):
        rng = np.random.default_rng(0)
        f = rng.standard_normal(aniso_bank_30.n_vertices)
        coeffs = analyze(aniso_bank_30, f)
        for m in range(aniso_bank_30.n_directions):
            spec = aniso_bank_30.spectra[m]
            for j in range(aniso_bank_30.n_scales):
                dense = np.empty(spec.n)
                for v in range(spec.n):
                    psi_v = wavelet_at(aniso_bank_30, m, j, v)
                    dense[v] = psi_v @ (spec.mass * f)
                assert np.abs(coeffs.wavelet[m, j] - dense).max() < 1e-10

    def test_parseval_reconstruction_in_span(self, small_bank):
        rng = np.random.default_rng(1)
        spec = small_bank.spectra[0]
        f = spec.eigenvectors @ rng.standard_normal(spec.k)
        rec = synthesize(small_bank, analyze(small_bank, f), 0)
        assert np.linalg.norm(rec - f) / np.linalg.norm(f) < 1e-6

    def test_constant_reconstructed_by_scaling_term(self, small_bank):
        spec = small_bank.spectra[0]
        phi0 = spec.eigenvectors[:, 0]
        coeffs = analyze(small_bank, phi0)
        rec = synthesize(small_bank, coeffs, 0)
        assert np.abs(rec - phi0).max() < 1e-8
        assert np.abs(coeffs.wavelet).max() < 1e-8  # wavelet terms vanish

    def test_out_of_span_projects(self, small_bank):
        rng = np.random.default_rng(2)
        spec = small_bank.spectra[0]
        f = rng.standard_normal(spec.n)
        rec = synthesize(small_bank, analyze(small_bank, f), 0)
        proj = spec.eigenvectors @ (spec.eigenvectors.T @ (spec.mass * f))
        assert np.linalg.norm(rec - proj) / np.linalg.norm(proj) < 1e-6

    def test_requires_tight_frame(self, aniso_bank_30):
        coeffs = analyze(aniso_bank_30, np.ones(aniso_bank_30.n_vertices))
        with pytest.raises(NotTightFrame):
            synthesize(aniso_bank_30, coeffs, 0)

    def test_length_mismatch(self, small_bank):
        with pytest.raises(ValueError):
            analyze(small_bank, np.ones(7))


def apply_one(bank, direction, scale, x):
    """Filter (direction, scale) applied to x through wavelet_mix: that
    filter's mixing matrix is the identity and every other one is zero.
    Returns (output Tensor, input Tensor)."""
    d = x.shape[1]
    thetas = [[ad.constant(np.eye(d) if (m, j) == (direction, scale)
                           else np.zeros((d, d)))
               for j in range(bank.n_scales)]
              for m in range(bank.n_directions)]
    xt = ad.param(x)
    return ad.wavelet_mix(xt, thetas, bank), xt


class TestApplyFilter:
    """Each filter of the bank, applied by the network's kernel."""

    def test_matches_dense_oracle_all_filters(self, aniso_bank_30):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((aniso_bank_30.n_vertices, 6))
        for m in range(4):
            for j in range(4):
                dense = dense_filter_matrix(aniso_bank_30, m, j, normalized=True)
                want = dense.T @ x
                got = apply_one(aniso_bank_30, m, j, x)[0].value
                assert np.abs(want - got).max() < 1e-10

    def test_normalized_columns_unit_l1(self, aniso_bank_30):
        psi_bar = dense_filter_matrix(aniso_bank_30, 2, 1, normalized=True)
        assert np.abs(np.abs(psi_bar).sum(axis=0) - 1.0).max() < 1e-9

    def test_constants_annihilated(self, aniso_bank_30):
        x = np.ones((aniso_bank_30.n_vertices, 3)) * 4.2
        out = apply_one(aniso_bank_30, 1, 2, x)[0].value
        assert np.abs(out).max() < 1e-9

    def test_linearity(self, aniso_bank_30):
        rng = np.random.default_rng(4)
        n = aniso_bank_30.n_vertices
        x, y = rng.standard_normal((2, n, 4))
        a, b = 1.3, -0.7

        def f(z):
            return apply_one(aniso_bank_30, 0, 1, z)[0].value

        lhs = f(a * x + b * y)
        rhs = a * f(x) + b * f(y)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_adjoint_identity(self, aniso_bank_30):
        # the x-gradient of <filter(x), y> is the filter's adjoint applied
        # to y, so <filter(x), y> = <x, adjoint(y)>
        rng = np.random.default_rng(5)
        n = aniso_bank_30.n_vertices
        x = rng.standard_normal((n, 5))
        y = rng.standard_normal((n, 5))
        out, xt = apply_one(aniso_bank_30, 3, 2, x)
        ad.backward(ad.Tensor(np.float64((out.value * y).sum()),
                              parents=((out, lambda g: g * y),)))
        assert abs((out.value * y).sum() - (x * xt.grad).sum()) < 1e-10
