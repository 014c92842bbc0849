import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import wavemesh as wm
from wavemesh import autodiff as ad
from wavemesh import wavelets
from wavemesh.errors import SpectrumMismatch, ZeroColumnNorm
from wavemesh.mesh import TriMesh
from wavemesh.spectrum import solve_eigs
from wavemesh.wavelets import (
    KernelSpec,
    build_filterbank,
    dense_filter_matrix,
    kernel_g,
    kernel_h,
    localized_wavelet,
    passbands,
    select_scales,
)

from .conftest import build_bank_for, jittered_grid, solve_lbo, spectra_for
from .conftest import test_kernel as kernel_for  # not collected as a test
from .conftest import traced_peak


@pytest.fixture(scope="module")
def small_mesh():
    return jittered_grid(4, 4, seed=11)  # 25 vertices


@pytest.fixture(scope="module")
def small_spectra(small_mesh):
    return spectra_for(small_mesh, k=15, directions=1)


@pytest.fixture(scope="module")
def small_bank(small_spectra):
    return build_filterbank(small_spectra, kernel_for(small_spectra, 4))


@pytest.fixture(scope="module")
def aniso_spectra_30():
    mesh = jittered_grid(5, 4, seed=12)  # 30 vertices
    return spectra_for(mesh, k=18, directions=4, alpha=50.0)


@pytest.fixture(scope="module")
def aniso_bank_30(aniso_spectra_30):
    return build_filterbank(aniso_spectra_30,
                            kernel_for(aniso_spectra_30, 4))


@pytest.fixture(scope="module", params=["ico3", "bar3", "open_cylinder"])
def spectra_40(request):
    """Four directions of a closed sphere, a closed box with sharp edges
    and an open cylinder, at K 40 and alpha 50."""
    mesh = (wm.gen_base("bar", 3) if request.param == "bar3"
            else request.getfixturevalue(request.param))
    return spectra_for(mesh, k=40, directions=4, alpha=50.0)


@pytest.fixture(scope="module")
def bank_40(spectra_40):
    return build_filterbank(spectra_40, kernel_for(spectra_40, 4))


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
    def test_sixteen_filters(self, aniso_bank_30):
        assert aniso_bank_30.n_directions == 4
        assert aniso_bank_30.n_scales == 4

    def test_untight_frame_bounds_reported(self, aniso_bank_30,
                                           aniso_spectra_30):
        resp = aniso_bank_30.responses
        cutoff = aniso_bank_30.kernel.cutoff
        low = np.stack([kernel_h(s.eigenvalues, cutoff)
                        for s in aniso_spectra_30])
        frame = low**2 + (resp**2).sum(axis=1)
        assert np.allclose(aniso_bank_30.frame_bounds[:, 0], frame.min(axis=1))
        assert np.allclose(aniso_bank_30.frame_bounds[:, 1], frame.max(axis=1))

    def test_positive_l1_normalizers(self, aniso_bank_30):
        assert (aniso_bank_30.l1_normalizers > 0).all()

    def test_spectrum_mismatch(self, small_mesh, ico1):
        a = solve_lbo(small_mesh, 10)
        b = solve_lbo(ico1, 10)
        kernel = kernel_for([a], 2)
        build_filterbank([a], kernel)
        # b is read after a's direction is built, so a's must fit the kernel
        with pytest.raises(SpectrumMismatch):
            build_filterbank([a, b], kernel)

    def test_spectra_with_different_masses_mismatch(self, small_mesh):
        # same N and K, so only the mass check can tell them apart
        a = solve_lbo(small_mesh, 10)
        b = dataclasses.replace(a, mass=a.mass * (1 + 1e-12))
        kernel = KernelSpec.mexican_hat(a.lambda_max, 1)
        bank = build_filterbank([a, dataclasses.replace(a)], kernel)
        assert np.array_equal(bank.basis[0], bank.basis[1])
        with pytest.raises(SpectrumMismatch, match="mass"):
            build_filterbank([a, b], kernel)

    @pytest.mark.parametrize("base, k, scales, solver, counts", [
        (("cylinder", 2), 40, 4, "lanczos", (39, 41)),
        (("icosphere", 0), 6, 1, "dense", (4, 9)),
    ], ids=["cylinder-lanczos", "icosahedron-dense"])
    def test_bank_ignores_the_basis_of_a_cut_eigenspace(self, base, k, scales,
                                                        solver, counts):
        # at alpha 0 the open cylinder at res 2 has lambda_40 = lambda_41,
        # so K 40 returns one copy of that eigenspace (inertia counts 39
        # and 41); the icosahedron's lambda_5..9 are equal, so K 6 returns
        # two copies (counts 4 and 9) from the dense solver. Replacing the
        # copies by another orthonormal set of the eigenspace, taken from
        # the dense oracle, must leave every filter and normalizer
        # unchanged; under counts that miss the cut the filters moved by
        # over 1%
        mesh = wm.gen_base(*base)
        stiff = wm.assemble_albo(mesh, wm.estimate_frames(mesh), 0.0, 0.0)
        spec = solve_eigs(stiff, mesh.mass, k)
        whole, plus = counts
        assert spec.provenance["solver"] == solver
        assert (spec.n_whole, spec.provenance["n_below_mu_plus"]) == counts
        space = scipy.linalg.eigh(stiff.toarray(),
                                  np.diag(mesh.mass))[1][:, whole:plus]
        c = space.T @ (mesh.mass[:, None] * spec.eigenvectors[:, whole:])
        # the copies lie in the space
        np.testing.assert_allclose(np.linalg.norm(c, axis=0), 1, atol=1e-9)
        turn = np.linalg.qr(np.random.default_rng(0).standard_normal(
            (plus - whole,) * 2))[0]
        turned = spec.eigenvectors.copy()
        turned[:, whole:] = space @ (turn @ c)
        kernel = KernelSpec.mexican_hat(spec.lambda_max, scales)

        def banks(returned):
            """The banks of `returned` and of its copy with the copies of
            the cut eigenspace turned."""
            return [build_filterbank([s], kernel) for s in (
                returned, dataclasses.replace(returned, eigenvectors=turned))]

        a, b = banks(spec)
        assert (a.responses[0, :, whole:] == 0).all()
        np.testing.assert_allclose(b.l1_normalizers, a.l1_normalizers,
                                   rtol=1e-12, atol=0)
        for j in range(scales):
            want = dense_filter_matrix(a, 0, j)
            np.testing.assert_allclose(dense_filter_matrix(b, 0, j), want,
                                       rtol=0, atol=1e-12 * np.abs(want).max())
        a, b = banks(dataclasses.replace(
            spec, provenance=dict(spec.provenance, n_below_mu_plus=k)))
        want = dense_filter_matrix(a, 0, 0)
        assert np.abs(dense_filter_matrix(b, 0, 0) - want).max() \
            > 0.01 * np.abs(want).max()

    def test_normalizers_match_blockwise_and_dense(self, small_bank):
        for j in range(small_bank.n_scales):
            psi = dense_filter_matrix(small_bank, 0, j)
            assert np.allclose(np.abs(psi).sum(axis=0),
                               small_bank.l1_normalizers[0, j], atol=1e-12)

    @pytest.mark.parametrize("block", [1, 7, 30])
    def test_normalizers_match_dense_over_panels(self, aniso_bank_30,
                                                 aniso_spectra_30,
                                                 monkeypatch, block):
        # one-row panels, a ragged last panel (30 = 4 * 7 + 2), and a single
        # panel: each must give the full column sums of the dense matrix
        monkeypatch.setattr(wavelets, "L1_BLOCK", block)
        bank = build_filterbank(aniso_spectra_30, aniso_bank_30.kernel)
        # the coarse scales are band-limited, so the dense comparison
        # covers filters summed over fewer than K eigenpairs
        assert (passbands(bank.responses) < aniso_spectra_30[0].k).any()
        for m in range(bank.n_directions):
            for j in range(bank.n_scales):
                want = np.abs(dense_filter_matrix(bank, m, j)).sum(axis=0)
                got = bank.l1_normalizers[m, j]
                assert np.abs(got / want - 1.0).max() < 1e-12

    def test_peak_memory_below_one_dense_filter(self, monkeypatch):
        monkeypatch.setattr(wavelets, "L1_BLOCK", 16)
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        spectra = [solve_lbo(mesh, 20)]
        kernel = KernelSpec.mexican_hat(spectra[0].lambda_max, 4)
        n = mesh.n_vertices
        peak, _ = traced_peak(lambda: build_filterbank(spectra, kernel))
        assert peak < n * n * 8

    @pytest.mark.parametrize("block", [7, 30])
    def test_buffered_panels_match_allocated_panels_bit_for_bit(
            self, aniso_bank_30, aniso_spectra_30, monkeypatch, block):
        # the same GEMMs as forming each panel and scaled basis anew
        monkeypatch.setattr(wavelets, "L1_BLOCK", block)
        bank = build_filterbank(aniso_spectra_30, aniso_bank_30.kernel)
        bands = passbands(bank.responses)
        for m, spec in enumerate(aniso_spectra_30):
            n, mass = spec.n, spec.mass
            for j in range(bank.n_scales):
                phi = spec.eigenvectors[:, :bands[m, j]]
                scaled = phi * bank.responses[m, j, :bands[m, j]]
                want = np.zeros(n)
                for s in range(0, n, block):
                    e = min(s + block, n)
                    panel = np.abs(phi[s:e] @ scaled[s:].T)
                    want[s:] += mass[s:e] @ panel
                    want[s:e] += panel[:, e - s:] @ mass[e:]
                assert np.array_equal(bank.l1_normalizers[m, j], want)

    def test_build_holds_one_panel_and_one_scaled_basis(self, monkeypatch):
        # consecutive panels and consecutive filters' scaled bases share a
        # buffer each: the rise is one L1_BLOCK x N panel, one N x K basis,
        # the bank's M x N x K basis and M x J x N normalizers, plus
        # vectors of length N and the two iteration buffers numpy's
        # multiply takes for a strided basis
        block = 16
        monkeypatch.setattr(wavelets, "L1_BLOCK", block)
        mesh = jittered_grid(29, 29, seed=13)  # 900 vertices
        spectra = spectra_for(mesh, k=60, directions=2, alpha=50.0)
        kernel = KernelSpec.mexican_hat(spectra[0].lambda_max, 4)
        n, k = mesh.n_vertices, 60
        peak, _ = traced_peak(lambda: build_filterbank(spectra, kernel))
        # bound 1658 kB; measured 1615 kB, 1712 kB when each panel is
        # allocated anew, and 2414 kB when each scaled basis is too
        assert peak < ((block * n + n * k + 2 * n * k + 2 * 4 * n + 8 * n)
                       * 8 + 2 * np.getbufsize() * 8), peak

    @pytest.mark.parametrize("block", [1, 7, 30])
    def test_float32_normalizers_match_dense_within_rounding(
            self, bank_40, spectra_40, monkeypatch, block):
        # float32 rounds each operation by at most u = 2^-24. Column v's
        # normalizer L_v = sum_u a(u) |S(u, v)| takes, per entry S(u, v),
        # kb + 4 roundings (the casts of phi_u, phi_v and r, the scaled
        # product, and the kb steps of the inner product), each of at most
        # u a(u) T(u, v) with T = |Phi| diag|r| |Phi|^T; and N + 1 more (the
        # cast of a(u) and the steps of the sum over u), each of at most
        # u L_v.
        # Independent roundings add in quadrature (Higham and Mary 2019,
        # "A new approach to probabilistic rounding error analysis"), so
        # the error is of the order of the root sum of squares of these
        # bounds. Twice that is 2.1e-6 to 3.0e-6 relative on these meshes,
        # and the measured errors reach at most 0.44 of it (one-row panels)
        monkeypatch.setattr(wavelets, "L1_BLOCK", block)
        bank = build_filterbank(spectra_40, bank_40.kernel, np.float32)
        assert bank.l1_normalizers.dtype == np.float64
        # the bank stores the pass's cast of each basis
        assert bank.basis.dtype == np.float32
        assert np.array_equal(bank.basis, bank_40.basis.astype(np.float32))
        u = np.finfo(np.float32).eps / 2
        bands = passbands(bank.responses)
        for m, spec in enumerate(spectra_40):
            for j in range(bank.n_scales):
                kb = bands[m, j]
                want = np.abs(dense_filter_matrix(bank_40, m, j)).sum(axis=0)
                phi = np.abs(spec.eigenvectors[:, :kb])
                t = (phi * np.abs(bank.responses[m, j, :kb])) @ phi.T
                rss = u * np.sqrt((kb + 4) * (spec.mass**2 @ t**2)
                                  + (spec.n + 1) * want**2)
                err = np.abs(bank.l1_normalizers[m, j] - want)
                assert (err <= 2 * rss).all(), (m, j, (err / want).max())
        # the pass ran in float32: the float64 pass rounds 2^29 times finer
        assert not np.array_equal(bank.l1_normalizers, bank_40.l1_normalizers)

    def test_float32_pass_holds_no_more_than_the_float64_pass(self):
        # test_build_holds_one_panel_and_one_scaled_basis's 900-vertex grid,
        # at the default L1_BLOCK, where the panel dominates, and at 16,
        # where the basis does: the float32 pass holds one cast basis
        # besides its scaled basis, and half-size panels
        mesh = jittered_grid(29, 29, seed=13)  # 900 vertices
        spectra = spectra_for(mesh, k=60, directions=2, alpha=50.0)
        kernel = KernelSpec.mexican_hat(spectra[0].lambda_max, 4)
        for block in (wavelets.L1_BLOCK, 16):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(wavelets, "L1_BLOCK", block)
                peak64, _ = traced_peak(
                    lambda: build_filterbank(spectra, kernel, np.float64))
                peak32, _ = traced_peak(
                    lambda: build_filterbank(spectra, kernel, np.float32))
            assert peak32 <= peak64, (block, peak32, peak64)


class TestPassbands:
    def test_flat_response_keeps_all(self):
        assert passbands(np.full((2, 3, 7), 0.4)).tolist() == [[7] * 3] * 2

    @pytest.mark.parametrize("i", [0, 3, 8])
    def test_underflow_after_index_keeps_prefix(self, i):
        resp = np.zeros((1, 1, 10))
        resp[0, 0, :i + 1] = np.linspace(1.0, 0.5, i + 1)
        assert passbands(resp)[0, 0] == i + 1
        # terms below eps * max are dropped too, terms just above are kept
        resp[0, 0, i + 1:] = 1e-17
        assert passbands(resp)[0, 0] == i + 1
        resp[0, 0, 9] = 1e-15
        assert passbands(resp)[0, 0] == 10

    def test_null_eigenvalue_stays_inside(self):
        resp = kernel_g(np.linspace(0.0, 20.0, 50))[None, None, :]
        assert resp[0, 0, 0] == 0.0
        band = passbands(resp)[0, 0]
        assert 1 < band < 50
        assert (resp[0, 0, 1:band] > 0).all()

    @pytest.mark.parametrize("value", [0.0, np.nan, np.inf])
    def test_dead_filter_has_empty_band(self, value):
        resp = np.ones((2, 2, 5))
        resp[1, 0] = 0.0
        resp[1, 0, 2] = value
        assert passbands(resp).tolist() == [[5, 5], [0, 5]]

    def test_all_zero_filter_raises_zero_column_norm(self, small_spectra):
        # t = 0 puts every eigenvalue at g(0) = 0
        kernel = KernelSpec(scales=np.array([0.0, 1.0]), cutoff=1.0)
        with pytest.raises(ZeroColumnNorm, match="scale 0"):
            build_filterbank(small_spectra, kernel)

    def test_all_zero_filter_raises_zero_column_norm_in_float32(
            self, small_spectra):
        kernel = KernelSpec(scales=np.array([0.0, 1.0]), cutoff=1.0)
        with pytest.raises(ZeroColumnNorm, match="scale 0"):
            build_filterbank(small_spectra, kernel, np.float32)


class TestLocalizedWavelets:
    def test_matches_brute_force_sum(self, small_bank, small_spectra):
        # direct summation over the spectral definition of the localized
        # wavelet: sum_k a(v) g(t lambda_k) phi_k(v) phi_k(u)
        spec = small_spectra[0]
        phi, lam, mass = spec.eigenvectors, spec.eigenvalues, spec.mass
        for j in (0, 2):
            resp = small_bank.responses[0, j]
            for v in (0, 7, 24):
                brute = np.zeros(spec.n)
                for k in range(spec.k):
                    brute += mass[v] * resp[k] * phi[v, k] * phi[:, k]
                got = localized_wavelet(small_bank.basis[0], small_bank.mass,
                                        small_bank.responses[0, j], v)
                assert np.abs(got - brute).max() < 1e-12

    def test_response_recovery_in_mass_inner_product(self, small_bank,
                                                     small_spectra):
        spec = small_spectra[0]
        w = localized_wavelet(small_bank.basis[0], small_bank.mass,
                              small_bank.responses[0, 1], 5)
        for k in (0, 3, 9):
            got = spec.eigenvectors[:, k] @ (spec.mass * w)
            want = spec.mass[5] * small_bank.responses[0, 1][k] \
                * spec.eigenvectors[5, k]
            assert abs(got - want) < 1e-10

    def test_no_constant_component(self, small_bank):
        # g vanishes at lambda=0, so wavelets are orthogonal (in the
        # area-weighted inner product) to the constant direction
        w = localized_wavelet(small_bank.basis[0], small_bank.mass,
                              small_bank.responses[0, 0], 3)
        const = np.ones(small_bank.n_vertices)
        assert abs(const @ (small_bank.mass * w)) < 1e-10

    def test_rigid_motion_invariance(self):
        from .conftest import perturbed_sphere
        from .test_mesh import rotation_matrix
        base = perturbed_sphere(3)
        bank_a = build_bank_for(base, k=12, directions=1, scales=3)
        r = rotation_matrix([0.2, 1.0, -0.4], 0.9)
        moved = TriMesh(base.vertices @ r.T + 2.0, base.faces.copy())
        bank_b = build_bank_for(moved, k=12, directions=1, scales=3)
        for v in (0, 17):
            wa = localized_wavelet(bank_a.basis[0], bank_a.mass,
                                   bank_a.responses[0, 1], v)
            wb = localized_wavelet(bank_b.basis[0], bank_b.mass,
                                   bank_b.responses[0, 1], v)
            assert np.abs(wa - wb).max() < 1e-6

    def test_eigenvalue_cluster_invariance(self, ico1):
        # remixing eigenvectors of a degenerate cluster with an orthogonal
        # matrix leaves the filter (a function of lambda alone) unchanged
        spec = solve_lbo(ico1, 8)
        lam = spec.eigenvalues
        assert np.ptp(lam[1:4]) < 1e-6 * lam[3]  # sphere l=1 cluster
        rng = np.random.default_rng(5)
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        phi2 = spec.eigenvectors.copy()
        phi2[:, 1:4] = phi2[:, 1:4] @ q
        # replace keeps the inertia counts: K 8 cuts the l=2 cluster, and
        # both banks must drop the same copies of it
        remixed = dataclasses.replace(spec, eigenvectors=phi2)
        from .conftest import test_kernel
        kernel = test_kernel([spec], 3)
        bank_a = build_filterbank([spec], kernel)
        bank_b = build_filterbank([remixed], kernel)
        for v in (2, 30):
            wa = localized_wavelet(bank_a.basis[0], bank_a.mass,
                                   bank_a.responses[0, 0], v)
            wb = localized_wavelet(bank_b.basis[0], bank_b.mass,
                                   bank_b.responses[0, 0], v)
            assert np.abs(wa - wb).max() < 1e-8

    def test_index_errors(self, small_bank):
        shape = small_bank.l1_normalizers.shape
        with pytest.raises(IndexError):
            wavelets.check_indices(shape, 5, 0, 0)
        with pytest.raises(IndexError):
            wavelets.check_indices(shape, 0, 9, 0)
        with pytest.raises(IndexError):
            wavelets.check_indices(shape, 0, 0, 10**6)


def apply_one(bank, direction, scale, x):
    """Filter (direction, scale) applied to x through wavelet_mix: that
    filter's mixing matrix is the identity and every other one is zero.
    Returns (output, back)."""
    d = x.shape[1]
    thetas = [[np.eye(d) if (m, j) == (direction, scale) else np.zeros((d, d))
               for j in range(bank.n_scales)]
              for m in range(bank.n_directions)]
    return ad.wavelet_mix(x, thetas, ad.MixBank.of(bank, x.dtype))


class TestApplyFilter:
    """Each filter of the bank, applied by the network's kernel."""

    def test_matches_dense_oracle_all_filters(self, aniso_bank_30):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((aniso_bank_30.n_vertices, 6))
        for m in range(4):
            for j in range(4):
                dense = dense_filter_matrix(aniso_bank_30, m, j, normalized=True)
                want = dense.T @ x
                got = apply_one(aniso_bank_30, m, j, x)[0]
                assert np.abs(want - got).max() < 1e-10

    def test_normalized_columns_unit_l1(self, aniso_bank_30):
        psi_bar = dense_filter_matrix(aniso_bank_30, 2, 1, normalized=True)
        assert np.abs(np.abs(psi_bar).sum(axis=0) - 1.0).max() < 1e-9

    def test_constants_annihilated(self, aniso_bank_30):
        x = np.ones((aniso_bank_30.n_vertices, 3)) * 4.2
        out = apply_one(aniso_bank_30, 1, 2, x)[0]
        assert np.abs(out).max() < 1e-9

    def test_linearity(self, aniso_bank_30):
        rng = np.random.default_rng(4)
        n = aniso_bank_30.n_vertices
        x, y = rng.standard_normal((2, n, 4))
        a, b = 1.3, -0.7

        def f(z):
            return apply_one(aniso_bank_30, 0, 1, z)[0]

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
        out, back = apply_one(aniso_bank_30, 3, 2, x)
        gx, _ = back(y)
        assert abs((out * y).sum() - (x * gx).sum()) < 1e-10
