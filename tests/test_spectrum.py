import numpy as np
import pytest
import scipy.linalg

import wavemesh as wm
from wavemesh import spectrum
from wavemesh.curvature import estimate_frames
from wavemesh.errors import FactorizationFailed, KTooLarge, NotConverged
from wavemesh.mesh import TriMesh
from wavemesh.operators import assemble_albo, assemble_lbo
from wavemesh.spectrum import RESIDUAL_TOL, solve_eigs

from .conftest import grid_mesh, perturbed_sphere, solve_lbo, traced_peak


def relative_residuals(stiff, spec):
    resid = stiff @ spec.eigenvectors \
        - spec.mass[:, None] * spec.eigenvectors * spec.eigenvalues
    return np.linalg.norm(resid, axis=0) / np.maximum(spec.eigenvalues, 1.0)


def dense_oracle(stiff, mass, k):
    """Independent dense generalized eigensolver (LAPACK path)."""
    w = stiff.toarray()
    w = 0.5 * (w + w.T)
    vals, vecs = scipy.linalg.eigh(w, np.diag(mass))
    return vals[:k], vecs[:, :k]


class TestBasics:
    def test_constant_mode_on_closed_mesh(self, ico3):
        spec = solve_lbo(ico3, 8)
        assert spec.eigenvalues[0] < 1e-8 * spec.eigenvalues[-1]
        expected = 1.0 / np.sqrt(ico3.total_area)
        assert np.abs(spec.eigenvectors[:, 0] - expected).max() < 1e-6

    def test_sphere_harmonic_groups(self, ico3):
        spec = solve_lbo(ico3, 16)
        ev = spec.eigenvalues
        assert np.abs(ev[1:4] / 2.0 - 1).max() < 0.02
        assert np.abs(ev[4:9] / 6.0 - 1).max() < 0.02
        assert np.abs(ev[9:16] / 12.0 - 1).max() < 0.02

    def test_invariants_post_solve(self, open_cylinder):
        stiff = assemble_lbo(open_cylinder)
        spec = solve_eigs(stiff, open_cylinder.mass, 25)
        assert (np.diff(spec.eigenvalues) >= 0).all()
        assert (spec.eigenvalues >= 0).all()
        gram = spec.eigenvectors.T @ (spec.mass[:, None] * spec.eigenvectors)
        assert np.abs(gram - np.eye(25)).max() < 1e-8
        assert relative_residuals(stiff, spec).max() < 1e-8

    def test_sign_canonicalization(self, ico1):
        spec = solve_lbo(ico1, 10)
        idx = np.abs(spec.eigenvectors).argmax(axis=0)
        assert (spec.eigenvectors[idx, np.arange(10)] > 0).all()

    def test_k_too_large(self, ico0):
        with pytest.raises(KTooLarge):
            solve_lbo(ico0, 13)

    def test_k_zero(self, ico0):
        with pytest.raises(ValueError, match="k must be >= 1, got 0"):
            solve_lbo(ico0, 0)


class TestAgainstDenseOracle:
    def test_full_spectrum_small_mesh(self):
        # 50-vertex grid, all 50 eigenpairs
        mesh = grid_mesh(4, 9)
        assert mesh.n_vertices == 50
        stiff = assemble_lbo(mesh)
        spec = solve_eigs(stiff, mesh.mass, 50)
        vals, _ = dense_oracle(stiff, mesh.mass, 50)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_random_meshes_match_oracle(self, seed):
        mesh = perturbed_sphere(seed)
        assert mesh.n_vertices <= 60
        stiff = assemble_lbo(mesh)
        k = 30
        # Lanczos path (42 verts > cutoff)
        spec = solve_eigs(stiff, mesh.mass, k)
        # ncv = min(n, 1.5 k + 1) = n: the basis fills the space, and the
        # run ends at n with no division by its vanishing residual (any
        # warning is an error in tier-1)
        assert spec.provenance["ncv"] == mesh.n_vertices
        vals, _ = dense_oracle(stiff, mesh.mass, k)
        scale = max(abs(vals[-1]), 1.0)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() < 1e-8 * scale
        assert relative_residuals(stiff, spec).max() < 1e-8

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_anisotropic_operator_beyond_the_lanczos_basis(self, theta):
        # the operator the pipeline solves: an ALBO at alpha=50, on a mesh
        # with more vertices than the Lanczos basis holds
        mesh = wm.gen_base("bar", 3)
        stiff = assemble_albo(mesh, estimate_frames(mesh), 50.0, theta)
        k = 100
        spec = solve_eigs(stiff, mesh.mass, k)
        assert spec.provenance["solver"] == "lanczos"
        assert spec.provenance["ncv"] < mesh.n_vertices
        vals, _ = dense_oracle(stiff, mesh.mass, k)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() \
            < 1e-8 * vals[-1]
        assert relative_residuals(stiff, spec).max() < 1e-8
        gram = spec.eigenvectors.T @ (spec.mass[:, None] * spec.eigenvectors)
        assert np.abs(gram - np.eye(k)).max() < 1e-8
        assert spec.provenance["max_residual"] < 1e-8
        assert spec.provenance["ortho_error"] < 1e-8


class TestFailurePaths:
    """Each way the sparse path can fail raises its NumericalError."""

    def test_lanczos_no_convergence_raises_not_converged(self, monkeypatch):
        def three_settle(residuals, theta):
            return np.arange(len(theta)) < 3

        monkeypatch.setattr(spectrum, "_converged", three_settle)
        with pytest.raises(NotConverged, match="3 of 30 pairs converged"):
            solve_lbo(perturbed_sphere(0), 30)

    def test_singular_factor_raises_factorization_failed(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spectrum, "splu", singular)
        with pytest.raises(FactorizationFailed, match="singular"):
            solve_lbo(perturbed_sphere(0), 30)

    def test_off_diagonal_pivots_raise_factorization_failed(self,
                                                            monkeypatch):
        # an inertia count needs a symmetric factor whose pivots stay on
        # the diagonal (perm_r == perm_c); one that pivoted off it counts
        # nothing
        factor = spectrum.splu

        def pivoted(*args, **kwargs):
            lu = factor(*args, **kwargs)
            if "diag_pivot_thresh" not in kwargs:
                return lu  # the shift-invert factor of the Lanczos
            perm_r = np.roll(lu.perm_c, 1)
            return type("Pivoted", (), {"perm_r": perm_r,
                                        "perm_c": lu.perm_c, "U": lu.U})()

        monkeypatch.setattr(spectrum, "splu", pivoted)
        with pytest.raises(FactorizationFailed,
                           match="pivoted off its diagonal"):
            solve_lbo(perturbed_sphere(0), 30)

    def test_residual_above_tolerance_raises_with_residuals(self,
                                                            monkeypatch):
        original = spectrum._lanczos

        def inexact(*args, **kwargs):
            theta, vecs, restarts, applications = original(*args, **kwargs)
            return theta * (1.0 + 1e-5), vecs, restarts, applications

        monkeypatch.setattr(spectrum, "_lanczos", inexact)
        with pytest.raises(NotConverged, match="max residual") as info:
            solve_lbo(perturbed_sphere(0), 30)
        assert info.value.residuals.shape == (30,)
        assert info.value.residuals.max() > RESIDUAL_TOL


class TestCompleteness:
    """The inertia counts at mu- and mu+ around lambda_K catch a spectrum
    that skips an eigenvalue, which no residual can see."""

    def test_skipped_multiplet_copy_raises_not_converged(self, ico3,
                                                         monkeypatch):
        # the icosphere's 0, 2, 2, 2 returned as 0, 2, 2, 5.97: each pair
        # is exact, so only the count below mu- (4, not 3) can fail it
        original = spectrum._lanczos

        def skipping(apply, n, k, ncv, maxiter):
            theta, vecs, restarts, applications = original(
                apply, n, k + 1, ncv, maxiter)
            keep = [0, 1, 2, 4]
            return theta[keep], vecs[:, keep], restarts, applications

        monkeypatch.setattr(spectrum, "_lanczos", skipping)
        with pytest.raises(NotConverged, match="4 eigenvalues lie below .* "
                           "where 3 were returned"):
            solve_lbo(ico3, 4)

    def test_zero_lambda_k_gets_nonzero_shifts(self, ico1, monkeypatch):
        # k = 1 on a closed mesh: lambda_K is the constant mode's 0, so a
        # relative shift would factor C itself, whose zero pivot has no
        # sign; the counts are taken |sigma| away on either side instead
        shifts = []
        count_below = spectrum._count_below

        def recorded(standard, mu):
            shifts.append(mu)
            return count_below(standard, mu)

        monkeypatch.setattr(spectrum, "_count_below", recorded)
        spec = solve_lbo(ico1, 1)
        assert spec.provenance["solver"] == "lanczos"
        assert shifts[0] < 0.0 < shifts[1]
        assert spec.provenance["n_below_mu_minus"] == 0
        assert spec.provenance["n_below_mu_plus"] == 1

    @pytest.mark.parametrize("k", [4, 9, 16])
    def test_sphere_multiplets_match_dense_oracle(self, ico3, k):
        # k = 4, 9 and 16 end on the last copy of the l = 1, 2 and 3
        # harmonic groups, where a missed copy of a repeated eigenvalue
        # would shift every later value
        stiff = assemble_lbo(ico3)
        spec = solve_eigs(stiff, ico3.mass, k)
        assert spec.provenance["solver"] == "lanczos"
        vals, _ = dense_oracle(stiff, ico3.mass, k)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() \
            < 1e-10 * vals[-1]
        assert spec.provenance["n_below_mu_plus"] >= k
        assert spec.provenance["n_below_mu_minus"] == np.count_nonzero(
            vals < spec.eigenvalues[-1] * (1 - 1e-6))

    @pytest.mark.parametrize("k, below_minus, below_plus, whole", [
        (1, 0, 1, 1), (3, 1, 4, 1), (4, 1, 4, 4), (6, 4, 9, 4),
        (11, 9, 12, 9)])
    def test_dense_solve_records_the_inertia_counts(self, ico0, k,
                                                    below_minus, below_plus,
                                                    whole):
        # the icosahedron's eigenvalues are 0, 2 (three copies), 4.34 (five)
        # and 5.24 (three): K 3, 6 and 11 (clamp_k's N - 1) cut a
        # multiplet. The dense solve counts its eigenvalues below the mu-/+
        # that the Lanczos path factors at, |sigma| from a zero lambda_K
        spec = solve_lbo(ico0, k)
        assert spec.provenance["solver"] == "dense"
        assert spec.provenance["n_below_mu_minus"] == below_minus
        assert spec.provenance["n_below_mu_plus"] == below_plus
        assert spec.n_whole == whole

    @pytest.mark.parametrize("k", [20, 21])
    @pytest.mark.xfail(strict=True, raises=NotConverged, reason=(
        "Defect 11: the single-vector Lanczos misses copies of the "
        "icosphere's eigenspaces of dimension 4 or more"))
    def test_icosphere_multiplets_of_dimension_four_or_more(self, ico3, k):
        # at alpha 0 the ALBO is the cotangent Laplacian, whose l = 4
        # harmonics (lambda near 20) ico3's icosahedral symmetry splits
        # into eigenspaces of dimension 4 and 5. At K 20 and 21 the
        # Lanczos returns too few of their copies and the inertia count
        # raises: "incomplete spectrum: 21 eigenvalues lie below 19.5095
        # where 19 were returned". When the solver recovers them, strict
        # mode fails these tests, and the marker must go
        stiff = assemble_albo(ico3, estimate_frames(ico3), 0.0, 0.0)
        spec = solve_eigs(stiff, ico3.mass, k)
        vals, _ = dense_oracle(stiff, ico3.mass, k)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() \
            < 1e-8 * vals[-1]

    def test_breakdown_continues_from_a_fresh_direction(self):
        # three distinct eigenvalues: the Krylov space of any start vector
        # is invariant after 3 steps, so beta vanishes long before n and
        # the basis goes on from a random vector orthogonal to it
        diag = np.repeat([3.0, 2.0, 1.0], [4, 4, 52])
        theta, vecs, restarts, applications = spectrum._lanczos(
            lambda x: diag * x, len(diag), 6, 20, maxiter=20)
        assert np.allclose(theta, [3, 3, 3, 3, 2, 2], rtol=1e-14)
        assert np.abs(vecs.T @ vecs - np.eye(6)).max() < 1e-14
        assert np.abs(diag[:, None] * vecs - vecs * theta).max() < 1e-13


class TestDeterminismAndScaling:
    def test_bitwise_determinism(self, open_cylinder):
        stiff = assemble_lbo(open_cylinder)
        a = solve_eigs(stiff, open_cylinder.mass, 12)
        b = solve_eigs(stiff, open_cylinder.mass, 12)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_scale_covariance(self, ico1):
        s = 2.0
        spec1 = solve_lbo(ico1, 10)
        scaled = TriMesh(ico1.vertices * s, ico1.faces.copy())
        spec2 = solve_lbo(scaled, 10)
        nz = spec1.eigenvalues > 1e-8
        ratio = spec2.eigenvalues[nz] * s * s / spec1.eigenvalues[nz]
        assert np.abs(ratio - 1.0).max() < 1e-6


class TestMemory:
    def test_solve_holds_the_basis_or_three_n_by_k_arrays(self):
        # after the Lanczos the Ritz vectors are scaled by A^-1/2 in place,
        # copied once into their C-ordered array, sign-flipped in place and
        # checked with two N x K temporaries, so the peak stays below the
        # (ncv + 1) x N basis plus three N x K arrays plus an allowance.
        # SuperLU allocates its factor outside tracemalloc's view (it
        # traces 2 kB of a 17k-nonzero factor here), so the allowance
        # covers what is traced around it: three sparse copies of the
        # operator (W, C and C - sigma I, 12 bytes per nonzero each) and
        # the ncv x ncv projection with its eigenvectors. Measured at
        # N 546, K 40: 0.67 of the bound, and 1.18 when the Ritz vectors
        # were scaled, copied, sign-flipped and checked out of place
        mesh = wm.gen_base("bar", 4)
        stiff = assemble_albo(mesh, estimate_frames(mesh), 50.0, 0.0)
        n, k = mesh.n_vertices, 40
        peak, spec = traced_peak(lambda: solve_eigs(stiff, mesh.mass, k))
        assert spec.provenance["solver"] == "lanczos"
        ncv = spec.provenance["ncv"]
        allowance = 3 * 12 * stiff.nnz + 2 * ncv * ncv * 8
        bound = 8 * n * (ncv + 1 + 3 * k) + allowance
        assert peak < bound, peak / bound
