import numpy as np
import pytest
import scipy.linalg
from scipy.sparse.linalg import ArpackNoConvergence

import wavemesh as wm
from wavemesh import spectrum
from wavemesh.curvature import estimate_frames
from wavemesh.errors import FactorizationFailed, KTooLarge, NotConverged
from wavemesh.mesh import TriMesh
from wavemesh.operators import assemble_albo, assemble_lbo
from wavemesh.spectrum import RESIDUAL_TOL, solve_eigs

from .conftest import grid_mesh, perturbed_sphere


def relative_residuals(ops, spec):
    resid = ops.stiffness @ spec.eigenvectors \
        - spec.mass[:, None] * spec.eigenvectors * spec.eigenvalues
    return np.linalg.norm(resid, axis=0) / np.maximum(spec.eigenvalues, 1.0)


def dense_oracle(ops, k):
    """Independent dense generalized eigensolver (LAPACK path)."""
    w = ops.stiffness.toarray()
    w = 0.5 * (w + w.T)
    vals, vecs = scipy.linalg.eigh(w, np.diag(ops.mass))
    return vals[:k], vecs[:, :k]


class TestBasics:
    def test_constant_mode_on_closed_mesh(self, ico3):
        spec = solve_eigs(assemble_lbo(ico3), 8)
        assert spec.eigenvalues[0] < 1e-8 * spec.eigenvalues[-1]
        expected = 1.0 / np.sqrt(ico3.total_area)
        assert np.abs(spec.eigenvectors[:, 0] - expected).max() < 1e-6

    def test_sphere_harmonic_groups(self, ico3):
        spec = solve_eigs(assemble_lbo(ico3), 16)
        ev = spec.eigenvalues
        assert np.abs(ev[1:4] / 2.0 - 1).max() < 0.02
        assert np.abs(ev[4:9] / 6.0 - 1).max() < 0.02
        assert np.abs(ev[9:16] / 12.0 - 1).max() < 0.02

    def test_invariants_post_solve(self, open_cylinder):
        ops = assemble_lbo(open_cylinder)
        spec = solve_eigs(ops, 25)
        assert (np.diff(spec.eigenvalues) >= 0).all()
        assert (spec.eigenvalues >= 0).all()
        gram = spec.eigenvectors.T @ (spec.mass[:, None] * spec.eigenvectors)
        assert np.abs(gram - np.eye(25)).max() < 1e-8
        assert relative_residuals(ops, spec).max() < 1e-8

    def test_sign_canonicalization(self, ico1):
        spec = solve_eigs(assemble_lbo(ico1), 10)
        idx = np.abs(spec.eigenvectors).argmax(axis=0)
        assert (spec.eigenvectors[idx, np.arange(10)] > 0).all()

    def test_k_too_large(self, ico0):
        with pytest.raises(KTooLarge):
            solve_eigs(assemble_lbo(ico0), 13)


class TestAgainstDenseOracle:
    def test_full_spectrum_small_mesh(self):
        # 50-vertex grid, all 50 eigenpairs
        mesh = grid_mesh(4, 9)
        assert mesh.n_vertices == 50
        ops = assemble_lbo(mesh)
        spec = solve_eigs(ops, 50)
        vals, _ = dense_oracle(ops, 50)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_random_meshes_match_oracle(self, seed):
        mesh = perturbed_sphere(seed)
        assert mesh.n_vertices <= 60
        ops = assemble_lbo(mesh)
        k = 30
        spec = solve_eigs(ops, k)  # ARPACK shift-invert path (42 verts > cutoff)
        vals, _ = dense_oracle(ops, k)
        scale = max(abs(vals[-1]), 1.0)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() < 1e-8 * scale
        assert relative_residuals(ops, spec).max() < 1e-8

    @pytest.mark.parametrize("theta", [0.0, np.pi / 2])
    def test_anisotropic_operator_beyond_the_lanczos_basis(self, theta):
        # the operator the pipeline solves: an ALBO at alpha=50, on a mesh
        # with more vertices than the Lanczos basis holds
        mesh = wm.gen_base("bar", 3)
        ops = assemble_albo(mesh, estimate_frames(mesh), 50.0, theta)
        k = 100
        spec = solve_eigs(ops, k)
        assert spec.provenance["solver"] == "arpack"
        assert spec.provenance["ncv"] < mesh.n_vertices
        vals, _ = dense_oracle(ops, k)
        assert np.abs(spec.eigenvalues - np.maximum(vals, 0)).max() \
            < 1e-8 * vals[-1]
        assert relative_residuals(ops, spec).max() < 1e-8
        gram = spec.eigenvectors.T @ (spec.mass[:, None] * spec.eigenvectors)
        assert np.abs(gram - np.eye(k)).max() < 1e-8
        assert spec.provenance["max_residual"] < 1e-8
        assert spec.provenance["ortho_error"] < 1e-8


class TestFailurePaths:
    """Each way the sparse path can fail raises its NumericalError."""

    def test_arpack_no_convergence_raises_not_converged(self, monkeypatch):
        def stalled(*args, **kwargs):
            raise ArpackNoConvergence("no convergence", np.zeros(3),
                                      np.zeros((42, 3)))

        monkeypatch.setattr(spectrum, "eigsh", stalled)
        with pytest.raises(NotConverged, match="3 of 30 pairs"):
            solve_eigs(assemble_lbo(perturbed_sphere(0)), 30)

    def test_singular_factor_raises_factorization_failed(self, monkeypatch):
        def singular(*args, **kwargs):
            raise RuntimeError("Factor is exactly singular")

        monkeypatch.setattr(spectrum, "splu", singular)
        with pytest.raises(FactorizationFailed, match="singular"):
            solve_eigs(assemble_lbo(perturbed_sphere(0)), 30)

    def test_residual_above_tolerance_raises_with_residuals(self,
                                                            monkeypatch):
        original = spectrum.eigsh

        def inexact(*args, **kwargs):
            vals, vecs = original(*args, **kwargs)
            return vals * (1.0 + 1e-5), vecs

        monkeypatch.setattr(spectrum, "eigsh", inexact)
        with pytest.raises(NotConverged, match="max residual") as info:
            solve_eigs(assemble_lbo(perturbed_sphere(0)), 30)
        assert info.value.residuals.shape == (30,)
        assert info.value.residuals.max() > RESIDUAL_TOL


class TestDeterminismAndScaling:
    def test_bitwise_determinism(self, open_cylinder):
        ops = assemble_lbo(open_cylinder)
        a = solve_eigs(ops, 12)
        b = solve_eigs(ops, 12)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_scale_covariance(self, ico1):
        s = 2.0
        spec1 = solve_eigs(assemble_lbo(ico1), 10)
        scaled = TriMesh(ico1.vertices * s, ico1.faces.copy())
        spec2 = solve_eigs(assemble_lbo(scaled), 10)
        nz = spec1.eigenvalues > 1e-8
        ratio = spec2.eigenvalues[nz] * s * s / spec1.eigenvalues[nz]
        assert np.abs(ratio - 1.0).max() < 1e-6
