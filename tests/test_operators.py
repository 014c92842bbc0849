import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavemesh as wm
from wavemesh.curvature import estimate_frames
from wavemesh.errors import FrameMeshMismatch
from wavemesh.mesh import TriMesh
from wavemesh.operators import (
    AnisoConfig,
    anisotropy_tensor,
    assemble_albo,
    assemble_lbo,
)
from wavemesh.spectrum import solve_eigs

from .conftest import grid_mesh
from .test_mesh import rotation_matrix


def symmetry_error(ops):
    d = ops.stiffness - ops.stiffness.T
    return float(np.abs(d.data).max()) if d.nnz else 0.0


def max_row_sum(ops):
    return float(np.abs(ops.stiffness.sum(axis=1)).max())


class TestAnisotropyTensor:
    def test_reference_values(self):
        assert np.allclose(anisotropy_tensor(1.0, 0.0),
                           [[0.5, 0.0], [0.0, 1.0]], atol=1e-15)
        assert np.allclose(anisotropy_tensor(0.0, 1.234), np.eye(2), atol=1e-15)
        assert np.allclose(anisotropy_tensor(1.0, math.pi / 2),
                           [[1.0, 0.0], [0.0, 0.5]], atol=1e-15)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            anisotropy_tensor(-0.5, 0.0)
        with pytest.raises(ValueError):
            AnisoConfig(alpha=-1.0)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.0, 1e3), theta=st.floats(0.0, math.pi))
    def test_spd_with_fixed_eigenvalues(self, alpha, theta):
        d = anisotropy_tensor(alpha, theta)
        assert np.abs(d - d.T).max() < 1e-15
        evals = np.linalg.eigvalsh(d)
        assert abs(evals[0] - 1.0 / (1.0 + alpha)) < 1e-12
        assert abs(evals[1] - 1.0) < 1e-12

    def test_direction_set(self):
        cfg = AnisoConfig(alpha=1.0, directions=4)
        assert np.allclose(cfg.angles(), [0, math.pi / 4, math.pi / 2,
                                          3 * math.pi / 4])
        with pytest.raises(ValueError):
            AnisoConfig(directions=3)


class TestCotangentLaplacian:
    def test_unit_square_diagonal_weight_zero(self):
        # both angles opposite the diagonal are right angles: cot = 0
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                       [[0, 1, 2], [0, 2, 3]])
        w = assemble_lbo(mesh).stiffness
        assert abs(w[0, 2]) < 1e-15
        # boundary edge weight is cot(45 deg)/2 = 0.5
        assert abs(w[0, 1] + 0.5) < 1e-15

    def test_constants_in_kernel(self, ico3, open_cylinder, flat_grid):
        for mesh in (ico3, open_cylinder, flat_grid):
            ops = assemble_lbo(mesh)
            ones = np.ones(mesh.n_vertices)
            assert np.abs(ops.stiffness @ ones).max() < 1e-10

    def test_symmetry_and_psd(self, ico1):
        ops = assemble_lbo(ico1)
        assert symmetry_error(ops) < 1e-12
        assert max_row_sum(ops) < 1e-10
        evals = np.linalg.eigvalsh(ops.stiffness.toarray())
        assert evals.min() > -1e-8

    def test_sphere_first_band(self, ico3):
        # analytic sphere spectrum: lambda = l(l+1), so the first
        # nonzero group is three 2s
        spec = solve_eigs(assemble_lbo(ico3), 4)
        assert np.abs(spec.eigenvalues[1:4] / 2.0 - 1.0).max() < 0.02


class TestAnisotropicAssembly:
    def test_isotropic_reduction(self, ico1, open_cylinder, flat_grid):
        for mesh in (ico1, open_cylinder, flat_grid):
            frames = estimate_frames(mesh)
            lbo = assemble_lbo(mesh)
            albo = assemble_albo(mesh, frames,
                                 AnisoConfig(alpha=0.0, theta=0.9, directions=1))
            diff = (lbo.stiffness - albo.stiffness).toarray()
            assert np.abs(diff).max() < 1e-10

    def test_pi_periodicity(self, open_cylinder):
        frames = estimate_frames(open_cylinder)
        a = assemble_albo(open_cylinder, frames, AnisoConfig(alpha=1.0, theta=0.4))
        b = assemble_albo(open_cylinder, frames,
                          AnisoConfig(alpha=1.0, theta=0.4 + math.pi))
        assert np.abs((a.stiffness - b.stiffness).toarray()).max() < 1e-12

    def test_operator_pair_invariants(self, open_cylinder):
        frames = estimate_frames(open_cylinder)
        for theta in AnisoConfig(alpha=50.0, directions=4).angles():
            ops = assemble_albo(open_cylinder, frames,
                                AnisoConfig(alpha=50.0, theta=theta))
            assert symmetry_error(ops) < 1e-12
            assert max_row_sum(ops) < 1e-10
            evals = np.linalg.eigvalsh(ops.stiffness.toarray())
            assert evals.min() > -1e-8

    def test_frames_mesh_mismatch(self, ico1, open_cylinder):
        frames = estimate_frames(ico1)
        with pytest.raises(FrameMeshMismatch):
            assemble_albo(open_cylinder, frames, AnisoConfig())

    def test_flat_grid_anisotropic_eigenfunctions(self):
        # Separable oracle on the unit square with conductivity
        # diag(1/51, 1) and Neumann walls: lambda(m, n) =
        # (m^2/51 + n^2) * pi^2, so the lowest nonconstant modes
        # oscillate along x (cheap direction) and the first nonzero
        # eigenvalue is pi^2/51.
        mesh = grid_mesh(24, 24)
        frames = estimate_frames(mesh)  # umbilic fallback aligns with +x
        ops = assemble_albo(mesh, frames, AnisoConfig(alpha=50.0, theta=0.0))
        spec = solve_eigs(ops, 3)
        oracle_lambda1 = math.pi**2 / 51.0
        assert abs(spec.eigenvalues[1] / oracle_lambda1 - 1.0) < 0.02

        f = spec.eigenvectors[:, 1]
        ex, ey = _gradient_energies(mesh, f)
        assert ex > 10.0 * ey  # oscillation lives along the damped axis

    def test_dirichlet_energy_monotone_in_alpha(self):
        mesh = grid_mesh(12, 12)
        frames = estimate_frames(mesh)
        f = mesh.vertices[:, 0].copy()  # linear along dir_max (= +x)
        energies = []
        for alpha in (0.0, 1.0, 10.0, 50.0):
            ops = assemble_albo(mesh, frames, AnisoConfig(alpha=alpha, theta=0.0))
            energies.append(f @ (ops.stiffness @ f))
        assert all(b < a for a, b in zip(energies, energies[1:]))

    def test_rigid_motion_invariance(self, open_cylinder):
        frames = estimate_frames(open_cylinder)
        cfg = AnisoConfig(alpha=50.0, theta=math.pi / 4)
        base = assemble_albo(open_cylinder, frames, cfg).stiffness.toarray()
        r = rotation_matrix([0.3, 1.0, 0.2], 0.8)
        moved = TriMesh(open_cylinder.vertices @ r.T + 5.0,
                        open_cylinder.faces.copy())
        moved_ops = assemble_albo(moved, estimate_frames(moved), cfg)
        diff = np.abs(moved_ops.stiffness.toarray() - base)
        scale = np.abs(base).max()
        assert diff.max() < 1e-8 * scale


def _gradient_energies(mesh, f):
    """Mass-weighted squared x- and y-derivatives of a vertex function."""
    v, faces = mesh.vertices, mesh.faces
    ex = ey = 0.0
    for (a, b, c), area in zip(faces, mesh.face_areas):
        pa, pb, pc = v[a], v[b], v[c]
        m = np.array([[pb[0] - pa[0], pb[1] - pa[1]],
                      [pc[0] - pa[0], pc[1] - pa[1]]])
        rhs = np.array([f[b] - f[a], f[c] - f[a]])
        gx, gy = np.linalg.solve(m, rhs)
        ex += area * gx * gx
        ey += area * gy * gy
    return ex, ey
