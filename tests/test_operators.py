import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wavemesh as wm
from wavemesh.curvature import PrincipalFrames, estimate_frames
from wavemesh.errors import FrameMeshMismatch
from wavemesh.mesh import TriMesh
from wavemesh.operators import (
    anisotropy_tensor,
    assemble_albo,
    assemble_lbo,
    direction_angles,
    fallback_faces,
)
from wavemesh.spectrum import solve_eigs

from .conftest import grid_mesh, solve_lbo
from .test_mesh import rotation_matrix


def symmetry_error(stiff):
    d = stiff - stiff.T
    return float(np.abs(d.data).max()) if d.nnz else 0.0


def max_row_sum(stiff):
    return float(np.abs(stiff.sum(axis=1)).max())


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
        mesh = grid_mesh(3, 3)
        with pytest.raises(ValueError):
            assemble_albo(mesh, estimate_frames(mesh), -1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(alpha=st.floats(0.0, 1e3), theta=st.floats(0.0, math.pi))
    def test_spd_with_fixed_eigenvalues(self, alpha, theta):
        d = anisotropy_tensor(alpha, theta)
        assert np.abs(d - d.T).max() < 1e-15
        evals = np.linalg.eigvalsh(d)
        assert abs(evals[0] - 1.0 / (1.0 + alpha)) < 1e-12
        assert abs(evals[1] - 1.0) < 1e-12

    def test_direction_set(self):
        assert np.allclose(direction_angles(4), [0, math.pi / 4, math.pi / 2,
                                                 3 * math.pi / 4])
        assert direction_angles(1) == [0.0]
        assert all(type(t) is float for t in direction_angles(2))


class TestCotangentLaplacian:
    def test_unit_square_diagonal_weight_zero(self):
        # both angles opposite the diagonal are right angles: cot = 0
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]],
                       [[0, 1, 2], [0, 2, 3]])
        w = assemble_lbo(mesh)
        assert abs(w[0, 2]) < 1e-15
        # boundary edge weight is cot(45 deg)/2 = 0.5
        assert abs(w[0, 1] + 0.5) < 1e-15

    def test_constants_in_kernel(self, ico3, open_cylinder, flat_grid):
        for mesh in (ico3, open_cylinder, flat_grid):
            stiff = assemble_lbo(mesh)
            ones = np.ones(mesh.n_vertices)
            assert np.abs(stiff @ ones).max() < 1e-10

    def test_symmetry_and_psd(self, ico1):
        stiff = assemble_lbo(ico1)
        assert symmetry_error(stiff) < 1e-12
        assert max_row_sum(stiff) < 1e-10
        evals = np.linalg.eigvalsh(stiff.toarray())
        assert evals.min() > -1e-8

    def test_sphere_first_band(self, ico3):
        # analytic sphere spectrum: lambda = l(l+1), so the first
        # nonzero group is three 2s
        spec = solve_lbo(ico3, 4)
        assert np.abs(spec.eigenvalues[1:4] / 2.0 - 1.0).max() < 0.02


class TestAnisotropicAssembly:
    def test_isotropic_reduction(self, ico1, open_cylinder, flat_grid):
        for mesh in (ico1, open_cylinder, flat_grid):
            frames = estimate_frames(mesh)
            lbo = assemble_lbo(mesh)
            albo = assemble_albo(mesh, frames, 0.0, 0.9)
            diff = (lbo - albo).toarray()
            assert np.abs(diff).max() < 1e-10

    def test_pi_periodicity(self, open_cylinder):
        frames = estimate_frames(open_cylinder)
        a = assemble_albo(open_cylinder, frames, 1.0, 0.4)
        b = assemble_albo(open_cylinder, frames, 1.0, 0.4 + math.pi)
        assert np.abs((a - b).toarray()).max() < 1e-12

    def test_stiffness_invariants(self, open_cylinder):
        frames = estimate_frames(open_cylinder)
        for theta in direction_angles(4):
            stiff = assemble_albo(open_cylinder, frames, 50.0, theta)
            assert symmetry_error(stiff) < 1e-12
            assert max_row_sum(stiff) < 1e-10
            evals = np.linalg.eigvalsh(stiff.toarray())
            assert evals.min() > -1e-8

    def test_frames_mesh_mismatch(self, ico1, open_cylinder):
        frames = estimate_frames(ico1)
        with pytest.raises(FrameMeshMismatch):
            assemble_albo(open_cylinder, frames, 50.0, 0.0)

    def test_flat_grid_anisotropic_eigenfunctions(self):
        # Separable oracle on the unit square with conductivity
        # diag(1/51, 1) and Neumann walls: lambda(m, n) =
        # (m^2/51 + n^2) * pi^2, so the lowest nonconstant modes
        # oscillate along x (cheap direction) and the first nonzero
        # eigenvalue is pi^2/51.
        mesh = grid_mesh(24, 24)
        frames = estimate_frames(mesh)  # umbilic fallback aligns with +x
        spec = solve_eigs(assemble_albo(mesh, frames, 50.0, 0.0), mesh.mass, 3)
        oracle_lambda1 = math.pi**2 / 51.0
        assert abs(spec.eigenvalues[1] / oracle_lambda1 - 1.0) < 0.02

        f = spec.eigenvectors[:, 1]
        ex, ey = _gradient_energies(mesh, f)
        assert ex > 10.0 * ey  # oscillation lives along the damped axis

    @pytest.mark.parametrize("theta, bound", [
        (0.0, 0.025), (math.pi / 2, 0.08)], ids=["theta-0", "theta-pi/2"])
    def test_open_cylinder_spectrum_converges_to_the_separable_oracle(
            self, theta, bound):
        # The open cylinder (radius 1, height 4) has constant principal
        # directions: curvature 1 around it and 0 along it. At theta = 0
        # its ALBO is the constant-coefficient operator with conductivity
        # 1/(1 + alpha) around and 1 along, with a periodic seam and
        # natural (Neumann) ends, so lambda(m, n) = (m pi/4)^2 +
        # n^2/(1 + alpha), twice for n > 0; at theta = pi/2 the two
        # factors swap. Unlike the flat grid above, the frames come from
        # real curvature, and a swap of the principal axis that receives
        # 1/(1 + alpha) fails. The largest relative error over the first
        # 20 nonzero eigenvalues falls as O(h^2): measured 0.107 (theta 0)
        # and 0.216 (pi/2) at res 4, 0.0179 and 0.0585 at res 8
        alpha = 50.0
        m, n = np.meshgrid(np.arange(20), np.arange(20), indexing="ij")
        along, around = (m * math.pi / 4) ** 2, n**2 / (1 + alpha)
        if theta:
            along, around = along / (1 + alpha), around * (1 + alpha)
        lam = along + around
        want = np.sort(np.concatenate([lam.ravel(),
                                       lam[:, 1:].ravel()]))[1:21]
        errors = []
        for res in (4, 8):
            mesh = wm.gen_base("cylinder", res)
            stiff = assemble_albo(mesh, estimate_frames(mesh), alpha, theta)
            got = solve_eigs(stiff, mesh.mass, 21).eigenvalues[1:]
            errors.append(np.abs(got / want - 1.0).max())
        assert errors[1] < bound, errors
        assert errors[0] >= 3.0 * errors[1], errors

    def test_dirichlet_energy_monotone_in_alpha(self):
        mesh = grid_mesh(12, 12)
        frames = estimate_frames(mesh)
        f = mesh.vertices[:, 0].copy()  # linear along dir_max (= +x)
        energies = []
        for alpha in (0.0, 1.0, 10.0, 50.0):
            energies.append(f @ (assemble_albo(mesh, frames, alpha, 0.0) @ f))
        assert all(b < a for a, b in zip(energies, energies[1:]))

    # invariance holds where no world +x fallback decides the operator: on
    # the open cylinder, which has no umbilic vertex, at any alpha, and on
    # any mesh at alpha 0, where the operator is the isotropic one
    @pytest.mark.parametrize("kind, res, alpha", [
        ("cylinder", 3, 50.0), ("bar", 3, 0.0), ("icosphere", 2, 0.0)])
    def test_rigid_motion_invariance(self, kind, res, alpha):
        mesh = wm.gen_base(kind, res)
        base = assemble_albo(mesh, estimate_frames(mesh), alpha,
                             math.pi / 4).toarray()
        r = rotation_matrix([0.3, 1.0, 0.2], 0.8)
        moved = TriMesh(mesh.vertices @ r.T + 5.0, mesh.faces.copy())
        moved_stiff = assemble_albo(moved, estimate_frames(moved), alpha,
                                    math.pi / 4)
        diff = np.abs(moved_stiff.toarray() - base)
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


def test_faces_whose_averaged_direction_vanishes_take_world_x():
    # on the flat grid a direction field along the normal averages to zero
    # in every face's plane, so every face falls back to the world +x
    # projected into it, and the operator equals that of the +x field,
    # whose faces keep their own direction
    mesh = grid_mesh(4, 3)
    n = mesh.n_vertices

    def frames(direction):
        zero = np.zeros(n)
        return PrincipalFrames(k_min=zero, k_max=zero,
                               dir_max=np.tile(direction, (n, 1)),
                               umbilic=np.zeros(n, dtype=bool))

    normal, x = frames([0.0, 0.0, 1.0]), frames([1.0, 0.0, 0.0])
    assert fallback_faces(mesh, normal).all()
    assert not fallback_faces(mesh, x).any()
    got = assemble_albo(mesh, normal, 50.0, 0.3)
    want = assemble_albo(mesh, x, 50.0, 0.3)
    assert np.array_equal(got.toarray(), want.toarray())
    # the curvature frames of a rest mesh have no such face
    for base in (wm.gen_base("bar", 2), wm.gen_base("cylinder", 3)):
        assert not fallback_faces(base, estimate_frames(base)).any()
