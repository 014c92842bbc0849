import numpy as np
import pytest

import wavemesh as wm
from wavemesh import synth
from wavemesh.curvature import UMBILIC_RTOL, estimate_frames, face_tensors
from wavemesh.errors import IsolatedVertex
from wavemesh.mesh import TriMesh

from .test_mesh import rotation_matrix


@pytest.fixture(scope="module")
def sphere_frames(ico3):
    return estimate_frames(ico3)


@pytest.fixture(scope="module")
def cylinder_frames(open_cylinder):
    return estimate_frames(open_cylinder)


def interior_mask(mesh):
    boundary = np.unique(mesh.boundary_edges)
    mask = np.ones(mesh.n_vertices, dtype=bool)
    mask[boundary] = False
    return mask


class TestInvariants:
    def test_ordering_and_units(self, sphere_frames):
        assert (sphere_frames.k_max >= sphere_frames.k_min).all()

    def test_direction_tangency(self, open_cylinder, cylinder_frames):
        dots = np.einsum("ij,ij->i", cylinder_frames.dir_max,
                         open_cylinder.vertex_normals)
        assert np.abs(dots).max() < 1e-8

    def test_unit_directions(self, cylinder_frames, sphere_frames):
        for frames in (cylinder_frames, sphere_frames):
            norms = np.linalg.norm(frames.dir_max, axis=1)
            assert np.abs(norms - 1.0).max() < 1e-10


class TestAnalyticSurfaces:
    def test_unit_sphere_curvatures(self, sphere_frames):
        # analytic curvature of the unit sphere is 1 (outward normals)
        assert np.abs(sphere_frames.k_min - 1.0).max() < 0.1
        assert np.abs(sphere_frames.k_max - 1.0).max() < 0.1

    def test_flat_grid_zero_curvature_umbilic(self, flat_grid):
        frames = estimate_frames(flat_grid)
        assert np.abs(frames.k_min).max() < 1e-6
        assert np.abs(frames.k_max).max() < 1e-6
        assert frames.umbilic.all()
        # deterministic fallback on a z=0 plane is the +x axis
        assert np.abs(frames.dir_max - np.array([1.0, 0.0, 0.0])).max() < 1e-8

    def test_open_cylinder(self, open_cylinder, cylinder_frames):
        # radius-1 cylinder with axis z: k_max = 1, k_min = 0, and the
        # maximum-curvature direction is circumferential
        inner = interior_mask(open_cylinder)
        assert inner.sum() > 0
        assert np.abs(cylinder_frames.k_max[inner] - 1.0).max() < 0.1
        assert np.abs(cylinder_frames.k_min[inner]).max() < 0.1
        z_dot = np.abs(cylinder_frames.dir_max[inner, 2])
        assert z_dot.max() < np.sin(np.radians(5.0))
        assert not cylinder_frames.umbilic[inner].any()


class TestEquivariance:
    def test_rotation_rotates_frames(self, open_cylinder, cylinder_frames):
        r = rotation_matrix([1, 1, 0], 1.1)
        moved = TriMesh(open_cylinder.vertices @ r.T + np.array([1.0, 2.0, 3.0]),
                        open_cylinder.faces.copy())
        frames2 = estimate_frames(moved)
        inner = interior_mask(open_cylinder)
        rotated = cylinder_frames.dir_max[inner] @ r.T
        got = frames2.dir_max[inner]
        mismatch = np.minimum(np.linalg.norm(rotated - got, axis=1),
                              np.linalg.norm(rotated + got, axis=1))
        assert mismatch.max() < 1e-6
        rotated_n = open_cylinder.vertex_normals[inner] @ r.T
        assert np.abs(rotated_n - moved.vertex_normals[inner]).max() < 1e-6

    def test_uniform_scale_divides_curvature(self, open_cylinder,
                                             cylinder_frames):
        s = 2.5
        scaled = TriMesh(open_cylinder.vertices * s, open_cylinder.faces.copy())
        frames2 = estimate_frames(scaled)
        inner = interior_mask(open_cylinder)
        assert np.abs(frames2.k_max[inner] * s
                      - cylinder_frames.k_max[inner]).max() < 1e-8


class TestErrors:
    def test_isolated_vertex(self):
        mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0], [5, 5, 5]],
                       [[0, 1, 2]])
        with pytest.raises(IsolatedVertex):
            estimate_frames(mesh)


# --- the vectorized estimator against a per-vertex reference -----------------


def _reference_tangent(normal):
    for axis in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)):
        d = np.asarray(axis) - np.dot(axis, normal) * normal
        n = np.linalg.norm(d)
        if n >= 1e-8:
            return d / n
    return np.array([0.0, 0.0, 1.0])


def _reference_frames(mesh):
    """The estimator written one vertex at a time: np.add.at over the
    incident faces, one 2x2 eigh per vertex."""
    f, areas = mesh.faces, mesh.face_areas
    s3 = face_tensors(mesh)
    acc = np.zeros((mesh.n_vertices, 3, 3))
    wsum = np.zeros(mesh.n_vertices)
    for col in range(3):
        np.add.at(acc, f[:, col], s3)
        np.add.at(wsum, f[:, col], areas)
    acc /= wsum[:, None, None]

    k = np.empty((mesh.n_vertices, 2))
    dirs = np.empty((mesh.n_vertices, 3))
    umbilic = np.empty(mesh.n_vertices, dtype=bool)
    for i, nrm in enumerate(mesh.vertex_normals):
        t1 = _reference_tangent(nrm)
        basis = np.stack([t1, np.cross(nrm, t1)])
        q = basis @ acc[i] @ basis.T
        evals, evecs = np.linalg.eigh(0.5 * (q + q.T))
        k[i] = evals
        gap = abs(evals[1] - evals[0])
        umbilic[i] = gap < UMBILIC_RTOL * (abs(evals[0]) + abs(evals[1]) + 1e-12)
        d = t1
        if not umbilic[i]:
            d = evecs[:, int(abs(evals[1]) >= abs(evals[0]))] @ basis
            d = d / np.linalg.norm(d)
        first = next((c for c in d if abs(c) > 1e-10), 1.0)
        dirs[i] = d if first > 0 else -d
    return k, dirs, umbilic


@pytest.fixture(scope="module")
def oracle_meshes():
    bar = wm.gen_base("bar", 10)
    return {
        "bar10": bar,
        "twisted-bar": synth.deform(bar, "twist", 0.35),
        "icosphere3": wm.gen_base("icosphere", 3),
        "open-cylinder": wm.gen_base("cylinder", 3),
        "remeshed-bar": synth.remesh(wm.gen_base("bar", 5))[0],
    }


@pytest.mark.parametrize("name", ["bar10", "twisted-bar", "icosphere3",
                                  "open-cylinder", "remeshed-bar"])
def test_frames_match_the_per_vertex_reference(oracle_meshes, name):
    mesh = oracle_meshes[name]
    k, dirs, umbilic = _reference_frames(mesh)
    frames = estimate_frames(mesh)
    got = np.stack([frames.k_min, frames.k_max], axis=1)
    assert np.abs(got - k).max() <= 1e-12 * np.abs(k).max()
    assert np.abs(frames.dir_max - dirs).max() <= 1e-12
    assert np.array_equal(frames.umbilic, umbilic)
