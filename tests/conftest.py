import tracemalloc

import numpy as np
import pytest

import wavemesh as wm
from wavemesh.autodiff import NORM_EPS
from wavemesh.corresp import geodesic_rows
from wavemesh.curvature import estimate_frames
from wavemesh.errors import SingleVertexShape
from wavemesh.mesh import TriMesh
from wavemesh.operators import assemble_albo, assemble_lbo
from wavemesh.spectrum import solve_eigs
from wavemesh.wavelets import KernelSpec, build_filterbank


def traced_peak(fn):
    """(peak bytes traced by tracemalloc while fn() runs, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak, result


def traced_held(fn):
    """(bytes that fn() allocated and still holds once it returns, by
    tracemalloc, its result)."""
    tracemalloc.start()
    try:
        result = fn()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held, result


def gt_distances(mesh, corr, gt):
    """Per source vertex i, the geodesic distance on `mesh` from gt[i] to
    corr[i], taken from the whole rows of the distinct gt vertices: the
    `dist` that `evaluate` scores, as `cli.load_geodesics` picks it."""
    uniq, inverse = np.unique(gt, return_inverse=True)
    return geodesic_rows(mesh, uniq)[inverse, corr]


def standardize(x, gamma, beta):
    """Per-feature standardization over the vertex axis with affine, as
    its own op: the unfused oracle of ``autodiff.selu_standardize``, which
    applied to ``autodiff.selu``'s output it equals bit for bit."""
    if x.ndim != 2 or x.shape[0] < 2:
        raise SingleVertexShape(
            f"standardization needs at least 2 vertices, got shape {x.shape}")
    mean = x.mean(axis=0)
    xhat = np.subtract(x, mean)                             # centered
    value = np.square(xhat)
    var = value.mean(axis=0)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=value)
    value += beta

    def back(g):
        dx = np.multiply(g, gamma)                          # g * gamma
        work = np.multiply(dx, xhat)
        dx_xhat = work.mean(axis=0)
        np.multiply(g, xhat, out=work)
        grads = (work.sum(axis=0), g.sum(axis=0))
        dx -= dx.mean(axis=0)
        np.multiply(xhat, dx_xhat, out=work)
        dx -= work
        dx *= inv_std
        return dx, grads

    return value, back


def grid_mesh(nx, ny, lx=1.0, ly=1.0):
    """Flat triangulated rectangle in the z=0 plane, (nx+1)*(ny+1) vertices."""
    xs = np.linspace(0.0, lx, nx + 1)
    ys = np.linspace(0.0, ly, ny + 1)
    verts = np.array([(x, y, 0.0) for y in ys for x in xs])
    faces = []
    for j in range(ny):
        for i in range(nx):
            a = j * (nx + 1) + i
            b = a + 1
            c = a + nx + 2
            d = a + nx + 1
            faces += [(a, b, c), (a, c, d)]
    return TriMesh(verts, np.asarray(faces, dtype=np.int64))


def jittered_grid(nx, ny, seed=0, lx=1.0, ly=1.0):
    """Flat grid with interior vertices displaced in-plane to break the
    symmetries that put grid centers on eigenfunction nodal lines."""
    mesh = grid_mesh(nx, ny, lx, ly)
    rng = np.random.default_rng(seed)
    verts = mesh.vertices.copy()
    boundary = np.unique(mesh.boundary_edges)
    interior = np.setdiff1d(np.arange(mesh.n_vertices), boundary)
    cell = min(lx / nx, ly / ny)
    verts[interior, :2] += rng.uniform(-0.25, 0.25, (len(interior), 2)) * cell
    return TriMesh(verts, mesh.faces.copy())


def perturbed_sphere(seed, subdivisions=1):
    """Randomly bumped icosphere; stays manifold and non-degenerate."""
    base = wm.gen_base("icosphere", subdivisions)
    rng = np.random.default_rng(seed)
    radii = 1.0 + 0.15 * rng.uniform(-1.0, 1.0, base.n_vertices)
    return TriMesh(base.vertices * radii[:, None], base.faces.copy())


def test_kernel(spectra, scales):
    """Mexican-hat kernel whose band-pass peaks span the actually sampled
    eigenvalue range (small test spectra are much narrower than the
    production default spread)."""
    lam = spectra[0].eigenvalues
    lam_max = max(s.lambda_max for s in spectra)
    lam_lo = max(float(lam[1]), lam_max / 40.0)
    if scales == 1:
        ts = np.array([2.0 / lam_max])
    else:
        ts = 1.0 / np.geomspace(lam_max, lam_lo, scales)
    return KernelSpec(scales=ts, cutoff=0.4 * lam_max)


def solve_lbo(mesh, k):
    """The first k eigenpairs of `mesh`'s cotangent Laplacian."""
    return solve_eigs(assemble_lbo(mesh), mesh.mass, k)


def spectra_for(mesh, k, directions=1, alpha=0.0):
    frames = estimate_frames(mesh)
    return [solve_eigs(assemble_albo(mesh, frames, alpha, t), mesh.mass, k)
            for t in wm.direction_angles(directions)]


def build_bank_for(mesh, k, directions=1, alpha=0.0, scales=4):
    spectra = spectra_for(mesh, k, directions, alpha)
    return build_filterbank(spectra, test_kernel(spectra, scales))


@pytest.fixture(scope="session")
def ico0():
    return wm.gen_base("icosphere", 0)


@pytest.fixture(scope="session")
def ico1():
    return wm.gen_base("icosphere", 1)


@pytest.fixture(scope="session")
def ico3():
    return wm.gen_base("icosphere", 3)


@pytest.fixture(scope="session")
def open_cylinder():
    return wm.gen_base("cylinder", 3)


@pytest.fixture(scope="session")
def flat_grid():
    return grid_mesh(10, 10)
