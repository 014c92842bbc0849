import numpy as np
import pytest

import wavemesh as wm
from wavemesh.curvature import estimate_frames
from wavemesh.mesh import TriMesh
from wavemesh.operators import assemble_albo
from wavemesh.spectrum import solve_eigs
from wavemesh.wavelets import KernelSpec, build_filterbank


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


def test_kernel(spectra, scales, tighten=True):
    """Mexican-hat kernel whose band-pass peaks span the actually sampled
    eigenvalue range (small test spectra are much narrower than the
    production default spread)."""
    from wavemesh.wavelets import kernel_g, kernel_h
    lam = spectra[0].eigenvalues
    lam_max = max(s.lambda_max for s in spectra)
    lam_lo = max(float(lam[1]), lam_max / 40.0)
    if scales == 1:
        ts = np.array([2.0 / lam_max])
    else:
        ts = 1.0 / np.geomspace(lam_max, lam_lo, scales)
    cutoff = 0.4 * lam_max
    return KernelSpec(band_pass=kernel_g,
                      low_pass=lambda x: kernel_h(x, cutoff),
                      scales=ts, tighten=tighten)


def build_bank_for(mesh, k, directions=1, alpha=0.0, scales=4, tighten=True):
    frames = estimate_frames(mesh)
    cfg = wm.AnisoConfig(alpha=alpha, theta=0.0, directions=directions)
    ops = [assemble_albo(mesh, frames, cfg.with_theta(t)) for t in cfg.angles()]
    spectra = [solve_eigs(o, k) for o in ops]
    kernel = test_kernel(spectra, scales, tighten=tighten)
    return build_filterbank(spectra, kernel, tighten=tighten)


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


@pytest.fixture(scope="session")
def tiny_bank(ico1):
    """Tight 2-direction bank on the 42-vertex icosphere."""
    return build_bank_for(ico1, k=20, directions=2, alpha=50.0, scales=3)
