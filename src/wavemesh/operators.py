"""Sparse stiffness/mass assembly for the isotropic and anisotropic
Laplace-Beltrami operators.

Both assemblies produce the positive semi-definite stiffness convention
(eigenvalues >= 0) paired with the lumped Voronoi mass vector. The
anisotropic operator scales diffusion by 1/(1+alpha) along the rotated
per-triangle curvature direction; alpha = 0 reduces it to the cotangent
Laplacian exactly. A filter bank takes one anisotropic operator per angle
of `direction_angles`.

The direction of a triangle is the average of its vertices' curvature
directions. It falls back to the world +x, projected into the triangle's
plane (+y where +x is normal to it), in two places: at umbilic vertices,
whose directions are that fallback already (`curvature.estimate_frames`),
and at faces whose averaged direction vanishes (`_triangle_directions`).
So for alpha > 0 the operator there depends on the mesh's orientation,
not only on its shape; at alpha = 0 it does not.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .curvature import _tangent_fallback
from .errors import FrameMeshMismatch
from .mesh import corner_cotangents


def direction_angles(directions):
    """The angles theta_m = m*pi/M of M evenly spaced directions, as Python
    floats (they enter the SPEC1 keys by repr); the tensor is pi-periodic,
    so [0, pi) covers every distinct operator."""
    return [m * math.pi / directions for m in range(directions)]


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness matrix + lumped mass vector for one (alpha, theta)."""

    stiffness: sparse.csr_matrix
    mass: np.ndarray

    @property
    def n(self):
        return self.stiffness.shape[0]


def anisotropy_tensor(alpha, theta):
    """2x2 conductivity tensor R_theta diag(1/(1+alpha), 1) R_theta^T."""
    if alpha < 0:
        raise ValueError(f"alpha must be >= 0, got {alpha}")
    c, s = math.cos(theta), math.sin(theta)
    r = np.array([[c, -s], [s, c]])
    return r @ np.diag([1.0 / (1.0 + alpha), 1.0]) @ r.T


def assemble_lbo(mesh):
    """Cotangent stiffness matrix with the Voronoi mass vector."""
    f = mesh.faces
    cot = corner_cotangents(mesh)

    # edge opposite corner k gets weight cot_k / 2, twice (symmetric)
    rows, cols, vals = [], [], []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        w = 0.5 * cot[:, k]
        rows += [f[:, i], f[:, j], f[:, i], f[:, j]]
        cols += [f[:, j], f[:, i], f[:, i], f[:, j]]
        vals += [-w, -w, w, w]
    n = mesh.n_vertices
    stiff = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    stiff.sum_duplicates()
    return OperatorPair(stiffness=stiff, mass=mesh.mass.copy())


def _triangle_directions(mesh, frames):
    """Average incident dir_max vectors per triangle (sign-aligned to the
    first), projected into the triangle plane and normalized."""
    f = mesh.faces
    d = frames.dir_max[f]                                  # (m, 3, 3)
    d0 = d[:, 0]
    for k in (1, 2):
        flip = np.einsum("ij,ij->i", d[:, k], d0) < 0
        d[flip, k] = -d[flip, k]
    avg = d.mean(axis=1)
    fn = mesh.face_normals
    avg -= np.einsum("ij,ij->i", avg, fn)[:, None] * fn
    norms = np.linalg.norm(avg, axis=1)
    flat = norms < 1e-8
    avg[flat] = _tangent_fallback(fn[flat])
    norms[flat] = 1.0
    return avg / norms[:, None]


def assemble_albo(mesh, frames, alpha, theta):
    """Anisotropic stiffness at anisotropy level ``alpha`` >= 0 (0 is
    isotropic) and angle ``theta`` from the curvature direction: per-triangle
    FEM with the conductivity tensor expressed in a basis whose first axis is
    the triangle curvature direction."""
    if frames.n_vertices != mesh.n_vertices:
        raise FrameMeshMismatch(
            f"frames for {frames.n_vertices} vertices, mesh has {mesh.n_vertices}")
    v, f = mesh.vertices, mesh.faces
    area = mesh.face_areas

    b1 = _triangle_directions(mesh, frames)
    b2 = np.cross(mesh.face_normals, b1)

    # 2D coordinates of the triangle corners in the (b1, b2) basis
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    q = np.zeros((len(f), 3, 2))
    for idx, p in enumerate((p0, p1, p2)):
        rel = p - p0
        q[:, idx, 0] = np.einsum("ij,ij->i", rel, b1)
        q[:, idx, 1] = np.einsum("ij,ij->i", rel, b2)

    # hat-function gradients: grad B_i = rot90(q_k - q_j) / (2A)
    grads = np.empty((len(f), 2, 3))
    two_a = 2.0 * area
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        e = q[:, k] - q[:, j]
        grads[:, 0, i] = -e[:, 1] / two_a
        grads[:, 1, i] = e[:, 0] / two_a

    d = anisotropy_tensor(alpha, theta)
    local = np.einsum("fai,ab,fbj->fij", grads, d, grads)
    local *= area[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))

    rows = np.repeat(f, 3, axis=1).reshape(-1)              # i index
    cols = np.tile(f, (1, 3)).reshape(-1)                   # j index
    vals = local.reshape(-1)                                # row-major (i, j)
    n = mesh.n_vertices
    stiff = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    stiff.sum_duplicates()
    return OperatorPair(stiffness=stiff, mass=mesh.mass.copy())
