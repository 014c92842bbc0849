"""Sparse stiffness/mass assembly for the isotropic and anisotropic
Laplace-Beltrami operators.

Both assemblies produce the positive semi-definite stiffness convention
(eigenvalues >= 0) paired with the lumped Voronoi mass vector. The
anisotropic operator scales diffusion by 1/(1+alpha) along the rotated
per-triangle curvature direction; alpha = 0 reduces it to the cotangent
Laplacian exactly.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .curvature import _tangent_fallback
from .errors import DegenerateTriangle, FrameMeshMismatch
from .mesh import corner_cotangents


@dataclass(frozen=True)
class AnisoConfig:
    """Anisotropy level and direction set for operator assembly.

    alpha >= 0 (0 means isotropic); theta in [0, pi) is the rotation from
    the per-point curvature direction; directions is the number of evenly
    spaced angles m*pi/M used when building a filter bank per direction.
    """

    alpha: float = 50.0
    theta: float = 0.0
    directions: int = 4

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be >= 0, got {self.alpha}")
        if self.directions not in (1, 2, 4):
            raise ValueError(f"directions must be 1, 2 or 4, got {self.directions}")

    def angles(self):
        """Angles theta_m = m*pi/M; the tensor is pi-periodic so [0, pi)
        covers every distinct operator."""
        m = self.directions
        return [i * math.pi / m for i in range(m)]

    def with_theta(self, theta):
        return AnisoConfig(alpha=self.alpha, theta=theta, directions=self.directions)


@dataclass(frozen=True)
class OperatorPair:
    """Stiffness matrix + lumped mass vector for one (alpha, theta)."""

    stiffness: sparse.csr_matrix
    mass: np.ndarray
    config: AnisoConfig = field(default_factory=lambda: AnisoConfig(0.0, 0.0, 1))

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
    return OperatorPair(stiffness=stiff, mass=mesh.mass.copy(),
                        config=AnisoConfig(alpha=0.0, theta=0.0, directions=1))


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
    for t in np.nonzero(norms < 1e-8)[0]:
        avg[t] = _tangent_fallback(fn[t])
        norms[t] = 1.0
    return avg / norms[:, None]


def assemble_albo(mesh, frames, config):
    """Anisotropic stiffness: per-triangle FEM with the conductivity tensor
    expressed in a basis whose first axis is the triangle curvature
    direction."""
    if frames.n_vertices != mesh.n_vertices:
        raise FrameMeshMismatch(
            f"frames for {frames.n_vertices} vertices, mesh has {mesh.n_vertices}")
    v, f = mesh.vertices, mesh.faces
    area = mesh.face_areas
    if (area <= 0).any():
        raise DegenerateTriangle("zero-area face")

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

    d = anisotropy_tensor(config.alpha, config.theta)
    local = np.einsum("fai,ab,fbj->fij", grads, d, grads)
    local *= area[:, None, None]
    local = 0.5 * (local + local.transpose(0, 2, 1))

    rows = np.repeat(f, 3, axis=1).reshape(-1)              # i index
    cols = np.tile(f, (1, 3)).reshape(-1)                   # j index
    vals = local.reshape(-1)                                # row-major (i, j)
    n = mesh.n_vertices
    stiff = sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    stiff.sum_duplicates()
    return OperatorPair(stiffness=stiff, mass=mesh.mass.copy(), config=config)
