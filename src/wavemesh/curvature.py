"""Per-vertex principal curvatures and tangent frames.

The estimator fits a 2x2 shape operator per triangle by least squares from
the differences of vertex normals along the three edges (expressed in the
triangle's tangent basis), averages the tensors of each vertex's incident
triangles (its 1-ring) into its tangent plane with area weights, and
eigendecomposes the resulting 2x2 form per vertex
(Rusinkiewicz 2004). The average is one sparse vertex x face product and
the 2x2 problems are one batched eigh, so no step loops over vertices.
With outward normals a convex sphere gets positive curvatures.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import IsolatedVertex

# relative eigenvalue gap below which a vertex counts as umbilic
UMBILIC_RTOL = 1e-6


@dataclass(frozen=True)
class PrincipalFrames:
    """Principal curvatures and directions for every vertex.

    k_min, k_max : (n,) curvatures (1/length units), k_max >= k_min
    dir_max : (n, 3) unit vectors, tangent to the surface; at umbilic
        vertices this is the deterministic fallback direction
    umbilic : (n,) bool
    """

    k_min: np.ndarray
    k_max: np.ndarray
    dir_max: np.ndarray
    umbilic: np.ndarray

    def __post_init__(self):
        for arr in (self.k_min, self.k_max, self.dir_max, self.umbilic):
            arr.setflags(write=False)

    @property
    def n_vertices(self):
        return self.k_min.shape[0]


def _tangent_fallback(normals):
    """Per row of ``normals``: +x projected into the tangent plane, or +y
    where that is degenerate (+z if both are, which only a garbage normal
    allows)."""
    out = np.tile([0.0, 0.0, 1.0], (len(normals), 1))
    todo = np.ones(len(normals), dtype=bool)
    for a in (0, 1):
        d = np.eye(3)[a] - normals[:, a, None] * normals
        norm = np.linalg.norm(d, axis=1)
        ok = todo & (norm >= 1e-8)
        out[ok] = d[ok] / norm[ok, None]
        todo &= ~ok
    return out


def _canonical_sign(d):
    """Flip each row so that its first component above 1e-10 in magnitude
    is positive."""
    big = np.abs(d) > 1e-10
    first = d[np.arange(len(d)), big.argmax(axis=1)]
    return np.where((big.any(axis=1) & (first < 0))[:, None], -d, d)


def estimate_frames(mesh):
    """Estimate PrincipalFrames for every vertex of ``mesh``: each vertex
    averages the shape-operator fits of its incident triangles (its
    1-ring).

    Raises IsolatedVertex if some vertex has no incident face.
    """
    f = mesh.faces
    n_vert, m = mesh.n_vertices, mesh.n_faces
    # vertex x face weights of the average: one per incident corner
    weights = sparse.csr_matrix(
        (np.ones(3 * m), (f.ravel(), np.repeat(np.arange(m), 3))),
        shape=(n_vert, m))
    incident = np.diff(weights.indptr)
    if (incident == 0).any():
        raise IsolatedVertex(
            f"vertex {int(np.argmin(incident))} has no incident face")
    s3 = face_tensors(mesh)
    acc = (weights @ s3.reshape(m, 9)).reshape(n_vert, 3, 3)
    acc /= (weights @ mesh.face_areas)[:, None, None]

    normals = mesh.vertex_normals
    t1 = _tangent_fallback(normals)
    basis = np.stack([t1, np.cross(normals, t1)], axis=1)      # (n, 2, 3)
    q = basis @ acc @ basis.transpose(0, 2, 1)
    evals, evecs = np.linalg.eigh(0.5 * (q + q.transpose(0, 2, 1)))
    k_min, k_max = evals[:, 0], evals[:, 1]
    scale = np.abs(k_min) + np.abs(k_max) + 1e-12
    umbilic = np.abs(k_max - k_min) < UMBILIC_RTOL * scale
    pick = (np.abs(k_max) >= np.abs(k_min)).astype(int)
    live = ~umbilic
    d = t1.copy()
    coef = evecs[live, :, pick[live]]                            # (live, 2)
    d[live] = np.einsum("va,vaj->vj", coef, basis[live])
    d[live] /= np.linalg.norm(d[live], axis=1)[:, None]
    return PrincipalFrames(k_min=k_min.copy(), k_max=k_max.copy(),
                           dir_max=_canonical_sign(d), umbilic=umbilic)


def face_tensors(mesh):
    """(m, 3, 3) area-weighted shape operators of the triangles, each the
    least-squares 2x2 fit in the triangle's tangent basis embedded in 3D."""
    v, f = mesh.vertices, mesh.faces
    vnormals = mesh.vertex_normals
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    fn = mesh.face_normals
    e_u = p1 - p0
    u = e_u / np.linalg.norm(e_u, axis=1)[:, None]
    w = np.cross(fn, u)

    # edges and the normal differences along them (edge k is opposite
    # vertex k, oriented consistently with the vertex order)
    edges = np.stack([p2 - p1, p0 - p2, p1 - p0], axis=1)        # (m, 3, 3)
    nd = np.stack([vnormals[f[:, 2]] - vnormals[f[:, 1]],
                   vnormals[f[:, 0]] - vnormals[f[:, 2]],
                   vnormals[f[:, 1]] - vnormals[f[:, 0]]], axis=1)

    eu = np.einsum("mkj,mj->mk", edges, u)
    ew = np.einsum("mkj,mj->mk", edges, w)
    du = np.einsum("mkj,mj->mk", nd, u)
    dw = np.einsum("mkj,mj->mk", nd, w)

    # Least squares for symmetric S = [[a, b], [b, c]] from
    #   a*eu + b*ew = du   and   b*eu + c*ew = dw   over the 3 edges.
    # Normal equations assembled in closed form.
    se_uu = (eu * eu).sum(axis=1)
    se_ww = (ew * ew).sum(axis=1)
    se_uw = (eu * ew).sum(axis=1)
    ata = np.zeros((len(f), 3, 3))
    ata[:, 0, 0] = se_uu
    ata[:, 0, 1] = ata[:, 1, 0] = se_uw
    ata[:, 1, 1] = se_uu + se_ww
    ata[:, 1, 2] = ata[:, 2, 1] = se_uw
    ata[:, 2, 2] = se_ww
    atb = np.zeros((len(f), 3))
    atb[:, 0] = (eu * du).sum(axis=1)
    atb[:, 1] = (ew * du).sum(axis=1) + (eu * dw).sum(axis=1)
    atb[:, 2] = (ew * dw).sum(axis=1)
    # tiny Tikhonov term keeps collinear-edge triangles solvable
    ata += 1e-12 * np.eye(3) * np.maximum(se_uu + se_ww, 1e-300)[:, None, None]
    abc = np.linalg.solve(ata, atb[..., None])[..., 0]

    # embed each triangle tensor in 3D and accumulate area-weighted
    a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
    uu = np.einsum("mi,mj->mij", u, u)
    ww = np.einsum("mi,mj->mij", w, w)
    uw = np.einsum("mi,mj->mij", u, w)
    s3 = (a[:, None, None] * uu
          + b[:, None, None] * (uw + uw.transpose(0, 2, 1))
          + c[:, None, None] * ww)
    s3 *= mesh.face_areas[:, None, None]
    return s3
