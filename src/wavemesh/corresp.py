"""Dense matching between descriptor sets and the geodesic-error protocol.

Geodesic distances are shortest paths over the edge graph with Euclidean
edge lengths, an upper bound on the polyhedral geodesic. The overestimate is
not negligible: on icospheres of 162 to 2562 vertices, measured against
great-circle distance, its median is 6.9-7.3% and its maximum 21-23%, and
it does not shrink as the mesh is refined. Every AGE and CGE reported here
is inflated accordingly. Errors are normalized by sqrt(total target area),
the average is reported x100, and the cumulative curve gives the fraction of
matches within each radius.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from .errors import DisconnectedMesh

DEFAULT_RADII = np.linspace(0.0, 0.25, 101)
MATCH_BLOCK = 2048


@dataclass(frozen=True)
class CorrespondenceResult:
    """Vertex map with its geodesic-error summary.

    map : (n_source,) predicted target vertex per source vertex
    geodesic_errors : (n_source,) normalized (unitless) errors
    average_geodesic_error : mean error x 100
    cge : (n_radii, 2) columns (radius, fraction of matches <= radius)
    """

    map: np.ndarray
    geodesic_errors: np.ndarray
    average_geodesic_error: float
    cge: np.ndarray

    def fraction_at(self, radius):
        idx = np.searchsorted(self.cge[:, 0], radius + 1e-15) - 1
        if idx < 0:
            raise IndexError(f"radius {radius} below the evaluated range")
        return float(self.cge[idx, 1])


def match_nn(desc_source, desc_target):
    """Per-source index of the L2-nearest target row; ties break to the
    smallest index."""
    a = np.asarray(desc_source, dtype=np.float64)
    b = np.asarray(desc_target, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("descriptors must be 2-D arrays")
    if a.size == 0 or b.size == 0:
        raise ValueError("empty descriptor set")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"descriptor dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    out = np.empty(a.shape[0], dtype=np.int64)
    for start in range(0, a.shape[0], MATCH_BLOCK):
        stop = min(start + MATCH_BLOCK, a.shape[0])
        d = cdist(a[start:stop], b, "sqeuclidean")
        out[start:stop] = d.argmin(axis=1)
    return out


def _edge_graph(mesh):
    lengths = mesh.edge_lengths()
    e = mesh.edges
    n = mesh.n_vertices
    return sparse.csr_matrix((lengths, (e[:, 0], e[:, 1])), shape=(n, n))


def geodesic_from(mesh, source):
    """Graph geodesic distances from one source vertex."""
    return geodesic_rows(mesh, np.asarray([source]))[0]


def geodesic_rows(mesh, sources):
    """Distances from several sources at once, shape (len(sources), n)."""
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= mesh.n_vertices):
        raise IndexError("source vertex out of range")
    dist = dijkstra(_edge_graph(mesh), directed=False, indices=sources)
    dist = np.atleast_2d(dist)
    if np.isinf(dist).any():
        unreachable = np.unique(np.nonzero(np.isinf(dist))[1])
        raise DisconnectedMesh(
            f"{unreachable.size} vertices unreachable from the sources",
            unreachable=unreachable)
    return dist


def evaluate(corr, gt, target_mesh, radii=None):
    """Score a predicted map against ground truth on the target mesh."""
    corr = np.asarray(corr, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if corr.shape != gt.shape or corr.ndim != 1:
        raise ValueError(
            f"map shapes disagree: {corr.shape} vs {gt.shape}")
    n_target = target_mesh.n_vertices
    for name, arr in (("corr", corr), ("gt", gt)):
        if arr.min() < 0 or arr.max() >= n_target:
            raise IndexError(f"{name} contains indices outside the target mesh")
    if radii is None:
        radii = DEFAULT_RADII
    radii = np.asarray(radii, dtype=np.float64)

    uniq, inverse = np.unique(gt, return_inverse=True)
    rows = geodesic_rows(target_mesh, uniq)
    errors = rows[inverse, corr] / np.sqrt(target_mesh.total_area)
    fractions = (errors[None, :] <= radii[:, None]).mean(axis=1)
    return CorrespondenceResult(
        map=corr.copy(),
        geodesic_errors=errors,
        average_geodesic_error=float(errors.mean() * 100.0),
        cge=np.stack([radii, fractions], axis=1),
    )
