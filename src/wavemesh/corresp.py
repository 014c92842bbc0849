"""Dense matching between descriptor sets and the geodesic-error protocol.

Matching: `match_nn` returns, for each source descriptor a, the index of the
nearest target row b_j, exactly as `cdist(a, b, "sqeuclidean").argmin(1)`
would, ties to the smallest index included, but scores with one GEMM per
block of MATCH_BLOCK source rows. The GEMM forms q_j = |b_j|^2 - 2 a.b_j,
which is |a - b_j|^2 less the row constant |a|^2. By the standard dot-product
bound, gamma_n = n u / (1 - n u) with u = eps / 2 and D the descriptor
dimension, rounding moves q_j by at most delta_gemm and cdist's own sum by at
most delta_cdist, each <= gamma_(D+2) (|a| + max_j |b_j|)^2. So cdist's
minimizer lies within the window 2 (delta_gemm + delta_cdist) of the
smallest computed q_j; every target inside the window is re-scored with
cdist, and the argmin among them is cdist's argmin over all targets, bit for
bit. Each delta is taken as (D + 2) eps (|a| + max_j |b_j|)^2, twice the
bound, to absorb the rounding of the norms and of the window itself. A row
whose window holds one target costs only its share of the GEMM.

Geodesic distances are shortest paths over the edge graph with Euclidean
edge lengths, an upper bound on the polyhedral geodesic. The overestimate is
not negligible: on icospheres of 162 to 2562 vertices, measured against
great-circle distance, its median is 6.9-7.3% and its maximum 21-23%, and
it does not shrink as the mesh is refined. Every AGE and CGE reported here
is inflated accordingly. `evaluate` needs one row per distinct ground-truth
vertex; a caller that already holds them (the CLI caches them per target
mesh and ground truth) passes them as `rows`. Errors are normalized by
sqrt(total target area), the average is reported x100, and the cumulative
curve gives the fraction of matches within each radius.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

from .errors import DisconnectedMesh, NonFiniteDescriptor

DEFAULT_RADII = np.linspace(0.0, 0.25, 101)
MATCH_BLOCK = 2048
GEODESIC_METHOD = "dijkstra"  # names how geodesic_rows measures, in cache keys


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


def match_nn(desc_source, desc_target):
    """Per-source index of the L2-nearest target row; ties break to the
    smallest index. Equals cdist's argmin bit for bit (module docstring).
    Raises NonFiniteDescriptor when any descriptor is NaN or infinite."""
    a = np.asarray(desc_source, dtype=np.float64)
    b = np.asarray(desc_target, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("descriptors must be 2-D arrays")
    if a.size == 0 or b.size == 0:
        raise ValueError("empty descriptor set")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"descriptor dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise NonFiniteDescriptor(
            "descriptors hold NaN or infinite values, so no distance to "
            "them means anything")
    out = np.empty(a.shape[0], dtype=np.int64)
    # descriptors near 1e154 overflow q; their rows are re-scored in full
    with np.errstate(over="ignore", invalid="ignore"):
        b_sq = np.einsum("ij,ij->i", b, b)
        # delta_gemm = delta_cdist = delta; the window is 2 (their sum)
        delta = (a.shape[1] + 2) * np.finfo(np.float64).eps * (
            np.sqrt(np.einsum("ij,ij->i", a, a)) + np.sqrt(b_sq.max())) ** 2
        window = 4 * delta
        for start in range(0, a.shape[0], MATCH_BLOCK):
            stop = min(start + MATCH_BLOCK, a.shape[0])
            out[start:stop] = _match_block(a[start:stop], b, b_sq,
                                           window[start:stop])
    return out


def _match_block(a, b, b_sq, window):
    """cdist's argmin for one block of source rows: the GEMM scores q, then
    cdist re-scores each row's targets within `window` of its minimum q."""
    q = a @ b.T
    q *= -2.0
    q += b_sq
    best = q.argmin(axis=1)
    limit = q[np.arange(a.shape[0]), best] + window
    near = q <= limit[:, None]
    redo = ~np.isfinite(limit) | (np.count_nonzero(near, axis=1) > 1)
    for r in np.flatnonzero(redo):
        cols = (np.flatnonzero(near[r]) if np.isfinite(limit[r])
                else np.arange(b.shape[0]))
        best[r] = cols[cdist(a[r][None], b[cols], "sqeuclidean")[0].argmin()]
    return best


def _edge_graph(mesh):
    lengths = mesh.edge_lengths()
    e = mesh.edges
    n = mesh.n_vertices
    return sparse.csr_matrix((lengths, (e[:, 0], e[:, 1])), shape=(n, n))


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


def evaluate(corr, gt, target_mesh, radii=None, rows=None):
    """Score a predicted map against ground truth on the target mesh.

    rows: the geodesic rows of np.unique(gt) on the target mesh, shape
    (unique gt vertices, target vertices), as `geodesic_rows` returns them.
    Computed here when None."""
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
    if rows is None:
        rows = geodesic_rows(target_mesh, uniq)
    elif rows.shape != (uniq.size, n_target):
        raise ValueError(
            f"geodesic rows have shape {rows.shape}, expected "
            f"{(uniq.size, n_target)}")
    errors = rows[inverse, corr] / np.sqrt(target_mesh.total_area)
    fractions = (errors[None, :] <= radii[:, None]).mean(axis=1)
    return CorrespondenceResult(
        map=corr.copy(),
        geodesic_errors=errors,
        average_geodesic_error=float(errors.mean() * 100.0),
        cge=np.stack([radii, fractions], axis=1),
    )
