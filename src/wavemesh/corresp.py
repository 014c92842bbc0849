"""Dense matching between descriptor sets and the geodesic-error protocol.

Matching: `match_nn` returns, for each source descriptor a, the index of the
nearest target row b_j, exactly as `cdist(a, b, "sqeuclidean").argmin(1)`
would, ties to the smallest index included, but scores with one GEMM per
block of MATCH_BLOCK source rows. The GEMM forms q_j = |b_j|^2 - 2 a.b_j,
which is |a - b_j|^2 less the row constant |a|^2. By the standard dot-product
bound, gamma_n = n u / (1 - n u) with u = eps / 2 and D the descriptor
dimension, rounding moves q_j by at most delta_gemm and the exact squared
distance's ordered sum by at most delta_sum, each <= gamma_(D+2)
(|a| + max_j |b_j|)^2. So the ordered sum's minimizer lies within the window
2 (delta_gemm + delta_sum) of the smallest computed q_j. Every target inside
the window is re-scored by the ordered sum: (a_i - b_ji)^2 added over the
coordinates i = 1..D in order, from 0, which is the sum cdist forms, so the
argmin among them is cdist's argmin over all targets, bit for bit (numpy's
pairwise `.sum()` and `einsum` round differently). The re-score is
vectorized over the (row, target) pairs of a block's re-scored rows, one
coordinate at a time; `cdist` is only the tests' oracle. Each delta is
taken as (D + 2) eps (|a| + max_j |b_j|)^2, twice the bound, to absorb the
rounding of the norms and of the window itself. A row whose window holds
one target costs only its share of the GEMM. Matching holds one block's
scores and window mask at a time, MATCH_BLOCK x n_target x 9 bytes (11 MB
against the 4898 vertices of a remeshed res-6 bar), whatever the number of
source rows, and about 48 bytes per re-scored (row, target) pair; a row
whose scores overflow re-scores every target.

Geodesic distances are shortest paths over the edge graph with Euclidean
edge lengths, an upper bound on the polyhedral geodesic. The overestimate is
not negligible: on icospheres of 162, 642 and 2562 vertices, against great
circles over all vertex pairs, its median is 5.93%, 6.55% and 6.63%, its
maximum 21.1-23.4%, rising with refinement. Every AGE and CGE reported here
is inflated accordingly. `evaluate` only scores: it takes one distance per
source vertex, from its ground-truth vertex to its predicted one, from its
caller, which checks the maps (`check_map`). Those come from one row per
distinct ground-truth vertex: `geodesic_blocks` builds the edge graph once,
checks on it that every source reaches every vertex, then computes
GEO_BLOCK sources per `geodesic_rows` call on that graph as the blocks are
iterated, so it holds GEO_BLOCK x n_target distances at a time, not
|unique gt| x n_target (the CLI writes each block to its cache as it is
made, then reads back only the one entry per source vertex). Errors are
normalized by sqrt(total target area), the average is reported x100, and
the cumulative curve `cge` gives the fraction of errors within each radius,
of one pair or of many pooled.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components, dijkstra

from .errors import DisconnectedMesh, NonFiniteDescriptor

MATCH_BLOCK = 256
GEO_BLOCK = 128


@dataclass(frozen=True)
class CorrespondenceResult:
    """Geodesic-error summary of one vertex map.

    geodesic_errors : (n_source,) normalized (unitless) errors
    average_geodesic_error : mean error x 100
    cge : (n_radii, 2) columns (radius, fraction of matches <= radius)
    """

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
        # delta_gemm = delta_sum = delta; the window is 2 (their sum)
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
    the ordered sum re-scores each row's targets within `window` of its
    minimum q."""
    q = a @ b.T
    q *= -2.0
    q += b_sq
    best = q.argmin(axis=1)
    limit = q[np.arange(a.shape[0]), best] + window
    near = q <= limit[:, None]
    redo = ~np.isfinite(limit) | (np.count_nonzero(near, axis=1) > 1)
    if redo.any():
        near = near[redo]
        near[~np.isfinite(limit[redo])] = True
        best[redo] = _rescore(a[redo], b, near)
    return best


def _rescore(a, b, near):
    """Per row of `a`, the first target among those `near` marks that
    minimizes the squared distance summed over the coordinates in order,
    as cdist sums it."""
    rows, cols = np.nonzero(near)
    sq = np.zeros(rows.size)
    for i in range(a.shape[1]):
        d = a[rows, i] - b[cols, i]
        d *= d
        sq += d
    counts = np.count_nonzero(near, axis=1)
    lowest = np.minimum.reduceat(sq, np.cumsum(counts) - counts)
    hit = np.flatnonzero(sq == np.repeat(lowest, counts))
    _, first = np.unique(rows[hit], return_index=True)
    return cols[hit[first]]


def _edge_graph(mesh):
    """Both directions of every edge, weighted by its length."""
    lengths = np.concatenate([mesh.edge_lengths()] * 2)
    e = mesh.edges
    n = mesh.n_vertices
    return sparse.csr_matrix(
        (lengths, (np.concatenate([e[:, 0], e[:, 1]]),
                   np.concatenate([e[:, 1], e[:, 0]]))), shape=(n, n))


def _checked_sources(mesh, sources):
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size and (sources.min() < 0 or sources.max() >= mesh.n_vertices):
        raise IndexError("source vertex out of range")
    return sources


def geodesic_rows(mesh, sources, graph=None):
    """Distances from several sources at once, shape (len(sources), n).
    A vertex that a source cannot reach reads inf; `geodesic_blocks`
    rules that out before it calls this. `graph` is the mesh's
    `_edge_graph`, built here when not given."""
    sources = _checked_sources(mesh, sources)
    if graph is None:
        graph = _edge_graph(mesh)
    return np.atleast_2d(dijkstra(graph, directed=True, indices=sources))


def geodesic_blocks(mesh, sources):
    """The `geodesic_rows` of `sources`, GEO_BLOCK sources per call, as an
    iterator of row blocks that computes each block when it is reached.

    Raises DisconnectedMesh at once, before any block is computed, when a
    source cannot reach some vertex; its `unreachable` holds every such
    vertex, which is every vertex when the sources span two components."""
    sources = _checked_sources(mesh, sources)
    graph = _edge_graph(mesh)   # built once, for the check and every block
    _, labels = connected_components(graph, directed=False)
    reached = np.unique(labels[sources])
    unreachable = np.flatnonzero(
        np.isin(labels, reached, invert=True) | (reached.size > 1))
    if sources.size and unreachable.size:
        raise DisconnectedMesh(
            f"{unreachable.size} vertices unreachable from the sources",
            unreachable=unreachable)
    # geodesic_rows is looked up at each block, so a probe on it sees them
    return (geodesic_rows(mesh, sources[start:start + GEO_BLOCK], graph)
            for start in range(0, sources.size, GEO_BLOCK))


def check_map(corr, gt, n_target):
    """(corr, gt) as int64 arrays, once they are 1-D arrays of one shape;
    raises ValueError otherwise, and IndexError when an index lies outside
    a target mesh of `n_target` vertices."""
    corr = np.asarray(corr, dtype=np.int64)
    gt = np.asarray(gt, dtype=np.int64)
    if corr.shape != gt.shape or corr.ndim != 1:
        raise ValueError(
            f"map shapes disagree: {corr.shape} vs {gt.shape}")
    for name, arr in (("corr", corr), ("gt", gt)):
        if arr.min() < 0 or arr.max() >= n_target:
            raise IndexError(f"{name} contains indices outside the target mesh")
    return corr, gt


def cge(errors, radii):
    """The cumulative geodesic error curve of `errors`: (n_radii, 2)
    columns (radius, fraction of errors <= radius)."""
    radii = np.asarray(radii, dtype=np.float64)
    fractions = (errors[None, :] <= radii[:, None]).mean(axis=1)
    return np.stack([radii, fractions], axis=1)


def evaluate(dist, target_mesh, radii):
    """Score one map from `dist`: per source vertex, the geodesic distance
    on the target mesh from its ground-truth vertex to its predicted one,
    as `cli.load_geodesics` picks them from checked maps."""
    errors = np.asarray(dist, np.float64) / np.sqrt(target_mesh.total_area)
    return CorrespondenceResult(errors, float(errors.mean() * 100.0),
                                cge(errors, radii))
