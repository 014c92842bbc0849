import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import dijkstra
from scipy.spatial.distance import cdist

import wavemesh as wm
from wavemesh import corresp
from wavemesh.corresp import evaluate, geodesic_blocks, geodesic_rows, match_nn
from wavemesh.errors import DisconnectedMesh, NonFiniteDescriptor, NumericalError
from wavemesh.mesh import TriMesh

from .conftest import grid_mesh, gt_distances, perturbed_sphere, traced_peak


def bellman_ford(mesh, source):
    """Brute-force shortest paths over the edge graph."""
    n = mesh.n_vertices
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    edges = mesh.edges
    lengths = mesh.edge_lengths()
    for _ in range(n - 1):
        changed = False
        for (a, b), w in zip(edges, lengths):
            if dist[a] + w < dist[b]:
                dist[b] = dist[a] + w
                changed = True
            if dist[b] + w < dist[a]:
                dist[a] = dist[b] + w
                changed = True
        if not changed:
            break
    return dist


class TestMatchNN:
    def test_identical_descriptors_identity(self):
        rng = np.random.default_rng(0)
        d = rng.standard_normal((40, 8))
        assert np.array_equal(match_nn(d, d), np.arange(40))

    def test_hand_distance_table(self):
        source = np.array([[0.0], [1.0]])
        target = np.array([[0.9], [0.1]])
        assert match_nn(source, target).tolist() == [1, 0]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(1)
        source = rng.standard_normal((10, 4))
        target = rng.standard_normal((15, 4))
        base = match_nn(source, target)
        perm = rng.permutation(15)
        permuted = match_nn(source, target[perm])
        assert np.array_equal(perm[permuted], base)

    def test_tie_breaks_to_smallest_index(self):
        source = np.array([[0.0, 0.0]])
        target = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert match_nn(source, target)[0] == 0

    def test_errors(self):
        with pytest.raises(ValueError):
            match_nn(np.zeros((0, 3)), np.zeros((4, 3)))
        with pytest.raises(ValueError):
            match_nn(np.zeros((4, 3)), np.zeros((4, 2)))

    @pytest.mark.parametrize("side", ["source", "target"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_descriptor_raises(self, side, bad):
        rng = np.random.default_rng(5)
        source = rng.standard_normal((6, 3))
        target = rng.standard_normal((9, 3))
        (source if side == "source" else target)[2, 1] = bad
        with pytest.raises(NonFiniteDescriptor):
            match_nn(source, target)
        assert issubclass(NonFiniteDescriptor, NumericalError)


def cdist_argmin(source, target):
    """The reference matcher: exact squared distances, first minimum."""
    return cdist(source, target, "sqeuclidean").argmin(axis=1)


def near_ties(rng, n_source, n_target, dim=8, offset=1e3, spread=1e-4):
    """Points spread 1e-4 around a common offset of 1e3: gaps between
    squared distances are near 1e-10, while rounding |b|^2 - 2a.b at
    |b|^2 ~ 8e6 errs by ~1e-9. Every other source row repeats one value,
    and the targets come in groups of four coordinate permutations of one
    row. Such a source is exactly as far from each row of a group, and
    only the order in which the squares are summed decides between them:
    numpy's pairwise `.sum()` and `einsum` pick other rows than cdist."""
    source = offset + spread * rng.standard_normal((n_source, dim))
    source[::2] = source[::2, :1]
    base = offset + spread * rng.standard_normal((-(-n_target // 4), dim))
    target = np.concatenate([rng.permuted(base, axis=1) for _ in range(4)])
    return source, target[rng.permutation(n_target)]


class TestMatchNNOracle:
    def test_duplicated_target_rows_tie_to_the_smallest_index(self):
        rng = np.random.default_rng(6)
        base = rng.standard_normal((20, 5))
        # rows 20..39 repeat rows 0..19, rows 40..49 repeat rows 5..14
        target = np.vstack([base, base, base[5:15]])
        source = np.vstack([base, base + 1e-3 * rng.standard_normal(base.shape)])
        got = match_nn(source, target)
        assert np.array_equal(got, cdist_argmin(source, target))
        assert (got < 20).all()
        assert np.array_equal(got[:20], np.arange(20))

    def test_near_ties_under_a_large_offset(self, dim=8):
        rng = np.random.default_rng(7)
        source, target = near_ties(rng, 200, 300, dim)
        want = cdist_argmin(source, target)
        expanded = (np.einsum("ij,ij->i", target, target)
                    - 2 * source @ target.T).argmin(axis=1)
        assert (expanded != want).any()  # the case needs the window
        assert np.array_equal(match_nn(source, target), want)

    def test_near_ties_at_the_network_width(self):
        self.test_near_ties_under_a_large_offset(dim=128)

    @pytest.mark.parametrize("shape", [(37, 91), (91, 37), (1, 50), (50, 1)])
    def test_rectangular(self, shape):
        rng = np.random.default_rng(8)
        source = rng.standard_normal((shape[0], 5))
        target = rng.standard_normal((shape[1], 5))
        assert np.array_equal(match_nn(source, target),
                              cdist_argmin(source, target))

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_several_blocks(self, monkeypatch, block):
        monkeypatch.setattr(corresp, "MATCH_BLOCK", block)
        rng = np.random.default_rng(9)
        source, target = near_ties(rng, 45, 60)
        target[30:40] = target[10:20]
        source[:5] = target[12:17]
        assert np.array_equal(match_nn(source, target),
                              cdist_argmin(source, target))

    def test_peak_memory_below_one_score_array(self):
        # the scores are made MATCH_BLOCK source rows at a time
        n_source, n_target = 1024, 1000
        assert corresp.MATCH_BLOCK < n_source
        rng = np.random.default_rng(12)
        source = rng.standard_normal((n_source, 8))
        target = rng.standard_normal((n_target, 8))
        peak, got = traced_peak(lambda: match_nn(source, target))
        assert peak < n_source * n_target * 8
        assert np.array_equal(got, cdist_argmin(source, target))

    def test_overflowing_descriptors_match_the_oracle(self, dim=3):
        # finite, but |b|^2 overflows: every row is re-scored over every
        # target, among exact ties at 1e154 and, from rows scaled to 1e200,
        # among distances that overflow too
        rng = np.random.default_rng(10)
        source, target = near_ties(rng, 40, 60, dim, offset=1e154,
                                   spread=1e150)
        source[:4] *= 1e46
        source[4] = target[3]
        assert np.array_equal(match_nn(source, target),
                              cdist_argmin(source, target))

    def test_overflowing_descriptors_at_the_network_width(self):
        self.test_overflowing_descriptors_match_the_oracle(dim=128)


class TestGeodesics:
    def test_three_vertex_path(self):
        # path 0-1-2 with lengths 1 and 2; the apex vertex only offers a
        # much longer detour
        verts = [[0, 0, 0], [1, 0, 0], [3, 0, 0], [1.5, 10, 0]]
        faces = [[0, 1, 3], [1, 2, 3]]
        mesh = TriMesh(verts, faces)
        dist = geodesic_rows(mesh, [0])[0]
        assert np.allclose(dist[:3], [0.0, 1.0, 3.0])

    def test_grid_matches_bellman_ford(self):
        mesh = grid_mesh(9, 9)
        got = geodesic_rows(mesh, [0])[0]
        want = bellman_ford(mesh, 0)
        assert np.array_equal(got, want)
        corner = mesh.n_vertices - 1
        assert got[corner] == want[corner]

    def test_triangle_inequality(self, ico1):
        rng = np.random.default_rng(2)
        idx = rng.integers(0, ico1.n_vertices, (20, 3))
        rows = geodesic_rows(ico1, np.unique(idx))
        lookup = {v: i for i, v in enumerate(np.unique(idx))}
        for a, b, c in idx:
            dab = rows[lookup[a], b]
            dbc = rows[lookup[b], c]
            dac = rows[lookup[a], c]
            assert dac <= dab + dbc + 1e-12

    @pytest.mark.parametrize("subdivisions", [2, 3])
    def test_overestimate_of_great_circles(self, subdivisions):
        # the edge-graph bias that the module docstring states, over every
        # pair of distinct vertices of the unit icosphere
        mesh = wm.gen_base("icosphere", subdivisions)
        v = mesh.vertices
        great = np.arccos(np.clip(v @ v.T, -1.0, 1.0))
        rows = geodesic_rows(mesh, np.arange(mesh.n_vertices))
        pairs = ~np.eye(mesh.n_vertices, dtype=bool)
        bias = rows[pairs] / great[pairs] - 1.0
        assert 0.05 <= np.median(bias) <= 0.07
        assert bias.max() < 0.25

    def test_both_edge_directions_give_the_undirected_rows(self):
        # the graph stores each edge both ways and is searched as directed;
        # the reference stores each edge once and is searched undirected
        for mesh in (perturbed_sphere(seed=4, subdivisions=2),
                     grid_mesh(12, 9)):
            e = mesh.edges
            once = sparse.csr_matrix(
                (mesh.edge_lengths(), (e[:, 0], e[:, 1])),
                shape=(mesh.n_vertices,) * 2)
            sources = np.arange(0, mesh.n_vertices, 3)
            want = dijkstra(once, directed=False, indices=sources)
            assert np.array_equal(geodesic_rows(mesh, sources), want)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_blocks_stack_to_the_rows(self, monkeypatch, ico1, block):
        monkeypatch.setattr(corresp, "GEO_BLOCK", block)
        sources = np.arange(0, ico1.n_vertices, 2)
        blocks = list(geodesic_blocks(ico1, sources))
        assert len(blocks) == -(-sources.size // block)
        assert np.array_equal(np.vstack(blocks), geodesic_rows(ico1, sources))

    def test_blocks_build_the_edge_graph_once(self, monkeypatch, ico1):
        # one graph serves the connectivity check and every block
        monkeypatch.setattr(corresp, "GEO_BLOCK", 7)
        builds = []
        build = corresp._edge_graph

        def counted(mesh):
            builds.append(mesh)
            return build(mesh)

        monkeypatch.setattr(corresp, "_edge_graph", counted)
        blocks = list(geodesic_blocks(ico1, np.arange(ico1.n_vertices)))
        assert len(blocks) == -(-ico1.n_vertices // 7) > 1
        assert builds == [ico1]

    def test_disconnected_mesh(self):
        verts = [[0, 0, 0], [1, 0, 0], [0, 1, 0],
                 [10, 10, 10], [11, 10, 10], [10, 11, 10]]
        faces = [[0, 1, 2], [3, 4, 5]]
        mesh = TriMesh(verts, faces)
        # sources in one component, then in two
        for sources in ([0], [1, 2], [0, 4]):
            # the oracle: every vertex some full row cannot reach
            rows = geodesic_rows(mesh, sources)
            want = np.unique(np.nonzero(np.isinf(rows))[1])
            with pytest.raises(DisconnectedMesh) as info:
                geodesic_blocks(mesh, sources)
            assert np.array_equal(info.value.unreachable, want)
        assert want.tolist() == list(range(6))


class TestEvaluate:
    RADII = np.linspace(0.0, 0.25, 101)

    def test_exact_match_zero_error(self, ico1):
        gt = np.arange(ico1.n_vertices)
        result = evaluate(gt_distances(ico1, gt, gt), ico1, self.RADII)
        assert result.average_geodesic_error == 0.0
        assert (result.cge[:, 1] == 1.0).all()
        assert result.cge[0, 0] == 0.0 and result.cge[0, 1] == 1.0

    def test_hand_counted_fractions(self):
        # 3x2 strip of unit area: vertex 0 -> 1 is exactly 0.5 after
        # normalization; errors {0, 0, 0.5} against radii {0, 0.25, 1}
        mesh = grid_mesh(2, 1)
        assert abs(mesh.total_area - 1.0) < 1e-12
        corr = np.array([1, 1, 2])
        gt = np.array([0, 1, 2])
        result = evaluate(gt_distances(mesh, corr, gt), mesh, [0.0, 0.25, 1.0])
        assert np.allclose(result.geodesic_errors, [0.5, 0.0, 0.0])
        assert np.allclose(result.cge[:, 1], [2 / 3, 2 / 3, 1.0])
        assert abs(result.average_geodesic_error - 100 * 0.5 / 3) < 1e-12

    def test_scale_invariance(self, ico1):
        rng = np.random.default_rng(3)
        gt = np.arange(ico1.n_vertices)
        corr = rng.permutation(ico1.n_vertices)
        r1 = evaluate(gt_distances(ico1, corr, gt), ico1, self.RADII)
        scaled = TriMesh(ico1.vertices * 7.3, ico1.faces.copy())
        r2 = evaluate(gt_distances(scaled, corr, gt), scaled, self.RADII)
        assert np.abs(r1.geodesic_errors - r2.geodesic_errors).max() < 1e-9

    def test_fraction_at_zero_is_exact_match_rate(self, ico1):
        gt = np.arange(ico1.n_vertices)
        corr = gt.copy()
        corr[:7] = (corr[:7] + 1) % ico1.n_vertices
        result = evaluate(gt_distances(ico1, corr, gt), ico1, [0.0, 10.0])
        exact = (corr == gt).mean()
        assert result.cge[0, 1] == exact
        assert result.cge[1, 1] == 1.0

    def test_monotone_fractions(self, ico1):
        rng = np.random.default_rng(4)
        gt = np.arange(ico1.n_vertices)
        corr = rng.permutation(ico1.n_vertices)
        result = evaluate(gt_distances(ico1, corr, gt), ico1, self.RADII)
        assert (np.diff(result.cge[:, 1]) >= 0).all()


class TestCheckMap:
    @pytest.mark.parametrize("shape", [(29,), (31,), (30, 1)])
    def test_maps_of_two_shapes_are_rejected(self, shape):
        with pytest.raises(ValueError, match="map shapes disagree"):
            corresp.check_map(np.zeros(shape, int), np.arange(30), 42)

    def test_index_out_of_range(self, ico1):
        gt = np.arange(ico1.n_vertices)
        bad = gt.copy()
        bad[0] = ico1.n_vertices
        with pytest.raises(IndexError, match="corr contains"):
            corresp.check_map(bad, gt, ico1.n_vertices)
        with pytest.raises(IndexError, match="gt contains"):
            corresp.check_map(gt, bad, ico1.n_vertices)
