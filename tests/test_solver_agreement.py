"""The two paths of `spectrum.solve_eigs` agree on one pencil.

On the res-1 bar (N 36) the size rule sends K 33 to the Lanczos path and
K 35 (> N - 2) to the dense one, so the same ALBO is solved both ways.
"""

import numpy as np

import wavemesh as wm
from wavemesh.curvature import estimate_frames
from wavemesh.operators import assemble_albo
from wavemesh.spectrum import solve_eigs

K = 33


def test_lanczos_and_dense_agree_at_the_size_rule():
    mesh = wm.gen_base("bar", 1)
    assert mesh.n_vertices == 36
    stiff = assemble_albo(mesh, estimate_frames(mesh), 50.0, 0.0)
    lanczos, dense = (solve_eigs(stiff, mesh.mass, k) for k in (K, K + 2))
    assert lanczos.provenance["solver"] == "lanczos"
    assert dense.provenance["solver"] == "dense"
    assert np.abs(lanczos.eigenvalues - dense.eigenvalues[:K]).max() \
        < 1e-8 * lanczos.lambda_max

    # eigenspaces compare by their orthogonal projectors in the standard
    # form, y = sqrt(A) phi, one per cluster of eigenvalues closer than
    # 1e-6 lambda_K; K must not cut a cluster
    lam = dense.eigenvalues
    clusters = np.split(np.arange(lam.size),
                        np.flatnonzero(np.diff(lam) > 1e-6 * lam[K - 1]) + 1)
    assert K in [c[0] for c in clusters]
    for c in (c for c in clusters if c[-1] < K):
        ya, yb = (np.sqrt(s.mass)[:, None] * s.eigenvectors[:, c]
                  for s in (lanczos, dense))
        assert np.linalg.norm(ya @ ya.T - yb @ yb.T, 2) < 1e-6
