"""Refinement consistency: the pipeline's features converge as the mesh is
refined, which is what "discretization-independent features" claims.

`bar(2r)` and `cylinder(2r)` hold every vertex of `bar(r)` and
`cylinder(r)` at the same coordinates (`test_synth.TestNesting`), so a
per-vertex quantity of the two shapes compares at the shared vertices with
no interpolation and no golden number.
"""

import numpy as np
import pytest

import wavemesh as wm
from wavemesh import network
from wavemesh.curvature import estimate_frames
from wavemesh.operators import assemble_albo
from wavemesh.spectrum import solve_eigs
from wavemesh.wavelets import KernelSpec, build_filterbank

K = 40
SCALES = 4


def _spectrum(mesh):
    # alpha = 0: the isotropic operator, whose frames do not matter
    return solve_eigs(assemble_albo(mesh, estimate_frames(mesh), 0.0, 0.0), K)


def _shared(coarse, fine):
    """The index in `fine` of each vertex of `coarse`."""
    index = {tuple(v): i for i, v in enumerate(fine.vertices.tolist())}
    return np.array([index[tuple(v)] for v in coarse.vertices.tolist()])


@pytest.mark.parametrize("kind", ["bar", "cylinder"])
def test_untrained_descriptors_converge_under_refinement(kind):
    # one random model and one direction at alpha = 0; each pair's kernel
    # scales are pinned to its coarse mesh, as training pins them to the
    # template. The error at the shared vertices must fall from r 2->4 to
    # r 4->8 (bar 0.030 -> 0.0086, cylinder 0.107 -> 0.025 when set).
    # A stage that brings in a resolution dependence (a mass left out of a
    # projection, a normalizer summed without its area, a kernel scale
    # taken from the wrong mesh) stops that fall.
    model = network.Model.initialize(network.ModelConfig(
        n_classes=1, encoder_dims=(16, 32), conv_layers=2, directions=1,
        scales=SCALES, seed=0))
    meshes = {r: wm.gen_base(kind, r) for r in (2, 4, 8)}
    spectra = {r: _spectrum(mesh) for r, mesh in meshes.items()}
    errors = []
    for r in (2, 4):
        kernel = KernelSpec.mexican_hat(spectra[r].lambda_max, SCALES)
        coarse, fine = (
            network.descriptors(model, meshes[s].vertices, lambda: (
                build_filterbank([spectra[s]], kernel)))
            for s in (r, 2 * r))
        fine = fine[_shared(meshes[r], meshes[2 * r])]
        errors.append(np.linalg.norm(coarse - fine) / np.linalg.norm(coarse))
    assert errors[1] < 0.5 * errors[0]
    assert errors[1] < 0.04
