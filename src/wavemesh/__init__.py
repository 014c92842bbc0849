"""Spectral-geometry toolkit: anisotropic wavelet filter banks on triangle
meshes, a trainable multi-scale convolution pipeline, and a dense
shape-correspondence benchmark harness."""

from .corresp import CorrespondenceResult, evaluate, match_nn
from .curvature import PrincipalFrames, estimate_frames
from .mesh import TriMesh, load_mesh, vertex_mass, write_off
from .network import Model, ModelConfig, TrainItem, train
from .operators import (
    anisotropy_tensor,
    assemble_albo,
    assemble_lbo,
    direction_angles,
)
from .spectrum import Spectrum, solve_eigs
from .synth import DatasetConfig, deform, gen_base, make_dataset, remesh
from .wavelets import (
    FilterBank,
    KernelSpec,
    build_filterbank,
    kernel_g,
    kernel_h,
    select_scales,
)

__version__ = "0.1.0"
