"""Mexican-hat spectral wavelet filter banks on mesh spectra.

Filters are kept factored through the truncated eigenbasis; the network
applies the whole bank at once with ``autodiff.wavelet_mix`` in O(NKD) per
direction, and the N x N wavelet matrices are materialized only by
``dense_filter_matrix``, the small-mesh test oracle. The localized wavelet
at vertex v is

    psi_{t,v}(u) = sum_k a(v) g(t lambda_k) phi_k(v) phi_k(u)

The low-pass companion h(lambda) enters only the frame bounds, the min and
max over the sampled eigenvalues of h(l)^2 + sum_j g(t_j l)^2.

Each scale is applied only over its passband. ``passbands`` gives, per
direction m and scale j, the length K_mj of the prefix of eigenpairs that
ends at the last one whose response g(t_j lambda_mk) is above
eps * max_k g(t_j lambda_mk) (float64 eps): every term dropped past it is
below round-off next to the filter's largest term. Coarse scales pass only
the low end of the basis, so K_mj is often well below K. The passbands are
derived from the stored responses and are not stored themselves.

Each wavelet column is divided by its L1 norm, sum_u a(u) |S(u, v)| with
S = Phi diag(r) Phi^T. ``build_filterbank`` computes these normalizers
from the upper triangle of the symmetric S, one row panel of L1_BLOCK rows
at a time, over each filter's passband, in O(M N^2 sum_j K_mj / 2)
multiply-adds for M directions, J scales, N vertices and K_mj <= K
eigenpairs, in float64 unless told otherwise: the tests' exact reference,
within about 1e-14 of the full-K column sums. ``cli.build_bank`` runs it
in float32 for every bank, at most 4.5e-7 relative off at bar res 10 and
K 200, within a bound of about 2e-6 that the tests derive from float32's
unit roundoff. The normalizers are stored float64 either way.

When a spectrum's inertia counts show that K cuts a repeated eigenvalue
(``Spectrum.n_whole``), its returned copies get a response of 0 in every
scale, so the bank does not depend on the solver's basis of that
eigenspace; the frame bounds still sample them.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SpectrumMismatch, ZeroColumnNorm

# rows per upper-triangle panel of S for the L1 normalizers: a panel holds
# L1_BLOCK x N floats at most, the whole pass over the passbands costs
# O(M N^2 sum_j K_mj / 2) and matches the full-K column sums to about
# 1e-14 relative in float64 and 2e-6 in float32
L1_BLOCK = 256
DEFAULT_SCALE_SPREAD = 40.0  # band-pass peaks cover [lambda_max/40, lambda_max]
DEFAULT_CUTOFF_FRACTION = 0.4


def kernel_g(x):
    """Band-pass Mexican-hat profile e * x^2 * exp(-x^2); g(0)=0, g(1)=1."""
    x = np.asarray(x, dtype=np.float64)
    if (x < 0).any():
        raise ValueError("kernel_g requires x >= 0")
    return np.e * x**2 * np.exp(-(x**2))


def kernel_h(x, cutoff):
    """Low-pass kernel exp(-(x/cutoff)^4); h(0)=1, h(cutoff)=1/e."""
    x = np.asarray(x, dtype=np.float64)
    if (x < 0).any():
        raise ValueError("kernel_h requires x >= 0")
    if cutoff <= 0:
        raise ValueError(f"cutoff must be positive, got {cutoff}")
    return np.exp(-((x / cutoff) ** 4))


def select_scales(lambda_max, n_scales):
    """Log-spaced scales whose band-pass peaks (at 1/t) sweep down from
    lambda_max to lambda_max/DEFAULT_SCALE_SPREAD."""
    if lambda_max <= 0:
        raise ValueError(f"lambda_max must be positive, got {lambda_max}")
    if n_scales < 1:
        raise ValueError(f"need at least one scale, got {n_scales}")
    if n_scales == 1:
        return np.array([2.0 / lambda_max])
    exponents = np.arange(n_scales) / (n_scales - 1)
    return (1.0 / lambda_max) * DEFAULT_SCALE_SPREAD**exponents


@dataclass(frozen=True)
class KernelSpec:
    """Scales t_j of the band-pass kernel_g and cutoff of the low-pass
    kernel_h."""

    scales: np.ndarray
    cutoff: float

    @classmethod
    def mexican_hat(cls, lambda_max, n_scales):
        return cls(scales=select_scales(lambda_max, n_scales),
                   cutoff=DEFAULT_CUTOFF_FRACTION * lambda_max)

    @property
    def n_scales(self):
        return len(self.scales)


@dataclass(frozen=True)
class FilterBank:
    """Factored wavelet operators for M directions x J scales.

    responses[m, j] holds g(t_j lambda_{m,k}) over the K sampled
    eigenvalues. l1_normalizers[m, j] are the column L1 norms of the dense
    filter matrix diag(a) Phi diag(resp) Phi^T, i.e. the L1 norms of the
    localized, measure-weighted wavelets.
    """

    spectra: list
    kernel: KernelSpec
    responses: np.ndarray            # (M, J, K)
    l1_normalizers: np.ndarray       # (M, J, N)
    frame_bounds: np.ndarray         # (M, 2) = (B_low, B_high)

    def __post_init__(self):
        # autodiff.wavelet_mix applies spectra[0].mass to every direction;
        # checked here so a bank read back from a cache is checked too
        if any(not np.array_equal(s.mass, self.spectra[0].mass)
               for s in self.spectra[1:]):
            raise SpectrumMismatch("spectra carry different lumped masses")

    @property
    def n_directions(self):
        return self.responses.shape[0]

    @property
    def n_scales(self):
        return self.responses.shape[1]

    @property
    def n_vertices(self):
        return self.spectra[0].n


def passbands(responses):
    """(M, J) int array of passband lengths for (M, J, K) responses.

    K_mj is 1 plus the index of the last eigenpair whose response is above
    eps * max_k responses[m, j, k] (float64 eps), so the kept set is the
    prefix [0, K_mj); zeros before that index, such as g(0) at a null
    eigenvalue, stay inside it. A filter with no response above the
    threshold, including one whose responses are NaN or inf, gets 0.
    """
    responses = np.asarray(responses, dtype=np.float64)
    tol = np.finfo(np.float64).eps * responses.max(axis=-1, keepdims=True)
    above = responses > tol
    last = responses.shape[-1] - np.argmax(above[..., ::-1], axis=-1)
    return np.where(above.any(axis=-1), last, 0)


def build_filterbank(spectra, kernel, dtype=np.float64):
    """Compute responses, frame bounds and L1 normalizers for a direction
    set sharing one mesh: the spectra must agree in N and K and carry
    equal lumped masses (``FilterBank`` checks them), which
    ``autodiff.wavelet_mix`` applies once for all directions. Never
    materializes an N x N operator.

    `dtype` is the precision of the L1 pass (float64 or float32): the
    basis, mass, panels and sums of the normalizers. The responses, frame
    bounds and normalizers are float64 either way, and the check for a
    zero column norm reads the float64 normalizers."""
    if not spectra:
        raise SpectrumMismatch("need at least one spectrum")
    n, k = spectra[0].n, spectra[0].k
    for s in spectra[1:]:
        if s.n != n or s.k != k:
            raise SpectrumMismatch(
                f"spectra disagree: ({s.n}, {s.k}) vs ({n}, {k})")

    m = len(spectra)
    j = kernel.n_scales
    responses = np.empty((m, j, k))
    scaling = np.empty((m, k))
    for mi, spec in enumerate(spectra):
        lam = spec.eigenvalues
        scaling[mi] = kernel_h(lam, kernel.cutoff)
        for ji, t in enumerate(kernel.scales):
            responses[mi, ji] = kernel_g(t * lam)

    frame_fn = scaling**2 + (responses**2).sum(axis=1)      # (M, K)
    bounds = np.stack([frame_fn.min(axis=1), frame_fn.max(axis=1)], axis=1)
    for mi, spec in enumerate(spectra):
        responses[mi, :, spec.n_whole:] = 0.0  # the cut eigenspace's copies

    # S = Phi diag(r) Phi^T is symmetric, so column v's norm
    # sum_u a(u) |S(u, v)| is gathered from the panels on and above the
    # diagonal: panel P = S[s:e, s:] adds its a-weighted row sums to the
    # columns s: and, right of its diagonal block, its a-weighted column
    # sums to the rows s:e. Each filter sums only over its passband; one
    # with an empty passband keeps zero norms and fails the check below.
    # Every panel and every scaled basis is written into a contiguous
    # prefix of one buffer each, so the pass holds one of each at a time.
    # Every multiply-add runs in `dtype`: in float32 the pass holds one
    # direction's cast basis and mass at a time, and sums each filter's
    # normalizers in a float32 vector that is then stored float64; in
    # float64 it copies nothing and sums straight into the stored array
    bands = passbands(responses)
    normalizers = np.zeros((m, j, n))
    panel_buf = np.empty(min(L1_BLOCK, n) * n, dtype)
    scaled_buf = np.empty(n * k, dtype)
    for mi, spec in enumerate(spectra):
        mass = spec.mass.astype(dtype, copy=False)
        basis = spec.eigenvectors.astype(dtype, copy=False)
        for ji in range(j):
            kb = bands[mi, ji]
            resp = responses[mi, ji, :kb].astype(dtype, copy=False)
            scaled = np.multiply(basis[:, :kb], resp,
                                 out=scaled_buf[:n * kb].reshape(n, kb))
            norm = normalizers[mi, ji].astype(dtype, copy=False)
            for s in range(0, n, L1_BLOCK):
                e = min(s + L1_BLOCK, n)
                panel = np.matmul(                           # (e - s, N - s)
                    basis[s:e, :kb], scaled[s:].T,
                    out=panel_buf[:(e - s) * (n - s)].reshape(e - s, n - s))
                np.abs(panel, out=panel)
                norm[s:] += mass[s:e] @ panel
                norm[s:e] += panel[:, e - s:] @ mass[e:]
            normalizers[mi, ji] = norm
        del mass, basis  # before the next direction's are cast
    # NaN compares False, so test for the good values: a kernel that
    # overflows (inf * 0) must not pass as a bank
    bad = ~(np.isfinite(normalizers) & (normalizers >= 1e-14))
    if bad.any():
        mi, ji, vi = np.argwhere(bad)[0]
        spec = spectra[mi]
        cause = "" if spec.n_whole == k else (
            f"; K {k} cuts a repeated eigenvalue of direction {mi}, whose "
            f"bank keeps only the n_whole {spec.n_whole} eigenpairs below "
            f"it; a K of at least {spec.provenance['n_below_mu_plus']} "
            f"(n_below_mu_plus) keeps the cut eigenspace")
        raise ZeroColumnNorm(
            f"wavelet column (direction {mi}, scale {ji}, vertex {vi}) has "
            f"L1 norm {normalizers[mi, ji, vi]:g}{cause}")

    return FilterBank(spectra=list(spectra), kernel=kernel,
                      responses=responses, l1_normalizers=normalizers,
                      frame_bounds=bounds)


def check_indices(shape, *indices):
    """Check (direction, scale[, vertex]) against a bank's (M, J, N)."""
    for name, i, size in zip(("direction", "scale", "vertex"), indices, shape):
        if not 0 <= i < size:
            raise IndexError(f"{name} {i} out of range [0, {size})")


def wavelet_at(bank, direction, scale, vertex):
    """Explicit localized wavelet at one vertex (visualization path)."""
    check_indices(bank.l1_normalizers.shape, direction, scale, vertex)
    spec = bank.spectra[direction]
    phi = spec.eigenvectors
    resp = bank.responses[direction, scale]
    return spec.mass[vertex] * (phi @ (resp * phi[vertex]))


def dense_filter_matrix(bank, direction, scale, normalized=False):
    """Materialize the N x N filter matrix (tests and tiny meshes only).

    Column v is the localized wavelet at v weighted by the vertex measure:
    diag(a) Phi diag(resp) Phi^T, optionally with unit column L1 norms.
    """
    check_indices(bank.l1_normalizers.shape, direction, scale)
    spec = bank.spectra[direction]
    phi = spec.eigenvectors
    psi = spec.mass[:, None] * (phi @ np.diag(bank.responses[direction, scale]) @ phi.T)
    if normalized:
        psi = psi / bank.l1_normalizers[direction, scale][None, :]
    return psi
