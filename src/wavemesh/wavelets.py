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

A bank keeps no spectrum: its (M, N, K) basis is the eigenvectors as the
L1 pass read them, in the pass's precision, and its mass is the spectra's
own array. ``build_filterbank`` reads its spectra one direction at a time,
so a caller whose sequence reads each as it is indexed
(``cli.MeshSpectra``) holds one float64 spectrum during a build.

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
    """Factored wavelet operators for M directions x J scales: what the
    network reads. The FBK1 cache stores every array but the mass.

    basis[m] holds direction m's K eigenvectors as the L1 pass that built
    the bank cast them (``build_filterbank``'s `dtype`); mass is the
    lumped mass the directions share, in float64: the spectra's own array
    (in ``cli``, the mesh's ``TriMesh.mass``). responses[m, j] holds
    g(t_j lambda_{m,k}) over the K sampled eigenvalues. l1_normalizers[m, j]
    are the column L1 norms of the dense filter matrix
    diag(a) Phi diag(resp) Phi^T, i.e. the L1 norms of the localized,
    measure-weighted wavelets.
    """

    kernel: KernelSpec
    basis: np.ndarray                # (M, N, K)
    mass: np.ndarray                 # (N,)
    responses: np.ndarray            # (M, J, K)
    l1_normalizers: np.ndarray       # (M, J, N)
    frame_bounds: np.ndarray         # (M, 2) = (B_low, B_high)

    @property
    def n_directions(self):
        return self.responses.shape[0]

    @property
    def n_scales(self):
        return self.responses.shape[1]

    @property
    def n_vertices(self):
        return self.basis.shape[1]


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
    """The bank of `spectra`, the M direction spectra of one mesh in a
    sequence (a list, or a ``cli.MeshSpectra``), each indexed once, in
    direction order. They must agree in N and K and carry equal lumped
    masses, which ``autodiff.wavelet_mix`` applies once for all
    directions; a mismatch raises SpectrumMismatch when its direction is
    read; the bank keeps the first one's array. Never materializes an
    N x N operator.

    `dtype` is the precision of the L1 pass (float64 or float32): the
    basis, mass, panels and sums of the normalizers. Each direction's
    eigenvectors are cast into the bank's `basis`, which the pass then
    reads, and the spectrum is dropped before the next is read. The
    responses, frame bounds and normalizers are float64 either way, and
    the check for a zero column norm reads the float64 normalizers."""
    m, j = len(spectra), kernel.n_scales
    if not m:
        raise SpectrumMismatch("need at least one spectrum")
    bank = None
    for mi in range(m):
        spec = spectra[mi]
        if bank is None:
            n, k = spec.n, spec.k
            bank = FilterBank(
                kernel=kernel, basis=np.empty((m, n, k), dtype),
                mass=spec.mass, responses=np.empty((m, j, k)),
                l1_normalizers=np.zeros((m, j, n)),
                frame_bounds=np.empty((m, 2)))
            mass = bank.mass.astype(dtype, copy=False)
            # every panel and every scaled basis is written into a
            # contiguous prefix of one buffer each, so the pass holds one
            # of each at a time
            buffers = (np.empty(min(L1_BLOCK, n) * n, dtype),
                       np.empty(n * k, dtype))
        elif (spec.n, spec.k) != (n, k):
            raise SpectrumMismatch(
                f"spectra disagree: ({spec.n}, {spec.k}) vs ({n}, {k})")
        elif not np.array_equal(spec.mass, bank.mass):
            raise SpectrumMismatch("spectra carry different lumped masses")
        _add_direction(bank, mi, spec, mass, buffers)
        del spec  # else it is held through the next direction's read
    return bank


def _add_direction(bank, mi, spec, mass, buffers):
    """Fill direction mi of `bank` from its spectrum: responses, frame
    bounds, the cast basis and the L1 normalizers, summed in the basis's
    dtype over the upper triangle of S; raise ZeroColumnNorm if one is
    not positive."""
    lam = spec.eigenvalues
    responses = bank.responses[mi]
    for ji, t in enumerate(bank.kernel.scales):
        responses[ji] = kernel_g(t * lam)
    frame_fn = kernel_h(lam, bank.kernel.cutoff)**2 + (responses**2).sum(axis=0)
    bank.frame_bounds[mi] = frame_fn.min(), frame_fn.max()
    responses[:, spec.n_whole:] = 0.0  # the cut eigenspace's copies
    basis = bank.basis[mi]
    basis[...] = spec.eigenvectors

    # S = Phi diag(r) Phi^T is symmetric, so column v's norm
    # sum_u a(u) |S(u, v)| is gathered from the panels on and above the
    # diagonal: panel P = S[s:e, s:] adds its a-weighted row sums to the
    # columns s: and, right of its diagonal block, its a-weighted column
    # sums to the rows s:e. Each filter sums only over its passband; one
    # with an empty passband keeps zero norms and fails the check below.
    # Every multiply-add runs in the basis's dtype: in float32 each
    # filter's normalizers are summed in a float32 vector that is then
    # stored float64; in float64 they are summed straight into the bank
    n = basis.shape[0]
    dtype = basis.dtype
    panel_buf, scaled_buf = buffers
    normalizers = bank.l1_normalizers[mi]
    for ji, kb in enumerate(passbands(responses)):
        resp = responses[ji, :kb].astype(dtype, copy=False)
        scaled = np.multiply(basis[:, :kb], resp,
                             out=scaled_buf[:n * kb].reshape(n, kb))
        norm = normalizers[ji].astype(dtype, copy=False)
        for s in range(0, n, L1_BLOCK):
            e = min(s + L1_BLOCK, n)
            panel = np.matmul(                               # (e - s, N - s)
                basis[s:e, :kb], scaled[s:].T,
                out=panel_buf[:(e - s) * (n - s)].reshape(e - s, n - s))
            np.abs(panel, out=panel)
            norm[s:] += mass[s:e] @ panel
            norm[s:e] += panel[:, e - s:] @ mass[e:]
        normalizers[ji] = norm
    # NaN compares False, so test for the good values: a kernel that
    # overflows (inf * 0) must not pass as a bank
    bad = ~(np.isfinite(normalizers) & (normalizers >= 1e-14))
    if bad.any():
        ji, vi = np.argwhere(bad)[0]
        k = spec.k
        cause = "" if spec.n_whole == k else (
            f"; K {k} cuts a repeated eigenvalue of direction {mi}, whose "
            f"bank keeps only the n_whole {spec.n_whole} eigenpairs below "
            f"it; a K of at least {spec.provenance['n_below_mu_plus']} "
            f"(n_below_mu_plus) keeps the cut eigenspace")
        raise ZeroColumnNorm(
            f"wavelet column (direction {mi}, scale {ji}, vertex {vi}) has "
            f"L1 norm {normalizers[ji, vi]:g}{cause}")


def check_indices(shape, *indices):
    """Check (direction, scale[, vertex]) against a bank's (M, J, N)."""
    for name, i, size in zip(("direction", "scale", "vertex"), indices, shape):
        if not 0 <= i < size:
            raise IndexError(f"{name} {i} out of range [0, {size})")


def localized_wavelet(eigenvectors, mass, responses, vertex):
    """a(v) Phi (r * Phi[v]), the wavelet of one filter with responses r
    at `vertex`, for the eigenvectors Phi and lumped mass a of one
    direction (visualization path)."""
    return mass[vertex] * (eigenvectors @ (responses * eigenvectors[vertex]))


def dense_filter_matrix(bank, direction, scale, normalized=False):
    """Materialize the N x N filter matrix (tests and tiny meshes only).

    Column v is the localized wavelet at v weighted by the vertex measure:
    diag(a) Phi diag(resp) Phi^T, optionally with unit column L1 norms.
    """
    check_indices(bank.l1_normalizers.shape, direction, scale)
    phi = bank.basis[direction]
    psi = bank.mass[:, None] * (phi @ np.diag(bank.responses[direction, scale]) @ phi.T)
    if normalized:
        psi = psi / bank.l1_normalizers[direction, scale][None, :]
    return psi
