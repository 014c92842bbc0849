"""Mexican-hat spectral wavelet filter banks on mesh spectra.

Filters are kept factored through the truncated eigenbasis; the network
applies the whole bank at once with ``autodiff.wavelet_mix`` in O(NKD) per
direction, and the N x N wavelet matrices are materialized only by
``dense_filter_matrix``, the small-mesh test oracle. The localized wavelet
at vertex v is

    psi_{t,v}(u) = sum_k a(v) g(t lambda_k) phi_k(v) phi_k(u)

and the low-pass scaling companion replaces g(t lambda) with h(lambda).
With the tighten flag the responses are divided pointwise by
sqrt(h(l)^2 + sum_j g(t_j l)^2) at the sampled eigenvalues, which makes
the bank a Parseval frame on the computed span and analysis/synthesis an
exact round trip there.

Each wavelet column is divided by its L1 norm, sum_u a(u) |S(u, v)| with
S = Phi diag(r) Phi^T. ``build_filterbank`` computes these normalizers
exactly from the upper triangle of the symmetric S, one row panel of
L1_BLOCK rows at a time, in O(M J N^2 K / 2) multiply-adds for M
directions, J scales, N vertices and K eigenpairs. They agree with the
full column sums to about 1e-14 relative (round-off only).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NotTightFrame, SpectrumMismatch, ZeroColumnNorm

# rows per upper-triangle panel of S for the L1 normalizers: a panel holds
# L1_BLOCK x N floats at most, the whole pass costs O(M J N^2 K / 2) and
# matches the full column sums to about 1e-14 relative
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
    """Kernel pair plus scales; ``tighten`` is the default frame setting."""

    band_pass: callable
    low_pass: callable
    scales: np.ndarray
    tighten: bool = True

    @classmethod
    def mexican_hat(cls, lambda_max, n_scales, tighten=True,
                    cutoff_fraction=DEFAULT_CUTOFF_FRACTION):
        cutoff = cutoff_fraction * lambda_max
        return cls(band_pass=kernel_g,
                   low_pass=lambda x: kernel_h(x, cutoff),
                   scales=select_scales(lambda_max, n_scales),
                   tighten=tighten)

    @property
    def n_scales(self):
        return len(self.scales)


@dataclass(frozen=True)
class FilterBank:
    """Factored wavelet/scaling operators for M directions x J scales.

    responses[m, j] holds g(t_j lambda_{m,k}) over the K sampled
    eigenvalues (post-tighten when tighten is on), scaling_responses[m]
    the matching h values. l1_normalizers[m, j] are the column L1 norms
    of the dense filter matrix diag(a) Phi diag(resp) Phi^T, i.e. the L1
    norms of the localized, measure-weighted wavelets.
    """

    spectra: list
    kernel: KernelSpec
    responses: np.ndarray            # (M, J, K)
    scaling_responses: np.ndarray    # (M, K)
    l1_normalizers: np.ndarray       # (M, J, N)
    frame_bounds: np.ndarray         # (M, 2) = (B_low, B_high)
    tighten: bool

    @property
    def n_directions(self):
        return self.responses.shape[0]

    @property
    def n_scales(self):
        return self.responses.shape[1]

    @property
    def n_filters(self):
        return self.n_directions * self.n_scales

    @property
    def n_vertices(self):
        return self.spectra[0].n

    @property
    def mass(self):
        return self.spectra[0].mass


@dataclass(frozen=True)
class WaveletCoefficients:
    wavelet: np.ndarray       # (M, J, N)
    scaling: np.ndarray       # (M, N)
    projections: np.ndarray   # (M, K) mass-weighted eigenbasis coordinates


def build_filterbank(spectra, kernel, tighten=None):
    """Compute responses, frame bounds and L1 normalizers for a direction
    set sharing one mesh. Never materializes an N x N operator."""
    if not spectra:
        raise SpectrumMismatch("need at least one spectrum")
    n, k = spectra[0].n, spectra[0].k
    for s in spectra[1:]:
        if s.n != n or s.k != k:
            raise SpectrumMismatch(
                f"spectra disagree: ({s.n}, {s.k}) vs ({n}, {k})")
    if tighten is None:
        tighten = kernel.tighten

    m = len(spectra)
    j = kernel.n_scales
    responses = np.empty((m, j, k))
    scaling = np.empty((m, k))
    for mi, spec in enumerate(spectra):
        lam = spec.eigenvalues
        scaling[mi] = kernel.low_pass(lam)
        for ji, t in enumerate(kernel.scales):
            responses[mi, ji] = kernel.band_pass(t * lam)
        if tighten:
            frame = np.sqrt(scaling[mi] ** 2 + (responses[mi] ** 2).sum(axis=0))
            responses[mi] /= frame[None, :]
            scaling[mi] /= frame

    frame_fn = scaling**2 + (responses**2).sum(axis=1)      # (M, K)
    bounds = np.stack([frame_fn.min(axis=1), frame_fn.max(axis=1)], axis=1)

    # S = Phi diag(r) Phi^T is symmetric, so column v's norm
    # sum_u a(u) |S(u, v)| is gathered from the panels on and above the
    # diagonal: panel P = S[s:e, s:] adds its a-weighted row sums to the
    # columns s: and, right of its diagonal block, its a-weighted column
    # sums to the rows s:e
    normalizers = np.zeros((m, j, n))
    for mi, spec in enumerate(spectra):
        phi = spec.eigenvectors
        mass = spec.mass
        for ji in range(j):
            scaled = phi * responses[mi, ji]                 # (N, K)
            norm = normalizers[mi, ji]
            for s in range(0, n, L1_BLOCK):
                e = min(s + L1_BLOCK, n)
                panel = phi[s:e] @ scaled[s:].T              # (e - s, N - s)
                np.abs(panel, out=panel)
                norm[s:] += mass[s:e] @ panel
                norm[s:e] += panel[:, e - s:] @ mass[e:]
    # NaN compares False, so test for the good values: a kernel that
    # overflows (inf * 0) must not pass as a bank
    bad = ~(np.isfinite(normalizers) & (normalizers >= 1e-14))
    if bad.any():
        mi, ji, vi = np.argwhere(bad)[0]
        raise ZeroColumnNorm(
            f"wavelet column (direction {mi}, scale {ji}, vertex {vi}) has "
            f"L1 norm {normalizers[mi, ji, vi]:g}")

    return FilterBank(spectra=list(spectra), kernel=kernel,
                      responses=responses, scaling_responses=scaling,
                      l1_normalizers=normalizers, frame_bounds=bounds,
                      tighten=bool(tighten))


def _check_indices(bank, direction, scale):
    if not (0 <= direction < bank.n_directions):
        raise IndexError(f"direction {direction} out of range")
    if not (0 <= scale < bank.n_scales):
        raise IndexError(f"scale {scale} out of range")


def wavelet_at(bank, direction, scale, vertex):
    """Explicit localized wavelet at one vertex (visualization path)."""
    _check_indices(bank, direction, scale)
    spec = bank.spectra[direction]
    if not (0 <= vertex < spec.n):
        raise IndexError(f"vertex {vertex} out of range")
    phi = spec.eigenvectors
    resp = bank.responses[direction, scale]
    return spec.mass[vertex] * (phi @ (resp * phi[vertex]))


def analyze(bank, signal):
    """Wavelet/scaling coefficients of a per-vertex signal (area-weighted
    inner products with the localized wavelets)."""
    signal = np.asarray(signal, dtype=np.float64)
    if signal.shape != (bank.n_vertices,):
        raise ValueError(
            f"signal length {signal.shape} does not match {bank.n_vertices} vertices")
    m, j, _ = bank.responses.shape
    wavelet = np.empty((m, j, bank.n_vertices))
    scaling = np.empty((m, bank.n_vertices))
    projections = np.empty((m, bank.spectra[0].k))
    for mi, spec in enumerate(bank.spectra):
        sigma = spec.eigenvectors.T @ (spec.mass * signal)
        projections[mi] = sigma
        scaling[mi] = spec.mass * (spec.eigenvectors @ (bank.scaling_responses[mi] * sigma))
        for ji in range(j):
            wavelet[mi, ji] = spec.mass * (
                spec.eigenvectors @ (bank.responses[mi, ji] * sigma))
    return WaveletCoefficients(wavelet=wavelet, scaling=scaling,
                               projections=projections)


def synthesize(bank, coeffs, direction):
    """Reconstruct a signal from one direction's coefficients.

    Requires a tight bank; exact on the span of the computed eigenvectors.
    """
    if not bank.tighten:
        raise NotTightFrame("synthesis requires a tightened filter bank")
    _check_indices(bank, direction, 0)
    spec = bank.spectra[direction]
    phi = spec.eigenvectors
    acc = bank.scaling_responses[direction] * (phi.T @ coeffs.scaling[direction])
    for ji in range(bank.n_scales):
        acc += bank.responses[direction, ji] * (phi.T @ coeffs.wavelet[direction, ji])
    return phi @ acc


def dense_filter_matrix(bank, direction, scale, normalized=False):
    """Materialize the N x N filter matrix (tests and tiny meshes only).

    Column v is the localized wavelet at v weighted by the vertex measure:
    diag(a) Phi diag(resp) Phi^T, optionally with unit column L1 norms.
    """
    _check_indices(bank, direction, scale)
    spec = bank.spectra[direction]
    phi = spec.eigenvectors
    psi = spec.mass[:, None] * (phi @ np.diag(bank.responses[direction, scale]) @ phi.T)
    if normalized:
        psi = psi / bank.l1_normalizers[direction, scale][None, :]
    return psi
