"""Smallest-K eigenpairs of the generalized problem W phi = lambda A phi.

The mass A is lumped (diagonal), so the pencil is solved in the symmetric
standard form of Manifold Harmonics (Vallet & Levy 2008): with
d = 1/sqrt(A), C = diag(d) W diag(d) has the same eigenvalues, and its
Euclidean-orthonormal eigenvectors y map to phi = d * y, whose mass Gram
matrix phi^T A phi = y^T y is the identity at round-off. ARPACK therefore
runs without a mass inner product: each Lanczos step is one sparse LU
solve and no B-product.

The sparse path is shift-invert Lanczos (ARPACK) at a tiny negative shift
with a fixed start vector, so repeated solves are bit-identical.
C - sigma I is factored once by SuperLU under the MMD_AT_PLUS_A ordering,
a minimum-degree ordering of the symmetric pattern; on the res-10 bar its
LU holds about a third fewer nonzeros than under the default COLAMD
ordering. The Lanczos basis holds ncv = max(1.5 k + 1, 20) vectors (at
most n) instead of ARPACK's 2k + 1, which cuts ARPACK's dense work per
restart. Small or near-full requests fall back to a dense generalized
solve. Every returned Spectrum is verified: eigenvalues ascending and
non-negative, eigenvectors mass-orthonormal, relative residuals below
RESIDUAL_TOL, signs canonicalized (largest-magnitude component positive).
Its provenance records the solver, ncv (sparse path), the largest relative
residual and the orthonormality error.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import (
    ArpackError,
    ArpackNoConvergence,
    LinearOperator,
    eigsh,
    splu,
)

from .errors import FactorizationFailed, KTooLarge, NotConverged

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-8
# below this size (or when K is nearly full) a dense solve is cheaper and
# avoids ARPACK's k < n restriction
DENSE_CUTOFF = 32


@dataclass(frozen=True)
class Spectrum:
    """First K generalized eigenpairs of one operator.

    eigenvalues : (k,) ascending, >= 0
    eigenvectors : (n, k), columns mass-orthonormal, sign-canonicalized
    mass : (n,) lumped mass vector of the pencil
    provenance : how it was solved ("solver", "ncv" on the sparse path,
        "max_residual", "ortho_error"); the CLI's cached spectra carry
        their cache key under "key" instead
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    mass: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for arr in (self.eigenvalues, self.eigenvectors, self.mass):
            arr.setflags(write=False)

    @property
    def n(self):
        return self.eigenvectors.shape[0]

    @property
    def k(self):
        return len(self.eigenvalues)

    @property
    def lambda_max(self):
        return float(self.eigenvalues[-1])


def canonicalize_signs(vectors):
    """Flip each column so its largest-magnitude component is positive."""
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs[None, :]


def _verify(stiffness, mass, vals, vecs):
    mvecs = mass[:, None] * vecs
    gram = vecs.T @ mvecs
    ortho_err = np.abs(gram - np.eye(gram.shape[0])).max()
    resid = stiffness @ vecs - mvecs * vals[None, :]
    denom = np.maximum(vals, 1.0) * np.linalg.norm(vecs, axis=0)
    rel = np.linalg.norm(resid, axis=0) / denom
    return float(ortho_err), rel


def solve_eigs(ops, k):
    """Smallest-k eigenpairs of ops.stiffness x = lambda diag(ops.mass) x."""
    n = ops.n
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if k > n:
        raise KTooLarge(f"k={k} exceeds vertex count {n}")

    stiffness = ops.stiffness.tocsc()
    mass = np.asarray(ops.mass, dtype=np.float64)

    if n <= DENSE_CUTOFF or k > n - 2:
        vals, vecs, provenance = _dense_path(stiffness, mass, k)
    else:
        vals, vecs, provenance = _arpack_path(stiffness, mass, k)

    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]

    # clamp the tiny negative eigenvalues a PSD pencil can produce in
    # floating point; anything materially negative is a solver failure
    scale = max(abs(vals[-1]), 1.0)
    if vals[0] < -1e-8 * scale:
        raise NotConverged(f"negative eigenvalue {vals[0]:g} from a PSD pencil")
    vals = np.maximum(vals, 0.0)

    vecs = canonicalize_signs(np.ascontiguousarray(vecs))
    ortho_err, rel = _verify(stiffness, mass, vals, vecs)
    if ortho_err > ORTHO_TOL or rel.max() > RESIDUAL_TOL:
        raise NotConverged(
            f"verification failed: orthonormality {ortho_err:g}, "
            f"max residual {rel.max():g}", residuals=rel)

    provenance.update(max_residual=float(rel.max()), ortho_error=ortho_err)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, mass=mass.copy(),
                    provenance=provenance)


def _dense_path(stiffness, mass, k):
    w = stiffness.toarray()
    w = 0.5 * (w + w.T)
    try:
        vals, vecs = eigh(w, np.diag(mass))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - SPD mass
        raise FactorizationFailed(str(exc)) from exc
    return vals[:k], vecs[:, :k], {"solver": "dense"}


def _arpack_path(stiffness, mass, k):
    n = stiffness.shape[0]
    sigma = -1e-6 * (stiffness.diagonal().mean() / mass.mean())
    d = 1.0 / np.sqrt(mass)
    scaling = sparse.diags(d)
    standard = (scaling @ stiffness @ scaling).tocsc()
    ncv = min(n, max(k + k // 2 + 1, 20))
    # fixed start vector makes repeated solves bit-identical
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        lu = splu((standard - sigma * sparse.identity(n)).tocsc(),
                  permc_spec="MMD_AT_PLUS_A")
        vals, y = eigsh(standard, k=k, sigma=sigma, which="LM", v0=v0,
                        ncv=ncv, maxiter=20 * k,
                        OPinv=LinearOperator((n, n), matvec=lu.solve,
                                             dtype=np.float64))
    except ArpackNoConvergence as exc:
        raise NotConverged(
            f"ARPACK stopped after {20 * k} iterations with "
            f"{len(exc.eigenvalues)} of {k} pairs converged") from exc
    except (ArpackError, RuntimeError) as exc:
        raise FactorizationFailed(str(exc)) from exc
    return vals, d[:, None] * y, {"solver": "arpack", "ncv": ncv}


def clamp_k(k, n):
    """Clamp a requested eigenpair count to n-1 for tiny meshes."""
    if k > n - 1:
        clamped = max(n - 1, 1)
        logger.warning("requested %d eigenpairs on a %d-vertex mesh; using %d",
                       k, n, clamped)
        return clamped
    return k
