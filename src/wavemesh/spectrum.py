"""Smallest-K eigenpairs of the generalized problem W phi = lambda A phi.

The mass A is lumped (diagonal), so the pencil is solved in the symmetric
standard form of Manifold Harmonics (Vallet & Levy 2008): with
d = 1/sqrt(A), C = diag(d) W diag(d) has the same eigenvalues, and its
Euclidean-orthonormal eigenvectors y map to phi = d * y, whose mass Gram
matrix phi^T A phi = y^T y is the identity at round-off. Both paths solve
C, formed once, and map y to phi in one place, so Lanczos runs without a
mass inner product: each step is one sparse LU solve and no B-product.

The sparse path is shift-invert Lanczos on OP = (C - sigma I)^-1 at a tiny
negative shift sigma, whose largest eigenvalues theta = 1/(lambda - sigma)
are C's smallest. C - sigma I is factored once by SuperLU under the
MMD_AT_PLUS_A ordering, a minimum-degree ordering of the symmetric
pattern; on the res-10 bar its LU holds about a third fewer nonzeros than
under the default COLAMD ordering. The start vector is fixed, so repeated
solves are bit-identical.

The Lanczos is thick-restarted (Wu & Simon 2000, SIAM J. Matrix Anal.
Appl. 22(2)) in a basis of ncv = max(1.5 k + 1, 20) vectors (at most n):
- Step j applies OP to v_j (one pair of SuperLU triangular solves),
  subtracts the local recurrence (alpha_j v_j and beta_{j-1} v_{j-1};
  right after a restart, the arrowhead coupling to every kept Ritz
  vector), then makes one full reorthogonalization pass over the rows of
  a contiguous (ncv + 1) x n basis: two GEMVs, O(j n). A second pass runs
  only when the first cancels (DGKS: the norm falls below 0.717 of its
  value before the pass). A beta below eps ||T|| is an invariant
  subspace: the basis goes on from a random vector orthogonal to it, or
  ends when it holds n vectors.
- A restart keeps l = k + min(nconv, (ncv - k) // 2) Ritz vectors: one
  eigendecomposition of the ncv x ncv projection T, O(ncv^3), and one
  GEMM, Y_l^T V, O(l ncv n). The final Ritz vectors are one more GEMM.
- A Ritz value has converged when |beta y_last| <= eps |theta|, ARPACK's
  default rule, and the run ends when all k have.
Keeping the l leading Ritz vectors and their arrowhead is the same
Krylov subspace that ARPACK's implicit restart with exact shifts keeps,
and l is ARPACK's nev adjustment, so the two need about the same number
of operator applications: 505 in each of the res-10 bar's four
directions at K = 200, where ARPACK took 506, 506, 455 and 506. What
differs is the dense work around them: ARPACK reorthogonalizes twice per
step, restarts through Givens-rotation QR sweeps and forms its Ritz
vectors by an unblocked Householder product. All of the dense work here
runs in numpy's BLAS (see `_lanczos`).

Small or near-full requests (N <= DENSE_CUTOFF or K > N - 2) take numpy's
dense `eigh` of C: shift-invert at a tiny sigma resolves the top of a full
spectrum, OP's smallest theta, too coarsely to meet RESIDUAL_TOL. Both
paths return eigenvalues in ascending order (LAPACK's, and theta
descending). Every returned Spectrum is verified: eigenvalues
non-negative, eigenvectors mass-orthonormal, relative residuals below
RESIDUAL_TOL, signs canonicalized (largest-magnitude component
positive). A residual cannot see a skipped eigenvalue (a Krylov sequence
can miss a copy of a multiple one), so a sparse-path spectrum is also
checked for completeness by an inertia count: by Sylvester's law of
inertia the negative pivots of an LDL^T factor of C - mu I count C's
eigenvalues below mu. SuperLU gives that factor under a symmetric
ordering with diagonal pivoting (diag_pivot_thresh=0, SymmetricMode), so
perm_r equals perm_c and the negative entries of U's diagonal are the
count. At mu-/+ = lambda_K (1 -/+ 1e-6) the count below mu- must equal
the number of returned values below it, and the count below mu+ must
reach K; otherwise the solve raises NotConverged. The two factors cost
15-25 ms per solve on the res-10 bar. The dense path has every eigenvalue,
so it counts them below the same mu-/+ directly.

Each solve holds only what its next step reads. The Lanczos holds the
(ncv + 1) x n basis and, at its end, the k Ritz vectors as the rows of a
k x n array; SuperLU's factor is freed when it returns. The rows are then
scaled by d in place and copied once into the C-ordered (n, k) array that
the residual's sparse product reads without a copy; the signs are flipped
in place, and the check forms A phi Lambda in the mass-weighted copy it
took the Gram matrix from and the residual in the stiffness product. So at
most three n x k float64 arrays are alive after the Lanczos.

Provenance records the solver ("dense" or "lanczos"), the largest
relative residual, the orthonormality error and the two counts,
n_below_mu_minus and n_below_mu_plus, which show whether K cuts a
multiplet (`Spectrum.n_whole`); on the sparse path also ncv, the restarts
and the operator applications.
"""

import logging
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .errors import FactorizationFailed, KTooLarge, NotConverged

logger = logging.getLogger(__name__)

RESIDUAL_TOL = 1e-8
ORTHO_TOL = 1e-8
EPS = np.finfo(np.float64).eps
# below this size (or when K is nearly full) a dense solve is cheaper, and
# the Lanczos basis needs room for at least two vectors beyond k
DENSE_CUTOFF = 32


@dataclass(frozen=True)
class Spectrum:
    """First K generalized eigenpairs of one operator.

    eigenvalues : (k,) ascending, >= 0
    eigenvectors : (n, k), columns mass-orthonormal, sign-canonicalized
    mass : (n,) lumped mass vector of the pencil
    provenance : how it was solved ("solver", "max_residual",
        "ortho_error", "n_below_mu_minus", "n_below_mu_plus"; on the
        sparse path also "ncv", "restarts", "operator_applications"); the
        CLI's cached spectra carry their cache key under "key" too
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

    @property
    def n_whole(self):
        """How many leading eigenpairs span whole eigenspaces: fewer than
        K when the inertia counts show K cuts a multiplet."""
        cut = self.provenance["n_below_mu_plus"] > self.k
        return self.provenance["n_below_mu_minus"] if cut else self.k


def canonicalize_signs(vectors):
    """Flip each column, in place, so its largest-magnitude component is
    positive."""
    idx = np.abs(vectors).argmax(axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    vectors *= signs[None, :]


def _verify(stiffness, mass, vals, vecs):
    """(orthonormality error, relative residuals) of the pencil's pairs,
    with at most two (n, k) temporaries alive beside `vecs`."""
    denom = np.maximum(vals, 1.0) * np.linalg.norm(vecs, axis=0)
    mvecs = mass[:, None] * vecs
    gram = vecs.T @ mvecs
    ortho_err = np.abs(gram - np.eye(gram.shape[0])).max()
    mvecs *= vals[None, :]
    resid = stiffness @ vecs
    resid -= mvecs
    del mvecs
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

    d = 1.0 / np.sqrt(mass)
    scaling = sparse.diags(d)
    standard = (scaling @ stiffness @ scaling).tocsc()
    sigma = -1e-6 * (stiffness.diagonal().mean() / mass.mean())
    dense = n <= DENSE_CUTOFF or k > n - 2
    if dense:
        # numpy's LAPACK, as in `_lanczos`; eigh reads one triangle only
        every, y = np.linalg.eigh(standard.toarray())
        vals, y, provenance = every[:k], y[:, :k], {"solver": "dense"}
    else:
        vals, y, provenance = _lanczos_path(standard, sigma, k)
    # phi = d * y, scaled in place and copied once into the C-ordered
    # array that the residual's sparse product reads without a copy
    y *= d[:, None]
    vecs = np.ascontiguousarray(y)
    del y

    # clamp the tiny negative eigenvalues a PSD pencil can produce in
    # floating point; anything materially negative is a solver failure
    scale = max(abs(vals[-1]), 1.0)
    if vals[0] < -1e-8 * scale:
        raise NotConverged(f"negative eigenvalue {vals[0]:g} from a PSD pencil")
    vals = np.maximum(vals, 0.0)

    canonicalize_signs(vecs)
    ortho_err, rel = _verify(stiffness, mass, vals, vecs)
    if ortho_err > ORTHO_TOL or rel.max() > RESIDUAL_TOL:
        raise NotConverged(
            f"verification failed: orthonormality {ortho_err:g}, "
            f"max residual {rel.max():g}", residuals=rel)
    count_below = ((lambda mu: int(np.count_nonzero(every < mu))) if dense
                   else (lambda mu: _count_below(standard, mu)))
    provenance.update(_inertia_counts(count_below, sigma, vals))

    provenance.update(max_residual=float(rel.max()), ortho_error=ortho_err)
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, mass=mass.copy(),
                    provenance=provenance)


def _lanczos_path(standard, sigma, k):
    n = standard.shape[0]
    ncv = min(n, max(k + k // 2 + 1, 20))
    try:
        lu = splu((standard - sigma * sparse.identity(n)).tocsc(),
                  permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as exc:
        raise FactorizationFailed(str(exc)) from exc
    theta, y, restarts, applications = _lanczos(lu.solve, n, k, ncv,
                                                maxiter=20 * k)
    return sigma + 1.0 / theta, y, {
        "solver": "lanczos", "ncv": ncv, "restarts": restarts,
        "operator_applications": applications}


def _converged(residuals, theta):
    """ARPACK's default stopping rule: a Ritz value has converged when its
    residual bound |beta y_last| is at most machine epsilon times it."""
    return residuals <= EPS * np.abs(theta)


def _lanczos(apply, n, k, ncv, maxiter):
    """The k largest eigenpairs of the symmetric positive definite operator
    `apply` on R^n by thick-restart Lanczos with an ncv-vector basis:
    (theta descending, Euclidean-orthonormal vectors as the columns of an
    (n, k) array, restarts, operator applications)."""
    rng = np.random.default_rng(0)  # a fixed start: solves are bit-identical
    basis = np.empty((ncv + 1, n))  # row j is v_j; row ncv the residual
    basis[0] = rng.standard_normal(n)
    basis[0] /= np.linalg.norm(basis[0])
    t = np.zeros((ncv, ncv))  # the projected operator V^T OP V
    kept = applications = 0
    t_norm = 0.0
    for restart in range(maxiter + 1):
        for j in range(kept, ncv):
            w = apply(basis[j])
            applications += 1
            alpha = basis[j] @ w
            # the local recurrence: v_j's nonzero couplings above it in T,
            # the arrowhead to the kept Ritz vectors right after a restart
            linked = slice(0, kept) if j == kept else slice(j - 1, j)
            w -= t[linked, j] @ basis[linked]
            w -= alpha * basis[j]
            # one full reorthogonalization pass; a second only when the
            # first cancels (DGKS); w that cancels twice lies in the span
            norm = np.linalg.norm(w)
            for _ in range(2):
                h = basis[:j + 1] @ w
                w -= h @ basis[:j + 1]
                alpha += h[j]
                norm, before = np.linalg.norm(w), norm
                if norm > 0.717 * before:
                    break
            else:
                norm = 0.0
            t[j, j] = alpha
            t_norm = max(t_norm, abs(alpha), norm)
            if norm <= EPS * t_norm or j + 1 == n:
                norm = 0.0  # an invariant subspace: T decouples here
            if j + 1 < ncv:
                t[j, j + 1] = t[j + 1, j] = norm
            if norm:
                basis[j + 1] = w / norm
            elif j + 1 < ncv:
                basis[j + 1] = _fresh(basis[:j + 1], rng)
        beta = norm

        # numpy's LAPACK, not scipy's: each bundles its own threaded
        # OpenBLAS, and when the two alternate one pool's spinning threads
        # double the time of the other's GEMVs
        theta, y = np.linalg.eigh(t)
        theta, y = theta[::-1], y[:, ::-1]
        nconv = int(_converged(np.abs(beta * y[-1, :k]), theta[:k]).sum())
        if nconv == k:
            break
        if restart == maxiter:
            raise NotConverged(
                f"Lanczos stopped after {maxiter} restarts with "
                f"{nconv} of {k} pairs converged")
        # thick restart (Wu & Simon 2000): keep the leading Ritz vectors,
        # more of them as more have converged (ARPACK's nev adjustment)
        kept = k + min(nconv, (ncv - k) // 2)
        basis[:kept] = y[:, :kept].T @ basis[:ncv]
        basis[kept] = basis[ncv] if beta else _fresh(basis[:kept], rng)
        t[:] = 0.0
        np.fill_diagonal(t[:kept, :kept], theta[:kept])
        t[:kept, kept] = t[kept, :kept] = beta * y[-1, :kept]
    return theta[:k], (y[:, :k].T @ basis[:ncv]).T, restart, applications


def _fresh(basis, rng):
    """A random unit vector orthogonal to the rows of `basis`."""
    w = rng.standard_normal(basis.shape[1])
    for _ in range(2):
        w -= (basis @ w) @ basis
    return w / np.linalg.norm(w)


def _inertia_counts(count_below, sigma, vals):
    """Check that `vals`, the smallest eigenvalues of C, skip none.

    `count_below(mu)` counts C's eigenvalues below mu: from every
    eigenvalue of a dense solve, or by `_count_below`. At mu- and mu+ on
    either side of lambda_K the count below mu- must equal the returned
    values below it, and the count below mu+ must reach K (K may cut
    through a multiplet). A lambda_K within |sigma| of zero, the constant
    mode of a closed mesh at k = 1, takes |sigma| as its distance instead
    of a relative one, which would factor the singular C itself."""
    lam = vals[-1]
    delta = 1e-6 * lam if lam > -sigma else -sigma
    minus, plus = lam - delta, lam + delta
    below_minus = count_below(minus)
    below_plus = count_below(plus)
    returned = int(np.count_nonzero(vals < minus))
    if below_minus != returned or below_plus < len(vals):
        raise NotConverged(
            f"incomplete spectrum: {below_minus} eigenvalues lie below "
            f"{minus:.6g} where {returned} were returned, and {below_plus} "
            f"below {plus:.6g} for k={len(vals)}")
    return {"n_below_mu_minus": below_minus, "n_below_mu_plus": below_plus}


def _count_below(standard, mu):
    """The number of eigenvalues of `standard` below mu, as the negative
    pivots of its symmetric (LDL^T) SuperLU factor shifted by mu
    (Sylvester's law of inertia)."""
    n = standard.shape[0]
    try:
        lu = splu((standard - mu * sparse.identity(n)).tocsc(),
                  permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise FactorizationFailed(str(exc)) from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise FactorizationFailed(
            f"the factor at {mu:g} pivoted off its diagonal, so it does not "
            f"count eigenvalues")
    return int(np.count_nonzero(lu.U.diagonal() < 0))


def clamp_k(k, n):
    """Clamp a requested eigenpair count to n-1 for tiny meshes."""
    if k > n - 1:
        clamped = max(n - 1, 1)
        logger.warning("requested %d eigenpairs on a %d-vertex mesh; using %d",
                       k, n, clamped)
        return clamped
    return k
