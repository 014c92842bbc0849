"""Reverse mode for one chain of ops over float64 or float32 numpy arrays.

Every op of the network has one chained input, the output of the op before
it, plus parameters of its own. So each op here returns ``(value, back)``,
and ``back(g)`` maps g, the loss gradient of ``value``, to ``(dx, grads)``:
the gradient for the chained input and a tuple of gradients for the op's
parameters, in the order the op takes them. Each op computes in the dtype
of its inputs, and its back returns gradients in the dtype of what they
differentiate.

A tape is a list of ``(back, parameter names)`` entries in forward order;
``network._head_input`` appends one per op. ``backward(tape, g)`` runs the
backs last to first from g, the loss gradient of the last op's output, and
returns ``{name: gradient}``. The classifier head is not on the tape:
``linear_softmax_cross_entropy`` forms its gradients in its own pass, and
its input gradient, written over its input, is the g that starts
``backward``.

When the arrays are freed:
- No tape entry keeps an array that another entry, or the op's own back,
  can form again bit for bit (gradient checkpointing, Chen et al. 2016).
  An activation that no back reads (the output of a conv layer feeding
  the next ``wavelet_mix``, say) is freed as soon as the forward pass
  stops referencing it.
- The encoder's SELU runs fused with the next stage's affine
  (``selu_affine``), whose back keeps SELU's input, not its output. A
  conv layer's tape holds, per direction, the K x D projection
  ``wavelet_mix`` mixes from (M K x D arrays in all), then one N x D
  array: the input of its ``selu_standardize``, whose back forms SELU's
  output and the standardized features again from it and otherwise keeps
  two D-vectors. The perturbation stage's per-feature scale folds into
  its ``selu_standardize``, which keeps the unscaled input and forms
  x * s again, so the stage keeps one N x D array too.
- Every ``wavelet_mix`` of one forward reads one ``MixBank``, which
  ``network._head_input`` forms once: the eigenvectors and mass, the
  responses, the reciprocal L1 normalizers and the passbands. The
  eigenvectors are the bank's (M, N, K) basis itself when it is in the
  forward's dtype, as ``cli``'s float32 banks are for a float32 network,
  and one cast copy otherwise, as is the mass (in float64 the mesh's own
  ``TriMesh.mass``). No tape entry keeps its own copy of them.
  ``_head_input`` takes the bank as a loader and keeps only the
  ``MixBank``, so the loaded ``FilterBank``, and a basis it had to cast,
  are freed before the first ``wavelet_mix`` runs. A ``cli`` bank hit
  reads that basis from its FBK1 file, so a forward on it holds one
  float32 basis and never a float64 eigenvector.
- SELU and ``selu_standardize`` form their values and gradients in
  place in the arrays they make, without masked ufuncs. A tape is
  single-use, so ``selu_standardize``'s back consumes its kept input as
  scratch, and its g: it peaks at two N x D arrays besides z and g
  (three with a scale). ``wavelet_mix``'s back synthesizes each
  direction's x-gradient in the buffer it divides g in, when the two
  have one shape, so it holds two N x D arrays besides g.
- The fused head overwrites its input, HEAD_BLOCK rows at a time, with
  the gradient for it once those rows are folded into the weight
  gradient, and holds one logit block at a time, so it adds to its input
  only the weight gradient, one logit block and one D x C product.
  ``network._train_step`` takes the head's Adam step right after it, so
  the head's gradients are freed before ``backward`` runs.
- ``backward`` pops each entry before running it, so the entry's arrays
  are freed before the next back runs, and the tape is empty afterwards.
  A tape is single-use; each differentiation records a new one.
- An op whose back is not kept on a tape (``network.descriptors`` records
  none) keeps nothing: its back and the arrays only that back reads are
  freed when its result is unpacked.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SingleVertexShape
from .wavelets import passbands

SELU_SCALE = 1.05070098
SELU_ALPHA = 1.67326324
NORM_EPS = 1e-5


def backward(tape, g):
    """Run the tape's backs last to first, starting from g, the loss
    gradient of the last op's output, and empty the tape; returns
    {parameter name: gradient}. A back may overwrite the g it is given
    and its own kept arrays (``selu_standardize``'s does), and each g is
    dropped once its back returns."""
    grads = {}
    while tape:
        back, names = tape.pop()
        g, param_grads = back(g)
        grads.update(zip(names, param_grads))
    return grads


def affine(x, w, b):
    """x @ w + b."""
    def back(g):
        return g @ w.T, (x.T @ g, g.sum(axis=0))

    return x @ w + b, back


def _selu_exp(x):
    """exp(min(x, 0)) in a new array of x's shape and dtype."""
    e = np.minimum(x, 0.0, out=np.empty_like(x))
    return np.exp(e, out=e)


def _selu_value(x, e, work, out):
    """SELU of x, c (e - 1) + S max(x, 0) with c = S alpha, written into
    `out` (which may be e) from e = exp(min(x, 0)); overwrites work."""
    np.subtract(e, 1.0, out=out)
    out *= SELU_SCALE * SELU_ALPHA
    np.maximum(x, 0.0, out=work)
    work *= SELU_SCALE
    out += work
    return out


def _selu_derivative(x, e, work):
    """SELU's derivative at x, c (e - pos) + S pos with pos = (x > 0) as
    0 or 1, formed in place in e = exp(min(x, 0)); overwrites work."""
    np.greater(x, 0.0, out=work)
    e -= work
    e *= SELU_SCALE * SELU_ALPHA
    work *= SELU_SCALE
    e += work
    return e


def _selu_forward(x):
    """SELU of x in a new array."""
    e = _selu_exp(x)
    return _selu_value(x, e, np.empty_like(x), out=e)


def selu(x):
    """SELU without masked ufuncs: the value c (exp(min(x, 0)) - 1) +
    S max(x, 0) and the derivative c (exp(min(x, 0)) - pos) + S pos, with
    c = S alpha and pos = (x > 0), are bit for bit the np.where forms. The
    back keeps only x and forms the exponential again when it runs. A 0-d
    input gives a 0-d array."""
    def back(g):
        deriv = _selu_derivative(x, _selu_exp(x), np.empty_like(x))
        deriv *= g
        return deriv, ()

    return _selu_forward(x), back


def selu_affine(z, w, b):
    """selu(z) @ w + b, equal bit for bit to ``affine`` of ``selu``'s
    output. The back keeps z, not SELU's output, and forms SELU's
    exponential, output and derivative again from it when it runs, so
    its tape entry holds one array where the two ops apart hold two."""
    def back(g):
        work = np.empty_like(z)
        e = _selu_exp(z)
        s = _selu_value(z, e, work, out=np.empty_like(z))
        grads = (s.T @ g, g.sum(axis=0))
        del s
        deriv = _selu_derivative(z, e, work)
        deriv *= g @ w.T
        return deriv, grads

    return _selu_forward(z) @ w + b, back


def selu_standardize(z, gamma, beta, scale=None):
    """Per-feature standardization over the vertex axis, with affine, of
    selu(x), where x is z, or z times the per-feature `scale` when one is
    given; equal bit for bit to standardizing ``selu``'s output of x.

    The back keeps only z and the per-feature mean and inverse std. When it
    runs, it forms x, SELU's exponential, output and derivative and the
    standardized xhat again, by the forward's operations in the forward's
    order, then runs the standardization's back and SELU's, and the
    scale's when there is one. So its tape entry holds one N x D array,
    where SELU, standardization and the scale kept apart hold one each.
    The parameter gradients are for (gamma, beta), then for the scale when
    there is one.

    The back consumes x and g as scratch: the tape is single-use, so z
    is not read again once its back has run. It overwrites x with
    S max(x, 0) while forming SELU's output, then forms SELU's derivative
    from that array, which is positive exactly where x is; after that, x
    is the work array. It takes the sums it needs from g, then overwrites
    g with the standardization's input gradient. So it peaks at two
    N x D arrays besides z and g, and at three with a scale, whose x is
    formed apart from z because the scale's gradient reads z last.
    """
    if z.ndim != 2 or z.shape[0] < 2:
        raise SingleVertexShape(
            f"standardization needs at least 2 vertices, got shape {z.shape}")
    x = z if scale is None else z * scale
    work = np.empty_like(x)
    e = _selu_exp(x)
    xhat = _selu_value(x, e, work, out=e)                   # selu(x)
    mean = xhat.mean(axis=0)
    xhat -= mean                                            # centered
    np.square(xhat, out=work)
    var = work.mean(axis=0)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat *= inv_std
    value = np.multiply(xhat, gamma, out=work)
    value += beta
    del x, e, xhat, work

    def back(g):
        x = z if scale is None else z * scale
        e = _selu_exp(x)
        xhat = _selu_value(x, e, x, out=np.empty_like(x))
        xhat -= mean
        xhat *= inv_std
        deriv = _selu_derivative(x, e, x)   # x holds S max(x, 0) here
        work = x
        np.multiply(g, xhat, out=work)
        grads = (work.sum(axis=0), g.sum(axis=0))
        dx = np.multiply(g, gamma, out=g)                   # g * gamma
        np.multiply(dx, xhat, out=work)
        dx_xhat = work.mean(axis=0)
        dx -= dx.mean(axis=0)
        np.multiply(xhat, dx_xhat, out=work)
        dx -= work
        dx *= inv_std
        deriv *= dx
        if scale is not None:
            np.multiply(deriv, z, out=work)
            grads += (work.sum(axis=0),)
            deriv *= scale
        return deriv, grads

    return value, back


@dataclass(frozen=True)
class MixBank:
    """A ``wavelets.FilterBank`` as ``wavelet_mix`` reads it, in one dtype:
    per direction the eigenvectors, and per filter the responses as a
    K x 1 column, the reciprocals of the L1 normalizers as an N x 1 column
    and the passband length. ``MixBank.of`` forms them once, so every
    layer of a forward shares one copy and no tape entry keeps its own."""

    eigenvectors: np.ndarray    # (M, N, K)
    mass: np.ndarray            # (N,), shared by the directions
    responses: np.ndarray       # (M, J, K, 1)
    inv_norms: np.ndarray       # (M, J, N, 1)
    bands: np.ndarray           # (M, J) passband lengths

    @classmethod
    def of(cls, bank, dtype):
        """`bank`'s arrays in `dtype`; where the bank already holds one in
        `dtype` (its basis, in the precision of its L1 pass), that array
        is shared, not copied."""
        return cls(
            eigenvectors=bank.basis.astype(dtype, copy=False),
            mass=bank.mass.astype(dtype, copy=False),
            responses=bank.responses.astype(dtype)[..., None],
            inv_norms=(1.0 / bank.l1_normalizers).astype(
                dtype, copy=False)[..., None],
            bands=passbands(bank.responses))


def wavelet_mix(x, thetas, bank):
    """sum_{m,j} (normalized wavelet filter (m, j) applied to x) @ theta[m][j].

    `bank` is a ``MixBank`` in x's dtype, which ``network._head_input``
    forms once per forward. thetas is an M x J nested list of arrays, one
    per filter of the bank; any other grid raises ValueError. The back's
    parameter gradients follow the filters in that order, direction by
    direction. The filters are mixed in the K-dim eigenbasis, each over
    its passband of K_mj eigenpairs (``wavelets.passbands``), past which
    its responses are below round-off. The bank's directions share one
    lumped mass A (``FilterBank`` checks it), so A x is formed once per
    call. Per direction the forward projects once, C = Phi^T (A x), and
    keeps C, a K x D array, for the back, which reads the rest from the
    shared ``MixBank``; per scale it forms r_j * C[:K_mj] in one
    reused K x D buffer, mixes in coefficient space, P_j = (r_j * C)[:K_mj]
    theta_j, synthesizes Phi[:, :K_mj] P_j into one reused N x E buffer,
    divides its rows by the scale's L1 normalizers in place and adds it to
    the output. The back forms, one direction at a time,
    H_j = Phi[:, :K_mj]^T (g / n_j) once, through reused N x E and K x E
    buffers: the theta-gradients are (r_j * C)[:K_mj]^T H_j, with
    r_j * C[:K_mj] formed again as in the forward, and the direction's
    share of the x-gradient is A * Phi sum_j r_j * (H_j theta_j^T) over
    each passband, synthesized into one reused N x D buffer.

    Cost per direction, forward and backward together, for N vertices,
    K eigenpairs, passbands K_j <= K and D x E mixing matrices:
    2 N K D multiply-adds for the projection and the x-synthesis,
    2 N (sum_j K_j) E for the per-scale synthesis and H, and
    3 (sum_j K_j) D E for the mixing; about 11 N K D when every K_j = K,
    at J = 4, N = 1226 and K = D = E = 128. Mixing the filtered N x D maps
    instead costs 3J N D^2, about 22 N K D in total there, and keeps
    M J N x D maps on the tape where this keeps M K x D arrays.
    """
    n_dir, n_scale = bank.bands.shape
    if [len(row) for row in thetas] != [n_scale] * n_dir:
        raise ValueError(
            f"mixing weights form a {len(thetas)} x "
            f"{len(thetas[0]) if thetas else 0} grid, the filter bank has "
            f"{n_dir} directions x {n_scale} scales")
    dtype = x.dtype
    x_shape = x.shape
    k = bank.responses.shape[2]
    e = thetas[0][0].shape[1]
    dirs = []
    out = np.zeros((len(x), e), dtype)
    buf = np.empty_like(out)
    mixed = np.empty((k, e), dtype)
    rc = np.empty((k, x_shape[1]), dtype)                       # r_j * C
    mass = bank.mass
    mass_x = mass[:, None] * x                                  # A x, (N, D)
    for phi, resp, inv_norm, kbs, row in zip(
            bank.eigenvectors, bank.responses, bank.inv_norms, bank.bands,
            thetas):
        c = phi.T @ mass_x                                      # (K, D)
        for j, (theta, kb) in enumerate(zip(row, kbs)):
            np.multiply(resp[j, :kb], c[:kb], out=rc[:kb])
            np.matmul(rc[:kb], theta, out=mixed[:kb])
            np.matmul(phi[:, :kb], mixed[:kb], out=buf)
            buf *= inv_norm[j]
            out += buf
        dirs.append((phi, resp, inv_norm, c, row, kbs))

    def back(g):
        gx = np.zeros(x_shape, dtype)
        work = np.empty_like(g)                                 # g / n_j
        # A Phi acc; formed once a direction is done with work, so the two
        # share one buffer when E = D, as in every conv layer
        back_x = work if g.shape == x_shape else np.empty(x_shape, dtype)
        h = np.empty((k, g.shape[1]), g.dtype)
        acc = np.empty((k, x_shape[1]), dtype)                  # (K, D)
        rc = np.empty_like(acc)
        theta_grads = []
        for phi, resp, inv_norm, c, row, kbs in dirs:
            acc.fill(0)
            for j, (theta, kb) in enumerate(zip(row, kbs)):
                np.multiply(g, inv_norm[j], out=work)
                np.matmul(phi[:, :kb].T, work, out=h[:kb])
                acc[:kb] += resp[j, :kb] * (h[:kb] @ theta.T)
                np.multiply(resp[j, :kb], c[:kb], out=rc[:kb])
                theta_grads.append(rc[:kb].T @ h[:kb])
            np.matmul(phi, acc, out=back_x)
            back_x *= mass[:, None]
            gx += back_x
        return gx, tuple(theta_grads)

    return out, back


# logit rows materialized at a time by the fused head; a 128 x C block is
# the size of one N x 128 feature map when C = N, as when training on a
# template's vertices
HEAD_BLOCK = 128


def _check_labels(labels, n_classes):
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(
            f"labels must lie in [0, {n_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")


def _ce_rows(z, labels, n):
    """Cross entropy of a block of logit rows, computed in place.

    Overwrites z with the block's (softmax - onehot) / n, the gradient of
    the mean over all n rows. Returns the block's summed loss and the count
    of its rows whose argmax is the label.
    """
    rows = np.arange(len(z))
    top = z.argmax(axis=1)
    z -= z[rows, top][:, None]
    picked = z[rows, labels]
    np.exp(z, out=z)
    total = z.sum(axis=1)
    loss = (np.log(total) - picked).sum(dtype=np.float64)
    z /= total[:, None]
    z[rows, labels] -= 1.0
    z /= n
    return float(loss), int((top == labels).sum())


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy of the rows of `logits` and its gradient,
    (softmax - onehot) / n: the unfused reference of the training head."""
    labels = np.asarray(labels)
    n, c = logits.shape
    _check_labels(labels, c)
    grad = logits.copy()
    loss, _ = _ce_rows(grad, labels, n)
    return loss / n, grad


def linear_softmax_cross_entropy(x, w, b, labels):
    """Fused classifier head: softmax_cross_entropy(x @ w + b, labels)
    without the N x C logits.

    The logits are formed HEAD_BLOCK rows at a time, turned in place into
    that block's share of the loss gradient, and folded into the gradients
    of x, w and b in the same pass; each block is freed before the next is
    formed. The gradient for x is written over x's rows once they are
    folded into w's gradient, so x is consumed. Returns the mean loss, the
    number of rows whose argmax is their label, the gradient for x (x
    itself), and the gradients for (w, b).
    """
    labels = np.asarray(labels)
    n = len(x)
    _check_labels(labels, w.shape[1])
    dw = np.zeros_like(w)
    db = np.zeros_like(b)
    loss = 0.0
    correct = 0
    for start in range(0, n, HEAD_BLOCK):
        rows = slice(start, start + HEAD_BLOCK)
        z = x[rows] @ w
        z += b
        block_loss, block_correct = _ce_rows(z, labels[rows], n)
        loss += block_loss
        correct += block_correct
        dw += x[rows].T @ z
        db += z.sum(axis=0)
        x[rows] = z @ w.T
        del z
    return loss / n, correct, x, (dw, db)
