"""Minimal reverse-mode tape over float64 numpy arrays.

Just enough machinery for the trainable pipeline: every op records its
parents together with vector-Jacobian closures, ``backward`` walks the
graph once in reverse topological order. Gradients accumulate by
addition, so shared subexpressions are handled correctly.
"""

import numpy as np

from .errors import SingleVertexShape

SELU_SCALE = 1.05070098
SELU_ALPHA = 1.67326324
NORM_EPS = 1e-5


class Tensor:
    __slots__ = ("value", "grad", "parents", "requires_grad")

    def __init__(self, value, parents=(), requires_grad=False):
        self.value = value
        self.grad = None
        self.parents = parents
        self.requires_grad = requires_grad or any(
            p.requires_grad for p, _ in parents)

    @property
    def shape(self):
        return np.shape(self.value)


def constant(value):
    return Tensor(np.asarray(value))


def param(value):
    return Tensor(value, requires_grad=True)


def backward(root):
    """Accumulate gradients of ``root`` (a scalar) into the graph."""
    order = []
    seen = set()
    stack = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            stack.append((parent, False))

    root.grad = np.ones_like(np.asarray(root.value, dtype=np.float64))
    for node in reversed(order):
        if node.grad is None:
            continue
        for parent, vjp in node.parents:
            if not parent.requires_grad:
                continue
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    value = a.value + b.value
    return Tensor(value, parents=(
        (a, lambda g: _unbroadcast(g, np.shape(a.value))),
        (b, lambda g: _unbroadcast(g, np.shape(b.value))),
    ))


def mul(a, b):
    value = a.value * b.value
    return Tensor(value, parents=(
        (a, lambda g: _unbroadcast(g * b.value, np.shape(a.value))),
        (b, lambda g: _unbroadcast(g * a.value, np.shape(b.value))),
    ))


def matmul(a, b):
    value = a.value @ b.value
    return Tensor(value, parents=(
        (a, lambda g: g @ b.value.T),
        (b, lambda g: a.value.T @ g),
    ))


def affine(x, w, b):
    return add(matmul(x, w), b)


def selu(a):
    x = a.value
    pos = x > 0
    expx = np.exp(np.minimum(x, 0.0))
    value = np.where(pos, SELU_SCALE * x, SELU_SCALE * SELU_ALPHA * (expx - 1.0))

    def vjp(g):
        return g * np.where(pos, SELU_SCALE, SELU_SCALE * SELU_ALPHA * expx)

    return Tensor(value, parents=((a, vjp),))


def standardize(x, gamma, beta, eps=NORM_EPS):
    """Per-feature standardization over the vertex axis with affine."""
    v = x.value
    if v.ndim != 2 or v.shape[0] < 2:
        raise SingleVertexShape(
            f"standardization needs at least 2 vertices, got shape {v.shape}")
    n = v.shape[0]
    mean = v.mean(axis=0)
    centered = v - mean
    var = (centered**2).mean(axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    value = xhat * gamma.value + beta.value

    def vjp_x(g):
        gx = g * gamma.value
        return inv_std * (gx - gx.mean(axis=0)
                          - xhat * (gx * xhat).mean(axis=0))

    return Tensor(value, parents=(
        (x, vjp_x),
        (gamma, lambda g: (g * xhat).sum(axis=0)),
        (beta, lambda g: g.sum(axis=0)),
    ))


def gather_rows(x, index):
    index = np.asarray(index)

    def vjp(g):
        out = np.zeros_like(x.value)
        np.add.at(out, index, g)
        return out

    return Tensor(x.value[index], parents=((x, vjp),))


def wavelet_mix(x, thetas, bank):
    """sum_{m,j} (normalized wavelet filter (m, j) applied to x) @ theta[m][j].

    thetas is an M x J nested list of Tensors; it may cover a leading
    sub-block of the bank's directions and scales. The filters are mixed
    in the K-dim eigenbasis. Per direction the forward projects once,
    C = Phi^T (A x), mixes each scale in coefficient space,
    P_j = (r_j * C) theta_j, and synthesizes all J scales with one
    N x K x (J E) product whose rows of scale j are divided by that scale's
    L1 normalizers. The backward computes H = Phi^T [g/n_1 | ... | g/n_J]
    once and shares it: the theta-gradients are (r_j * C)^T H_j and the
    x-gradient is A * Phi sum_j r_j * (H_j theta_j^T).

    Cost per direction, forward and backward together, for N vertices,
    K eigenpairs and D x D mixing matrices: 2(J + 1) N K D multiply-adds
    for projection and synthesis plus 3J K D^2 for the mixing, about
    11 N K D at J = 4, N = 1226 and K = D = 128. Mixing the filtered N x D
    maps instead costs 3J N D^2, about 22 N K D in total there, and keeps
    M J N x D maps on the tape where this keeps M J K x D arrays.
    """
    v = x.value
    dtype = v.dtype
    n = len(v)
    n_scale = len(thetas[0])
    dirs = []
    scaled = []     # r_j * C per direction, (J, K, D)
    out = None
    for m, row in enumerate(thetas):
        spec = bank.spectra[m]
        phi = spec.eigenvectors.astype(dtype, copy=False)
        mass = spec.mass.astype(dtype, copy=False)
        resp = bank.responses[m, :n_scale].astype(dtype)[:, :, None]
        inv_norm = (1.0 / bank.l1_normalizers[m, :n_scale].T).astype(dtype)
        theta = np.stack([t.value for t in row])                # (J, D, E)
        rc = resp * (phi.T @ (mass[:, None] * v))               # (J, K, D)
        mixed = (rc @ theta).transpose(1, 0, 2).reshape(phi.shape[1], -1)
        synth = (phi @ mixed).reshape(n, n_scale, -1)           # (N, J, E)
        term = np.einsum("nje,nj->ne", synth, inv_norm)
        out = term if out is None else out + term
        dirs.append((phi, mass, resp, inv_norm, theta))
        scaled.append(rc)

    memo = {}

    def coeff_grads(g):
        # H per direction, computed once per incoming gradient: backward
        # hands the same g object to the x-vjp and every theta-vjp
        if memo.get("g") is not g:
            memo["g"] = g
            memo["h"] = [
                (phi.T @ np.einsum("ne,nj->nje", g, inv_norm).reshape(n, -1))
                .reshape(phi.shape[1], n_scale, -1).transpose(1, 0, 2)
                for phi, _, _, inv_norm, _ in dirs]
        return memo["h"]

    def vjp_x(g):
        gx = np.zeros_like(v)
        for (phi, mass, resp, _, theta), h in zip(dirs, coeff_grads(g)):
            acc = (resp * (h @ theta.transpose(0, 2, 1))).sum(axis=0)
            gx += mass[:, None] * (phi @ acc)
        return gx

    def make_vjp_theta(m, j):
        return lambda g: scaled[m][j].T @ coeff_grads(g)[m][j]

    parents = [(x, vjp_x)]
    for m, row in enumerate(thetas):
        for j, theta in enumerate(row):
            parents.append((theta, make_vjp_theta(m, j)))
    return Tensor(out, parents=tuple(parents))


HEAD_BLOCK = 256  # logit rows materialized at a time by the fused head


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


def _scalar_vjp(grad):
    """vjp of a scalar output whose gradient is ``grad``. The incoming
    scalar takes grad's dtype, so float32 gradients stay float32."""
    return lambda g: grad * grad.dtype.type(g)


def softmax_cross_entropy(logits, labels):
    """Mean cross entropy; gradient is (softmax - onehot) / n."""
    labels = np.asarray(labels)
    n, c = logits.value.shape
    _check_labels(labels, c)
    grad = logits.value.copy()
    loss, _ = _ce_rows(grad, labels, n)
    return Tensor(np.float64(loss / n),
                  parents=((logits, _scalar_vjp(grad)),))


def linear_softmax_cross_entropy(x, w, b, labels):
    """Fused classifier head: softmax_cross_entropy(affine(x, w, b), labels)
    without the N x C logits.

    The logits are formed HEAD_BLOCK rows at a time, turned in place into
    that block's share of the loss gradient, and folded into the gradients
    of x, w and b in the same pass. Returns the loss Tensor and the number
    of rows whose argmax is their label.
    """
    xv, wv = x.value, w.value
    labels = np.asarray(labels)
    n = len(xv)
    _check_labels(labels, wv.shape[1])
    dx = np.empty_like(xv)
    dw = np.zeros_like(wv)
    db = np.zeros_like(b.value)
    loss = 0.0
    correct = 0
    for start in range(0, n, HEAD_BLOCK):
        rows = slice(start, start + HEAD_BLOCK)
        z = xv[rows] @ wv
        z += b.value
        block_loss, block_correct = _ce_rows(z, labels[rows], n)
        loss += block_loss
        correct += block_correct
        dw += xv[rows].T @ z
        db += z.sum(axis=0)
        dx[rows] = z @ wv.T
    loss = Tensor(np.float64(loss / n), parents=(
        (x, _scalar_vjp(dx)), (w, _scalar_vjp(dw)), (b, _scalar_vjp(db))))
    return loss, correct
