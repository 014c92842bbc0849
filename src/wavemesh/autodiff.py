"""Minimal reverse-mode tape over float64 or float32 numpy arrays.

Each op computes in the dtype of its inputs; a scalar loss is float64, and
its vjps hand on gradients in the dtype of what they differentiate.

Just enough machinery for the trainable pipeline: every op whose inputs
include one that requires a gradient records, on a small gradient node,
the nodes of those inputs together with vector-Jacobian closures, and
``backward`` walks the graph once in reverse topological order.
Gradients accumulate by addition, so shared subexpressions are handled
correctly.

The tape keeps only what backward needs:
- A graph is single-use. ``backward`` consumes it: once a node's gradient
  has reached its parents, the node drops that gradient and its vjps, so
  afterwards only the leaves hold gradients. Each differentiation builds
  a fresh graph.
- An op none of whose inputs requires a gradient records nothing, so a
  forward pass over constants builds no graph at all.
- The graph links gradient nodes, not Tensors, and each vjp holds only
  the arrays it reads. An activation that no vjp reads (the output of a
  SELU feeding a standardization, say) is freed as soon as the forward
  pass stops referencing it.
"""

import numpy as np

from .errors import SingleVertexShape
from .wavelets import passbands

SELU_SCALE = 1.05070098
SELU_ALPHA = 1.67326324
NORM_EPS = 1e-5


class _Node:
    """Gradient slot of a Tensor that requires a gradient: the
    (parent node, vjp) edges and the gradient accumulated so far."""
    __slots__ = ("grad", "parents")

    def __init__(self, parents):
        self.grad = None
        self.parents = parents


class Tensor:
    """An array and, if it requires a gradient, its node on the tape.

    ``parents`` pairs each input Tensor with the vjp that maps this
    Tensor's gradient to that input's; inputs that require no gradient
    are not recorded.
    """
    __slots__ = ("value", "node")

    def __init__(self, value, parents=(), requires_grad=False):
        self.value = value
        edges = tuple((p.node, vjp) for p, vjp in parents
                      if p.node is not None)
        self.node = _Node(edges) if requires_grad or edges else None

    @property
    def requires_grad(self):
        return self.node is not None

    @property
    def grad(self):
        return None if self.node is None else self.node.grad

    @property
    def parents(self):
        return () if self.node is None else self.node.parents

    @property
    def shape(self):
        return np.shape(self.value)


def constant(value):
    return Tensor(np.asarray(value))


def param(value):
    return Tensor(value, requires_grad=True)


def backward(root):
    """Accumulate gradients of ``root`` (a scalar) into the leaves of its
    graph, consuming the graph as it goes."""
    if root.node is None:
        return
    order = []
    seen = set()
    stack = [(root.node, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent, _ in node.parents:
            stack.append((parent, False))

    root.node.grad = np.ones_like(np.asarray(root.value, dtype=np.float64))
    for node in reversed(order):
        if not node.parents:
            continue  # a leaf keeps its gradient
        for parent, vjp in node.parents:
            g = vjp(node.grad)
            parent.grad = g if parent.grad is None else parent.grad + g
        node.grad = None
        node.parents = ()


def _unbroadcast(grad, shape):
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def add(a, b):
    sa, sb = np.shape(a.value), np.shape(b.value)
    return Tensor(a.value + b.value, parents=(
        (a, lambda g: _unbroadcast(g, sa)),
        (b, lambda g: _unbroadcast(g, sb)),
    ))


def mul(a, b):
    av, bv = a.value, b.value
    return Tensor(av * bv, parents=(
        (a, lambda g: _unbroadcast(g * bv, np.shape(av))),
        (b, lambda g: _unbroadcast(g * av, np.shape(bv))),
    ))


def matmul(a, b):
    av, bv = a.value, b.value
    return Tensor(av @ bv, parents=(
        (a, lambda g: g @ bv.T),
        (b, lambda g: av.T @ g),
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


def standardize(x, gamma, beta):
    """Per-feature standardization over the vertex axis with affine."""
    v = x.value
    if v.ndim != 2 or v.shape[0] < 2:
        raise SingleVertexShape(
            f"standardization needs at least 2 vertices, got shape {v.shape}")
    n = v.shape[0]
    mean = v.mean(axis=0)
    centered = v - mean
    var = (centered**2).mean(axis=0)
    inv_std = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = centered * inv_std
    gv = gamma.value
    value = xhat * gv + beta.value

    def vjp_x(g):
        gx = g * gv
        return inv_std * (gx - gx.mean(axis=0)
                          - xhat * (gx * xhat).mean(axis=0))

    return Tensor(value, parents=(
        (x, vjp_x),
        (gamma, lambda g: (g * xhat).sum(axis=0)),
        (beta, lambda g: g.sum(axis=0)),
    ))


def gather_rows(x, index):
    index = np.asarray(index)
    shape, dtype = x.value.shape, x.value.dtype

    def vjp(g):
        out = np.zeros(shape, dtype)
        np.add.at(out, index, g)
        return out

    return Tensor(x.value[index], parents=((x, vjp),))


def wavelet_mix(x, thetas, bank):
    """sum_{m,j} (normalized wavelet filter (m, j) applied to x) @ theta[m][j].

    thetas is an M x J nested list of Tensors, one per filter of the bank;
    any other grid raises ValueError. The filters are mixed in the K-dim
    eigenbasis, each over its passband of K_mj eigenpairs
    (``wavelets.passbands``), past which its responses are below round-off.
    The bank's directions share one lumped mass A (``FilterBank``
    checks it), so A x is formed once per call. Per direction the forward
    projects once, C = Phi^T (A x); per scale it mixes in coefficient
    space, P_j = (r_j * C)[:K_mj] theta_j, synthesizes Phi[:, :K_mj] P_j
    into one reused N x E buffer, divides its rows by the scale's L1
    normalizers in place and adds it to the output. The backward
    computes H_j = Phi[:, :K_mj]^T (g / n_j) once per incoming gradient
    through one reused N x E buffer: the theta-gradients are
    (r_j * C)[:K_mj]^T H_j and the x-gradient is
    A * Phi sum_j r_j * (H_j theta_j^T), with H_j's rows past K_mj zero.

    Cost per direction, forward and backward together, for N vertices,
    K eigenpairs, passbands K_j <= K and D x E mixing matrices:
    2 N K D multiply-adds for the projection and the x-synthesis,
    2 N (sum_j K_j) E for the per-scale synthesis and H, and
    3 (sum_j K_j) D E for the mixing; about 11 N K D when every K_j = K,
    at J = 4, N = 1226 and K = D = E = 128. Mixing the filtered N x D maps
    instead costs 3J N D^2, about 22 N K D in total there, and keeps
    M J N x D maps on the tape where this keeps M J K x D arrays.
    """
    n_dir, n_scale = bank.n_directions, bank.n_scales
    if [len(row) for row in thetas] != [n_scale] * n_dir:
        raise ValueError(
            f"mixing weights form a {len(thetas)} x "
            f"{len(thetas[0]) if thetas else 0} grid, the filter bank has "
            f"{n_dir} directions x {n_scale} scales")
    v = x.value
    dtype = v.dtype
    x_shape = v.shape
    bands = passbands(bank.responses)
    k = bank.responses.shape[2]
    e = thetas[0][0].value.shape[1]
    dirs = []
    # r_j * C and H are kept whole, (J, K, D) and (J, K, E) per direction,
    # and sliced to each passband: arrays of one size per direction keep
    # the heap from fragmenting, where K_j-sized ones raised peak RSS
    scaled = []
    out = np.zeros((len(v), e), dtype)
    buf = np.empty_like(out)
    mixed = np.empty((k, e), dtype)
    mass = bank.spectra[0].mass.astype(dtype, copy=False)
    mass_v = mass[:, None] * v                                  # A x, (N, D)
    for m, row in enumerate(thetas):
        phi = bank.spectra[m].eigenvectors.astype(dtype, copy=False)
        resp = bank.responses[m].astype(dtype)
        inv_norm = (1.0 / bank.l1_normalizers[m]).astype(dtype)[:, :, None]
        rc = resp[:, :, None] * (phi.T @ mass_v)                # (J, K, D)
        for j, (t, kb) in enumerate(zip(row, bands[m])):
            np.matmul(rc[j, :kb], t.value, out=mixed[:kb])
            np.matmul(phi[:, :kb], mixed[:kb], out=buf)
            buf *= inv_norm[j]
            out += buf
        dirs.append((phi, resp, inv_norm, [t.value for t in row]))
        scaled.append(rc)

    memo = {}

    def coeff_grads(g):
        # H per direction, computed once per incoming gradient: backward
        # hands the same g object to the x-vjp and every theta-vjp
        if memo.get("g") is not g:
            work = np.empty_like(g)
            hs = []
            for (phi, _, inv_norm, _), kbs in zip(dirs, bands):
                h = np.zeros((n_scale, k, g.shape[1]), g.dtype)
                for j, kb in enumerate(kbs):
                    np.multiply(g, inv_norm[j], out=work)
                    np.matmul(phi[:, :kb].T, work, out=h[j, :kb])
                hs.append(h)
            memo["g"], memo["h"] = g, hs
        return memo["h"]

    def vjp_x(g):
        gx = np.zeros(x_shape, dtype)
        for (phi, resp, _, theta), h, kbs in zip(dirs, coeff_grads(g),
                                                 bands):
            acc = np.zeros((k, x_shape[1]), dtype)              # (K, D)
            for j, kb in enumerate(kbs):
                acc[:kb] += resp[j, :kb, None] * (h[j, :kb] @ theta[j].T)
            gx += mass[:, None] * (phi @ acc)
        return gx

    def make_vjp_theta(m, j):
        kb = bands[m, j]
        return lambda g: scaled[m][j, :kb].T @ coeff_grads(g)[m][j, :kb]

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
