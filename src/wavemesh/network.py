"""Trainable correspondence pipeline.

A per-vertex encoder (two affine+SELU stages on raw xyz) feeds a stack of
multi-scale anisotropic wavelet convolution layers; each layer combines
the L1-normalized filtered feature maps over all (direction, scale) pairs
with learnable mixing matrices, then applies SELU and a per-shape feature
standardization with learnable affine. An optional perturbation stage - a
fixed seeded permutation of vertex rows with a learnable per-feature
scale - sits between the last conv layer and the classifier head.
Training fuses the head with its softmax cross entropy
(``autodiff.linear_softmax_cross_entropy``), so the N x C logits are never
materialized there. All training math runs in float64 by default. The
float32 mode keeps parameters, activations and gradients in float32; its
loss curve is tested against float64 to 1e-4 relative.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .autodiff import NORM_EPS, SELU_ALPHA, SELU_SCALE
from .errors import EmptyDataset, NonFiniteLoss, PermutationLengthMismatch

__all__ = [
    "ModelConfig", "Model", "TrainItem", "AdamState", "selu", "norm_forward",
    "amlconv_forward", "perturb_forward", "model_forward", "descriptors",
    "loss_ce", "adam_step", "train",
]


def selu(x):
    """Scaled exponential linear unit (standard constants)."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x > 0, SELU_SCALE * x,
                    SELU_SCALE * SELU_ALPHA * (np.exp(np.minimum(x, 0.0)) - 1.0))


def norm_forward(x, gamma, beta, eps=NORM_EPS):
    """Standardize each feature over the shape's vertices, then scale/shift."""
    t = ad.standardize(ad.constant(x), ad.constant(gamma), ad.constant(beta), eps)
    return t.value


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    point_dim: int = 3
    encoder_dims: tuple = (64, 128)
    conv_layers: int = 4
    directions: int = 4
    scales: int = 4
    perturb: bool = False
    seed: int = 0

    @property
    def feature_dim(self):
        return self.encoder_dims[-1]


class Model:
    """Parameter container; the forward pass lives in module functions.

    ``perms`` maps a vertex count to that resolution's fixed feature-row
    permutation. Each permutation is a pure function of (seed, count), so
    it is identical across batches, epochs and runs; training sets that
    mix resolutions get one fixed shuffle per resolution.
    """

    def __init__(self, config, params, perms=None):
        self.config = config
        self.params = params
        self.perms = dict(perms or {})

    def perm_for(self, n_vertices):
        if n_vertices not in self.perms:
            rng = np.random.default_rng([self.config.seed, n_vertices])
            self.perms[n_vertices] = rng.permutation(n_vertices)
        return self.perms[n_vertices]

    @classmethod
    def initialize(cls, config, n_vertices, dtype=np.float64):
        """Seeded init: affine and mixing weights uniform / sqrt(fan_in),
        norm gains 1, shifts 0, perturbation scales 1."""
        rng = np.random.default_rng(config.seed)

        def uniform(fan_in, shape):
            return (rng.uniform(-1.0, 1.0, shape) / np.sqrt(fan_in)).astype(dtype)

        params = {}
        dims = (config.point_dim,) + tuple(config.encoder_dims)
        for i in range(len(dims) - 1):
            params[f"enc{i}.w"] = uniform(dims[i], (dims[i], dims[i + 1]))
            params[f"enc{i}.b"] = np.zeros(dims[i + 1], dtype=dtype)
        d = config.feature_dim
        for layer in range(config.conv_layers):
            for m in range(config.directions):
                for j in range(config.scales):
                    params[f"conv{layer}.theta{m}_{j}"] = uniform(d, (d, d))
            params[f"conv{layer}.gamma"] = np.ones(d, dtype=dtype)
            params[f"conv{layer}.beta"] = np.zeros(d, dtype=dtype)
        if config.perturb:
            params["perturb.scale"] = np.ones(d, dtype=dtype)
            params["perturb.gamma"] = np.ones(d, dtype=dtype)
            params["perturb.beta"] = np.zeros(d, dtype=dtype)
        params["head.w"] = uniform(d, (d, config.n_classes))
        params["head.b"] = np.zeros(config.n_classes, dtype=dtype)
        model = cls(config, params)
        if config.perturb:
            model.perm_for(n_vertices)
        return model

    @property
    def parameter_count(self):
        return int(sum(p.size for p in self.params.values()))


def _head_input(model, coords, bank, params_t, perturb):
    """(input of the classifier head, output of the last conv layer)."""
    cfg = model.config
    x = ad.constant(np.asarray(coords))
    n_enc = len(cfg.encoder_dims)
    for i in range(n_enc):
        x = ad.selu(ad.affine(x, params_t[f"enc{i}.w"], params_t[f"enc{i}.b"]))
    for layer in range(cfg.conv_layers):
        thetas = [[params_t[f"conv{layer}.theta{m}_{j}"]
                   for j in range(cfg.scales)] for m in range(cfg.directions)]
        z = ad.wavelet_mix(x, thetas, bank)
        x = ad.standardize(ad.selu(z), params_t[f"conv{layer}.gamma"],
                           params_t[f"conv{layer}.beta"])
    features = x
    if perturb:
        if "perturb.scale" not in params_t:
            raise PermutationLengthMismatch("model has no perturbation stage")
        xp = ad.gather_rows(x, model.perm_for(x.value.shape[0]))
        x = ad.standardize(ad.selu(ad.mul(xp, params_t["perturb.scale"])),
                           params_t["perturb.gamma"], params_t["perturb.beta"])
    return x, features


def _tape_forward(model, coords, bank, params_t, perturb):
    """(logits, output of the last conv layer)."""
    x, features = _head_input(model, coords, bank, params_t, perturb)
    return ad.affine(x, params_t["head.w"], params_t["head.b"]), features


def _wrap_params(model, requires_grad):
    return {k: ad.Tensor(v, requires_grad=requires_grad)
            for k, v in model.params.items()}


def model_forward(model, coords, bank, perturb=None):
    """Logits (n_vertices x n_classes); softmax is applied inside the loss."""
    if perturb is None:
        perturb = model.config.perturb
    logits, _ = _tape_forward(model, coords, bank, _wrap_params(model, False),
                              perturb)
    return logits.value


def descriptors(model, coords, bank, mode="features"):
    """Per-vertex matching descriptors.

    "features": output of the last conv layer (works on any mesh).
    "softmax": class probabilities (requires the training vertex count
    when the model has a perturbation stage).
    """
    params_t = _wrap_params(model, False)
    if mode == "features":
        _, features = _head_input(model, coords, bank, params_t,
                                  perturb=False)
        return features.value
    if mode == "softmax":
        logits, _ = _tape_forward(model, coords, bank, params_t,
                                  perturb=model.config.perturb)
        z = logits.value - logits.value.max(axis=1, keepdims=True)
        e = np.exp(z)
        return e / e.sum(axis=1, keepdims=True)
    raise ValueError(f"unknown descriptor mode {mode!r}")


def amlconv_forward(thetas, gamma, beta, x, bank):
    """One multi-scale conv layer on a plain array (no gradients)."""
    thetas_t = [[ad.constant(t) for t in row] for row in thetas]
    z = ad.wavelet_mix(ad.constant(np.asarray(x, dtype=np.float64)), thetas_t,
                       bank)
    out = ad.standardize(ad.selu(z), ad.constant(gamma), ad.constant(beta))
    return out.value


def perturb_forward(perm, scale, gamma, beta, x):
    """Fixed row shuffle + learnable per-feature scale + SELU + Norm."""
    x = np.asarray(x, dtype=np.float64)
    perm = np.asarray(perm)
    if perm.shape[0] != x.shape[0]:
        raise PermutationLengthMismatch(
            f"permutation over {perm.shape[0]} rows, feature map has {x.shape[0]}")
    shuffled = x[perm]
    return norm_forward(selu(shuffled * scale), gamma, beta)


def loss_ce(logits, labels):
    """Mean cross entropy and its analytic gradient wrt the logits."""
    t = ad.param(np.asarray(logits, dtype=np.float64))
    loss = ad.softmax_cross_entropy(t, labels)
    ad.backward(loss)
    return float(loss.value), t.grad


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def adam_step(params, grads, state, lr=0.001, weight_decay=0.0001,
              beta1=0.9, beta2=0.999, eps=1e-8):
    """One Adam step, in place; weight decay is added to the gradient."""
    state.t += 1
    t = state.t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros_like(p)
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        if weight_decay:
            g = g + weight_decay * p
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= beta1
        m += (1 - beta1) * g
        v *= beta2
        v += (1 - beta2) * g * g
        mhat = m / (1 - beta1**t)
        vhat = v / (1 - beta2**t)
        p -= lr * mhat / (np.sqrt(vhat) + eps)


@dataclass(frozen=True)
class TrainItem:
    coords: np.ndarray
    labels: np.ndarray
    bank: object
    name: str = ""


def train(model, items, epochs, lr=0.001, weight_decay=0.0001,
          beta1=0.9, beta2=0.999, eps=1e-8, on_epoch=None):
    """Full-shape batches: one optimizer step per shape per epoch, shapes
    visited in dataset order. Returns [(epoch, mean loss, mean accuracy)].
    """
    items = list(items)
    if not items:
        raise EmptyDataset("no training shapes")
    state = AdamState()
    history = []
    for epoch in range(1, epochs + 1):
        losses = []
        accs = []
        for item in items:
            params_t = _wrap_params(model, True)
            x, _ = _head_input(model, item.coords, item.bank, params_t,
                               perturb=model.config.perturb)
            loss, correct = ad.linear_softmax_cross_entropy(
                x, params_t["head.w"], params_t["head.b"], item.labels)
            if not np.isfinite(loss.value):
                raise NonFiniteLoss(
                    f"loss became {loss.value} at epoch {epoch} on "
                    f"{item.name or 'unnamed shape'}")
            ad.backward(loss)
            grads = {k: t.grad for k, t in params_t.items() if t.grad is not None}
            adam_step(model.params, grads, state, lr=lr,
                      weight_decay=weight_decay, beta1=beta1, beta2=beta2,
                      eps=eps)
            losses.append(float(loss.value))
            accs.append(correct / len(item.labels))
        history.append((epoch, float(np.mean(losses)), float(np.mean(accs))))
        if on_epoch is not None:
            on_epoch(model, epoch)
    return history
