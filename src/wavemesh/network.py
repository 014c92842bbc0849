"""Trainable correspondence pipeline.

A per-vertex encoder (two affine+SELU stages on raw xyz) feeds a stack of
multi-scale anisotropic wavelet convolution layers; each layer combines
the L1-normalized filtered feature maps over all (direction, scale) pairs
with learnable mixing matrices, then applies SELU and a per-shape feature
standardization with learnable affine. The last conv layer's output is
the per-vertex matching descriptor. A classifier head over the template
vertices trains it; an optional perturbation stage - a learnable
per-feature scale, SELU and a per-shape standardization with learnable
affine - sits between the last conv layer and the head, so it shapes
training only and never runs on a described mesh.
The tape keeps nothing that an op can form again bit for bit. Each
encoder SELU but the last is one op with the next stage's affine
(``autodiff.selu_affine``), whose back keeps SELU's input. Each SELU
followed by a standardization, in a conv layer or in the perturbation
stage, is one op (``autodiff.selu_standardize``) whose back keeps only
its input; the perturbation's scale folds into it, and its back forms
x * s again. So a conv layer's tape holds its M K x D projections and one
N x D array, and the perturbation stage one N x D array. One
``autodiff.MixBank`` per forward gives every conv layer the bank's
arrays in the parameters' dtype, with the reciprocal L1 normalizers and
passbands formed once.
Every op before the head commutes with a renumbering of the vertices, so
renumbering a training shape together with its labels leaves training
unchanged.
Training fuses the head with its softmax cross entropy
(``autodiff.linear_softmax_cross_entropy``), so the N x C logits are
never materialized, and differentiates the chain of ops before the head
by running their backs in reverse (``autodiff.backward``). The head writes
its input gradient over its input, and ``backward`` drops each gradient
once the back it feeds has returned. No back reads the head's
parameters, so they take their Adam step right after the head, and its
weight gradient is freed before the backward runs; the other parameters
take theirs after it, at the same step count.
Training holds one step's tape at a time: each optimizer step runs in its
own call, so the next step's forward starts only after this step's bank,
tape, activations and gradients are gone, and memory does not grow with
the number of training shapes. A forward takes its bank as a loader (the
item's ``load_bank``; ``descriptors`` takes one too), calls it once and
keeps only the ``MixBank`` cast from it, so the loaded ``FilterBank`` is
freed before the first conv layer runs. The ``MixBank`` shares the
bank's basis when it is already in the parameters' dtype, as the float32
basis of ``cli``'s banks is for a float32 network, and holds one cast
copy otherwise.

Precision has one owner: the parameters. ``Model.initialize`` makes them in
the dtype it is given, float64 unless told otherwise; ``cli``'s ``train``
always asks for float32, and its ``eval`` runs a float64 checkpoint of
earlier versions in float64 on the same banks, whose float32 basis it
upcasts. ``_head_input``, the one entry point of training steps and
``descriptors``, casts the coordinates and, in its ``MixBank``, the bank's
basis and mass to their dtype (without a copy where they already are in
it), which every conv layer then shares. So float32 keeps parameters,
activations, tape, gradients and Adam moments in float32; its loss curve
is tested against float64 to 1e-4 relative. The spectra and the filter
bank's responses and normalizers stay float64, and so does matching
(``corresp.match_nn`` casts the descriptors).

`ModelConfig` is the network's shape over POINT_DIM = 3 input coordinates.
A checkpoint does not store it: `cli` derives it from the saved experiment
and the length of the head bias.
"""

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import EmptyDataset, NonFiniteLoss

__all__ = [
    "ModelConfig", "Model", "TrainItem", "AdamState", "param_shapes",
    "descriptors", "adam_step", "train",
]


POINT_DIM = 3  # the encoder's input: one vertex's xyz


@dataclass(frozen=True)
class ModelConfig:
    n_classes: int
    encoder_dims: tuple[int, ...] = (64, 128)
    conv_layers: int = 4
    directions: int = 4
    scales: int = 4
    perturb: bool = False
    seed: int = 0


def param_shapes(config):
    """Name -> shape of every parameter of a model with this config, in the
    order ``Model.initialize`` draws them."""
    dims = (POINT_DIM, *config.encoder_dims)
    d = dims[-1]
    shapes = {}
    for i in range(len(dims) - 1):
        shapes[f"enc{i}.w"] = (dims[i], dims[i + 1])
        shapes[f"enc{i}.b"] = (dims[i + 1],)
    for layer in range(config.conv_layers):
        for m in range(config.directions):
            for j in range(config.scales):
                shapes[f"conv{layer}.theta{m}_{j}"] = (d, d)
        shapes[f"conv{layer}.gamma"] = (d,)
        shapes[f"conv{layer}.beta"] = (d,)
    if config.perturb:
        for name in ("scale", "gamma", "beta"):
            shapes[f"perturb.{name}"] = (d,)
    shapes["head.w"] = (d, config.n_classes)
    shapes["head.b"] = (config.n_classes,)
    return shapes


class Model:
    """Parameter container; the forward pass lives in module functions."""

    def __init__(self, config, params):
        self.config = config
        self.params = params

    @classmethod
    def initialize(cls, config, dtype=np.float64):
        """Seeded init: affine and mixing weights uniform / sqrt(fan_in),
        norm gains 1, shifts 0, perturbation scales 1."""
        rng = np.random.default_rng(config.seed)
        params = {}
        for name, shape in param_shapes(config).items():
            if len(shape) == 2:  # affine, mixing and head weights
                params[name] = (rng.uniform(-1.0, 1.0, shape)
                                / np.sqrt(shape[0])).astype(dtype)
            elif name.endswith(("gamma", "scale")):
                params[name] = np.ones(shape, dtype=dtype)
            else:
                params[name] = np.zeros(shape, dtype=dtype)
        return cls(config, params)

    @property
    def parameter_count(self):
        return int(sum(p.size for p in self.params.values()))


def _head_input(model, coords, load_bank, perturb, tape=None):
    """Input of the classifier head: the last conv layer's output, passed
    through the perturbation stage when `perturb` is set. `load_bank` is a
    zero-argument callable that returns the shape's `wavelets.FilterBank`;
    the bank is cast into this forward's ``MixBank`` and dropped there, so
    no reference to it outlives the cast. With a `tape` list, appends
    (back, parameter names) for each op, in forward order."""
    cfg, p = model.config, model.params
    dtype = p["head.w"].dtype
    bank = ad.MixBank.of(load_bank(), dtype)

    def run(names, op, x, *args):
        x, back = op(x, *args)
        if tape is not None:
            tape.append((back, names))
        return x

    x = np.asarray(coords, dtype=dtype)
    # each encoder stage's SELU runs fused with the next stage's affine,
    # whose back forms SELU's output again from its input
    for i in range(len(cfg.encoder_dims)):
        names = (f"enc{i}.w", f"enc{i}.b")
        x = run(names, ad.selu_affine if i else ad.affine, x,
                *[p[n] for n in names])
    x = run((), ad.selu, x)
    for layer in range(cfg.conv_layers):
        thetas = [[f"conv{layer}.theta{m}_{j}" for j in range(cfg.scales)]
                  for m in range(cfg.directions)]
        x = run(sum(thetas, []), ad.wavelet_mix, x,
                [[p[n] for n in row] for row in thetas], bank)
        names = (f"conv{layer}.gamma", f"conv{layer}.beta")
        x = run(names, ad.selu_standardize, x, *[p[n] for n in names])
    if perturb:
        names = ("perturb.gamma", "perturb.beta", "perturb.scale")
        x = run(names, ad.selu_standardize, x, *[p[n] for n in names])
    return x


def descriptors(model, coords, load_bank):
    """Per-vertex matching descriptors: the last conv layer's output, on a
    mesh of any vertex count. `load_bank` returns the mesh's filter bank
    when called, as ``TrainItem.load_bank`` does; a bank already in memory
    is passed as ``lambda: bank``."""
    return _head_input(model, coords, load_bank, perturb=False)


# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0


def _check_gradients(params, grads):
    if grads.keys() != params.keys():
        raise ValueError(
            f"gradients missing for {sorted(params.keys() - grads.keys())}, "
            f"extra for {sorted(grads.keys() - params.keys())}")


def adam_step(params, grads, state, lr=0.001, weight_decay=0.0001):
    """One Adam step with ADAM_BETA1, ADAM_BETA2 and ADAM_EPS, in place;
    weight decay is added to the gradient. `grads` holds one gradient per
    parameter: a missing or an extra name raises ValueError before any
    parameter moves. `grads` is consumed: each parameter's decayed gradient
    and update are formed in its gradient array, beside one scratch array
    of its size, so the gradients hold scratch values on return."""
    _check_gradients(params, grads)
    state.t += 1
    _adam_update(params, grads, state, lr, weight_decay)


def _adam_update(params, grads, state, lr, weight_decay):
    """Adam's update of every parameter in `params` at step state.t, in
    place, consuming `grads` as `adam_step` does. Each parameter's update
    is its own, so one step may update its parameters in parts, one call
    each."""
    t = state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} != parameter shape {p.shape} for {name}")
        work = np.empty_like(p)
        if weight_decay:
            g += np.multiply(p, weight_decay, out=work)
        m = state.m.get(name)
        if m is None:
            m = np.zeros_like(p)
            state.m[name] = m
            state.v[name] = np.zeros_like(p)
        v = state.v[name]
        m *= ADAM_BETA1
        m += np.multiply(g, 1 - ADAM_BETA1, out=work)
        v *= ADAM_BETA2
        np.multiply(g, 1 - ADAM_BETA2, out=work)
        work *= g
        v += work
        # p -= lr * mhat / (sqrt(vhat) + eps), with the corrected moments
        # mhat = m / (1 - beta1^t) and vhat = v / (1 - beta2^t)
        denom = np.divide(v, 1 - ADAM_BETA2**t, out=work)
        np.sqrt(denom, out=denom)
        denom += ADAM_EPS
        update = np.divide(m, 1 - ADAM_BETA1**t, out=g)
        update *= lr
        update /= denom
        p -= update


@dataclass(frozen=True)
class TrainItem:
    """One training shape. `load_bank` is a zero-argument callable that
    returns the shape's `wavelets.FilterBank`; each step's forward calls it
    once and drops the bank as soon as it is cast (``_head_input``), so no
    bank it loads outlives the cast. A bank already in memory is passed as
    ``load_bank=lambda: bank``, which keeps it alive."""

    coords: np.ndarray
    labels: np.ndarray
    load_bank: object
    name: str = ""


def _train_step(model, item, state, epoch, lr, weight_decay):
    """One optimizer step on one shape; returns (loss, correct count).
    The step's bank, tape, activations and gradients die when it returns."""
    p = model.params
    head = {name: p[name] for name in ("head.w", "head.b")}
    rest = {name: a for name, a in p.items() if name not in head}
    tape = []
    # the head overwrites its input with its gradient dx; dx is unpacked
    # into a list and popped into backward, so that no name here holds it
    # and it is freed once the tape's last back has consumed it
    loss, correct, *dx, head_grads = ad.linear_softmax_cross_entropy(
        _head_input(model, item.coords, item.load_bank,
                    model.config.perturb, tape),
        head["head.w"], head["head.b"], item.labels)
    if not np.isfinite(loss):
        raise NonFiniteLoss(
            f"loss became {loss} at epoch {epoch} on "
            f"{item.name or 'unnamed shape'}")
    # One Adam step in two parts. No back reads the head's parameters, so
    # they step now and their gradients die before the backward runs; the
    # rest step after it, at the same step count.
    adam_step(head, dict(zip(head, head_grads)), state, lr=lr,
              weight_decay=weight_decay)
    del head_grads
    grads = ad.backward(tape, dx.pop())
    _check_gradients(rest, grads)
    _adam_update(rest, grads, state, lr, weight_decay)
    return loss, correct


def train(model, items, epochs, lr=0.001, weight_decay=0.0001):
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
            loss, correct = _train_step(model, item, state, epoch, lr,
                                        weight_decay)
            losses.append(loss)
            accs.append(correct / len(item.labels))
        history.append((epoch, float(np.mean(losses)), float(np.mean(accs))))
    return history
