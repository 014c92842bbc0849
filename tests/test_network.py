import dataclasses
import functools
import gc
import re
import weakref

import numpy as np
import pytest

import wavemesh as wm
from wavemesh import autodiff as ad
from wavemesh import network as nw
from wavemesh.errors import EmptyDataset, NonFiniteLoss
from wavemesh.mesh import TriMesh
from wavemesh.wavelets import KernelSpec, build_filterbank, dense_filter_matrix

from .conftest import build_bank_for, jittered_grid, traced_held, traced_peak


@pytest.fixture(scope="module")
def setup():
    # translated off the origin so no vertex feeds exact zeros into the
    # encoder (finite differencing must stay away from the SELU kink)
    base = jittered_grid(5, 5, seed=20)  # 36 vertices
    mesh = TriMesh(base.vertices + np.array([0.3, 0.2, 0.1]),
                   base.faces.copy())
    bank = build_bank_for(mesh, k=14, directions=2, alpha=50.0, scales=2)
    return mesh, bank


def small_model(perturb, n, seed=7):
    cfg = nw.ModelConfig(n_classes=n, encoder_dims=(8, 8), conv_layers=2,
                         directions=2, scales=2, perturb=perturb, seed=seed)
    return nw.Model.initialize(cfg)


def selu(x):
    return ad.selu(np.asarray(x, dtype=np.float64))[0]


def norm_selu(x, gamma, beta):
    """SELU then per-feature standardization with affine, as after every
    conv layer and in the perturbation stage."""
    return ad.selu_standardize(x, gamma, beta)[0]


def ce_loss(logits, labels):
    """Mean cross entropy and its gradient wrt the logits."""
    return ad.softmax_cross_entropy(np.asarray(logits, dtype=np.float64),
                                    labels)


class TestSelu:
    def test_values(self):
        assert selu(0.0) == 0.0
        assert abs(selu(1.0) - 1.05070098) < 1e-12
        assert abs(selu(-20.0) + 1.75809934) < 1e-7

    def test_elementwise(self):
        x = np.array([[-1.0, 0.0], [2.0, -3.0]])
        out = selu(x)
        assert out.shape == x.shape
        assert out[0, 1] == 0.0

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_in_place_form_matches_the_where_form_bit_for_bit(self, dtype):
        # selu writes into the arrays it keeps; the values and the back
        # stay those of the np.where form, 0-d inputs included
        rng = np.random.default_rng(4)
        a, b = ad.SELU_SCALE, ad.SELU_SCALE * ad.SELU_ALPHA
        for x in (np.asarray(0.0, dtype), np.asarray(-20.0, dtype),
                  np.asarray(1.0, dtype),
                  (rng.standard_normal((7, 5)) * 3).astype(dtype)):
            g = np.full_like(x, 0.7) if x.ndim == 0 else rng.standard_normal(
                x.shape).astype(dtype)
            expx = np.exp(np.minimum(x, 0.0))
            want = np.where(x > 0, a * x, b * (expx - 1.0))
            want_dx = g * np.where(x > 0, a, b * expx)
            value, back = ad.selu(x)
            dx, _ = back(g)
            for got, ref in ((value, want), (dx, want_dx)):
                assert got.shape == x.shape and got.dtype == dtype
                assert np.array_equal(got, ref)


class TestNorm:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 6)) * 3 + 1
        out = norm_selu(x, np.ones(6), np.zeros(6))
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    def test_constant_column_maps_to_beta(self):
        x = np.full((10, 2), 3.3)
        beta = np.array([0.5, -1.0])
        out = norm_selu(x, np.ones(2), beta)
        assert np.abs(out - beta).max() < 1e-8


class TestAmlconvForward:
    """One conv layer as the network runs it: norm(selu(wavelet_mix))."""

    def conv(self, thetas, gamma, beta, x, bank):
        z, _ = ad.wavelet_mix(x, thetas, ad.MixBank.of(bank, x.dtype))
        return norm_selu(z, gamma, beta)

    def test_zero_weights_give_beta(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        thetas = [[np.zeros((3, 4)) for _ in range(2)] for _ in range(2)]
        beta = np.array([1.0, -2.0, 0.0, 3.0])
        x = np.random.default_rng(1).standard_normal((n, 3))
        out = self.conv(thetas, np.ones(4), beta, x, bank)
        assert np.abs(out - beta).max() < 1e-12

    def test_single_filter_identity_matches_hand_pipeline(self, setup):
        # theta_00 = I and every other mixing matrix 0 leaves filter (0, 0)
        mesh, bank = setup
        n = mesh.n_vertices
        rng = np.random.default_rng(2)
        x = rng.standard_normal((n, 5))
        thetas = [[np.eye(5), np.zeros((5, 5))], [np.zeros((5, 5))] * 2]
        gamma, beta = np.ones(5), np.zeros(5)
        got = self.conv(thetas, gamma, beta, x, bank)

        z = dense_filter_matrix(bank, 0, 0, normalized=True).T @ x
        s = np.where(z > 0, 1.05070098 * z,
                     1.05070098 * 1.67326324 * (np.exp(np.minimum(z, 0)) - 1))
        want = (s - s.mean(axis=0)) / np.sqrt(s.var(axis=0) + 1e-5)
        assert np.abs(got - want).max() < 1e-12


def head_logits(model, coords, bank):
    """Logits of the classifier head on the perturbed head input."""
    x = nw._head_input(model, coords, lambda: bank, perturb=True)
    return ad.affine(x, model.params["head.w"], model.params["head.b"])[0]


class TestModelForward:
    def test_deterministic_and_shaped(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        a = small_model(True, n)
        b = small_model(True, n)
        la = head_logits(a, mesh.vertices, bank)
        lb = head_logits(b, mesh.vertices, bank)
        assert la.shape == (n, n)
        assert np.array_equal(la, lb)

    def test_perturbation_stage_composition(self, setup):
        # unit scales: the perturbed head input is the descriptors
        # followed by one extra norm(selu(.)) stage
        mesh, bank = setup
        n = mesh.n_vertices
        model = small_model(True, n)
        feats = nw.descriptors(model, mesh.vertices, lambda: bank)
        extra = norm_selu(feats, model.params["perturb.gamma"],
                          model.params["perturb.beta"])
        want = extra @ model.params["head.w"] + model.params["head.b"]
        got = head_logits(model, mesh.vertices, bank)
        assert np.abs(got - want).max() < 1e-12


@pytest.fixture(scope="module")
def grid441():
    """A shape large enough that N-sized arrays dominate traced memory."""
    mesh = jittered_grid(20, 20, seed=3)  # 441 vertices
    bank = build_bank_for(mesh, k=30, directions=2, alpha=50.0, scales=2)
    return mesh, bank


class TestPeakMemory:
    def test_training_holds_one_step_graph_at_a_time(self, grid441):
        # measured: one step peaks at 1.04 MB, two at 1.08 MB (ratio 1.04).
        # With step 1's graph still referenced during step 2's forward they
        # were 2.32 and 3.80 MB (ratio 1.64).
        mesh, bank = grid441
        n = mesh.n_vertices
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n) % 8,
                            load_bank=lambda: bank)
        cfg = nw.ModelConfig(n_classes=8, encoder_dims=(8, 16), conv_layers=2,
                             directions=2, scales=2, perturb=True, seed=0)
        peaks = []
        for steps in (1, 2):
            model = nw.Model.initialize(cfg)
            peaks.append(traced_peak(
                lambda: nw.train(model, [item], epochs=steps))[0])
        assert peaks[1] < 1.25 * peaks[0], peaks

    def test_step_with_four_scales_peaks_below_twelve_feature_maps(self):
        # one step of a 2-layer network with 4 directions x 4 scales and
        # the perturbation stage, after a first step made Adam's moments.
        # Measured in N x D float64 maps: 8.9 when no tape entry keeps what
        # another can form again, the head steps before the backward, the
        # logit block holds 128 rows and the backs use their kept inputs
        # as scratch; 10.2 when the head writes dx over its input and the
        # fused back forms g * gamma in g; 11.2 when SELU and standardize
        # are one op whose back keeps only its input; 12.7 with the two ops
        # apart, each back keeping only what it reads and SELU, standardize
        # and Adam writing in place; 15.2 with a J x K x D array per
        # direction on the tape and the np.where SELU, out-of-place
        # standardize and Adam
        mesh = jittered_grid(20, 20, seed=3)  # 441 vertices
        bank = build_bank_for(mesh, k=30, directions=2, alpha=50.0, scales=4)
        n, d = mesh.n_vertices, 64
        model = nw.Model.initialize(nw.ModelConfig(
            n_classes=8, encoder_dims=(8, d), conv_layers=2, directions=2,
            scales=4, perturb=True, seed=0))
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n) % 8,
                            load_bank=lambda: bank)
        state = nw.AdamState()
        nw._train_step(model, item, state, 1, 0.001, 0.0001)
        peak, _ = traced_peak(
            lambda: nw._train_step(model, item, state, 2, 0.001, 0.0001))
        assert peak < 9 * n * d * 8, peak / (n * d * 8)

    def test_conv_layer_tape_holds_projections_and_one_map(self):
        # the tape of a forward with 1 and then 4 conv layers: each extra
        # layer holds its M K x D projections and one N x D array, and
        # reads the normalizer reciprocals and responses from the one
        # MixBank of the forward. Measured per layer: 69.3 kB against
        # 66.6 kB of projections and map, and 99.8 kB when each layer kept
        # its own J x N reciprocals and J x K responses per direction
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        n_dir, k, d = 2, 60, 16
        bank = build_bank_for(mesh, k=k, directions=n_dir, alpha=50.0,
                              scales=4)
        n = mesh.n_vertices
        held = []
        for layers in (1, 4):
            model = nw.Model.initialize(nw.ModelConfig(
                n_classes=8, encoder_dims=(16, d), conv_layers=layers,
                directions=n_dir, scales=4, seed=0))

            def forward():
                tape = []
                x = nw._head_input(model, mesh.vertices, lambda: bank, False,
                                   tape)
                return x, tape

            held.append(traced_held(forward)[0])
        per_layer = (held[1] - held[0]) / 3
        assert per_layer < (n_dir * k * d + n * d) * 8 + 8192, per_layer

    def test_step_frees_the_head_gradient_once_the_first_back_ran(
            self, setup, monkeypatch):
        # the head writes dx over its input, and the perturbation stage's
        # selu_standardize, the tape's last op and the one with a scale,
        # consumes it; by the time the next back, the last conv layer's
        # selu_standardize, runs, nothing may hold dx any more
        mesh, bank = setup
        n = mesh.n_vertices
        dx_refs, freed, scaled_ran = [], [], []
        head, op = ad.linear_softmax_cross_entropy, ad.selu_standardize

        def spy_head(*args):
            out = head(*args)
            dx_refs.append(weakref.ref(out[2]))
            return out

        def spy_op(x, *params):
            value, back = op(x, *params)

            def checked(g):
                if scaled_ran and not freed:
                    freed.append(dx_refs[-1]() is None)
                out = back(g)
                if len(params) == 3:
                    scaled_ran.append(True)
                return out

            return value, checked

        monkeypatch.setattr(ad, "linear_softmax_cross_entropy", spy_head)
        monkeypatch.setattr(ad, "selu_standardize", spy_op)
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n),
                            load_bank=lambda: bank)
        nw._train_step(small_model(True, n), item, nw.AdamState(), 1,
                       0.001, 0.0001)
        assert freed == [True]

    def test_training_holds_one_bank_at_a_time(self, setup):
        # each load_bank call returns a new bank object, as a cache read
        # does; with gc off, an earlier bank still alive at the next call
        # is referenced from somewhere, not merely awaiting collection.
        # A FilterBank is unhashable, so the banks are weak dict values
        mesh, bank = setup
        n = mesh.n_vertices
        alive = weakref.WeakValueDictionary()
        alive_at_load = []

        def load_bank():
            alive_at_load.append(len(alive))
            fresh = dataclasses.replace(bank)
            alive[len(alive_at_load)] = fresh
            return fresh

        items = [nw.TrainItem(coords=mesh.vertices + shift,
                              labels=np.arange(n), load_bank=load_bank)
                 for shift in (0.0, 0.01, 0.02)]
        gc.disable()
        try:
            nw.train(small_model(True, n), items, epochs=2)
        finally:
            gc.enable()
        assert alive_at_load == [0] * 6
        assert len(alive) == 0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_no_loaded_bank_outlives_its_cast(self, setup, monkeypatch,
                                              dtype):
        # the forward casts the bank its loader returns into its MixBank
        # and drops it: when the first wavelet_mix runs, with gc off, the
        # loaded FilterBank is referenced from nowhere, and in float32
        # neither is its float64 basis (float64 shares it with the
        # MixBank), in descriptors as in a step
        mesh, bank = setup
        n = mesh.n_vertices
        loaded, dead_at_first_mix = [], []
        mix = ad.wavelet_mix

        def load_bank():
            fresh = dataclasses.replace(bank, basis=bank.basis.copy())
            owned = [fresh]
            if dtype == np.float32:
                owned.append(fresh.basis)
            loaded.append([weakref.ref(obj) for obj in owned])
            return fresh

        def spy(*args):
            if len(dead_at_first_mix) < len(loaded):
                dead_at_first_mix.append(
                    [ref() is None for ref in loaded[-1]])
            return mix(*args)

        monkeypatch.setattr(ad, "wavelet_mix", spy)
        model = small_model(True, n)
        model = nw.Model(model.config, {name: value.astype(dtype)
                                        for name, value in
                                        model.params.items()})
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n),
                            load_bank=load_bank)
        gc.disable()
        try:
            nw.descriptors(model, mesh.vertices, load_bank)
            nw._train_step(model, item, nw.AdamState(), 1, 0.001, 0.0001)
        finally:
            gc.enable()
        owned = 2 if dtype == np.float32 else 1
        assert dead_at_first_mix == [[True] * owned] * 2


class TestLoss:
    def test_uniform_logits(self):
        loss, _ = ce_loss(np.zeros((10, 7)), np.arange(7).repeat(2)[:10])
        assert abs(loss - np.log(7)) < 1e-12

    def test_margin_drives_loss_to_zero(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3) * 20.0
        loss, _ = ce_loss(logits, labels)
        assert loss < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        loss, grad = ce_loss(logits, labels)
        h = 1e-5
        for i in range(6):
            for j in range(4):
                p = logits.copy()
                p[i, j] += h
                m = logits.copy()
                m[i, j] -= h
                fd = (ce_loss(p, labels)[0] - ce_loss(m, labels)[0]) / (2 * h)
                assert abs(fd - grad[i, j]) < 1e-5 * max(1.0, abs(fd))


class TestAdam:
    def test_zero_gradient_no_decay_keeps_params(self):
        params = {"w": np.ones((2, 2))}
        state = nw.AdamState()
        nw.adam_step(params, {"w": np.zeros((2, 2))}, state, weight_decay=0.0)
        assert np.array_equal(params["w"], np.ones((2, 2)))

    def test_first_step_bounded_by_lr(self):
        rng = np.random.default_rng(6)
        params = {"w": rng.standard_normal((3, 3))}
        before = params["w"].copy()
        nw.adam_step(params, {"w": rng.standard_normal((3, 3)) * 100},
                     nw.AdamState(), lr=0.01, weight_decay=0.0)
        assert np.abs(params["w"] - before).max() <= 0.01 * (1 + 1e-6)

    def test_two_steps_against_hand_computation(self):
        # f(p) = p^2 from p=1, plain Adam without decay
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        p, m, v = 1.0, 0.0, 0.0
        trace = []
        for t in (1, 2):
            g = 2 * p
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(p)

        params = {"p": np.array([1.0])}
        state = nw.AdamState()
        for _ in range(2):
            grad = {"p": 2 * params["p"]}
            nw.adam_step(params, grad, state, lr=lr, weight_decay=0.0)
        assert abs(params["p"][0] - trace[-1]) < 1e-12
        assert params["p"][0] ** 2 < 1.0  # objective decreased

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nw.adam_step({"w": np.ones(3)}, {"w": np.ones(4)}, nw.AdamState())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("weight_decay", [0.0, 0.0001])
    def test_steps_match_the_allocating_formula_bit_for_bit(self, dtype,
                                                            weight_decay):
        # the formula with a fresh array per term, as numpy evaluates it
        rng = np.random.default_rng(8)
        p = rng.standard_normal((5, 7)).astype(dtype)
        params = {"w": p.copy()}
        state = nw.AdamState()
        m = v = np.zeros_like(p)
        b1, b2, lr = nw.ADAM_BETA1, nw.ADAM_BETA2, 0.01
        for t in (1, 2, 3):
            g = rng.standard_normal(p.shape).astype(dtype)
            nw.adam_step(params, {"w": g.copy()}, state, lr=lr,
                         weight_decay=weight_decay)
            if weight_decay:
                g = g + p * weight_decay
            m = m * b1 + g * (1 - b1)
            v = v * b2 + g * (1 - b2) * g
            denom = np.sqrt(v / (1 - b2**t)) + nw.ADAM_EPS
            p = p - m / (1 - b1**t) * lr / denom
            assert params["w"].tobytes() == p.tobytes(), t

    def test_step_consumes_its_gradients(self):
        g = np.full((2, 3), 0.5)
        nw.adam_step({"w": np.ones((2, 3))}, {"w": g}, nw.AdamState())
        assert not np.array_equal(g, np.full((2, 3), 0.5))

    def test_step_takes_one_scratch_array_of_a_parameters_size(self):
        # step 2, so the moments exist. The gradient array holds the
        # decayed gradient and then the update, and one scratch array the
        # other terms; allocating each term anew peaks at 2.0 sizes
        p = np.random.default_rng(9).standard_normal((256, 256))
        params, state = {"w": p}, nw.AdamState()
        nw.adam_step(params, {"w": np.ones_like(p)}, state)
        grads = {"w": np.ones_like(p)}
        peak, _ = traced_peak(lambda: nw.adam_step(params, grads, state))
        assert peak < 1.25 * p.nbytes, peak / p.nbytes

    @pytest.mark.parametrize("grads, named", [
        ({"w": np.ones(3)}, "missing for ['b']"),
        ({"w": np.ones(3), "b": np.ones(2), "c": np.ones(1)},
         "extra for ['c']"),
    ], ids=["missing", "extra"])
    def test_gradient_per_parameter_required(self, grads, named):
        # weight decay would move a parameter whose gradient the tape lost
        params = {"w": np.ones(3), "b": np.ones(2)}
        state = nw.AdamState()
        with pytest.raises(ValueError, match=re.escape(named)):
            nw.adam_step(params, grads, state)
        assert np.array_equal(params["w"], np.ones(3))
        assert np.array_equal(params["b"], np.ones(2)) and state.t == 0

    def test_train_step_takes_one_adam_step(self, setup):
        # the step moves the head's parameters before the backward and
        # the rest after it: together one Adam step over every gradient
        mesh, bank = setup
        n = mesh.n_vertices
        labels = np.arange(n)
        item = nw.TrainItem(coords=mesh.vertices, labels=labels,
                            load_bank=lambda: bank)
        model, ref = small_model(True, n), small_model(True, n)
        state, ref_state = nw.AdamState(), nw.AdamState()
        for step in (1, 2):
            nw._train_step(model, item, state, 1, 0.001, 0.0001)
            tape = []
            _, dx, grads = training_loss(ref, mesh.vertices, labels, bank,
                                         tape)
            grads.update(ad.backward(tape, dx))
            nw.adam_step(ref.params, grads, ref_state, lr=0.001,
                         weight_decay=0.0001)
            assert state.t == step
            for name, p in ref.params.items():
                assert model.params[name].tobytes() == p.tobytes(), name


class TestTraining:
    def test_overfit_small_sphere(self, ico1):
        bank = build_bank_for(ico1, k=20, directions=2, alpha=50.0, scales=3)
        n = ico1.n_vertices
        cfg = nw.ModelConfig(n_classes=n, encoder_dims=(16, 32), conv_layers=2,
                             directions=2, scales=3, perturb=True, seed=0)
        model = nw.Model.initialize(cfg)
        item = nw.TrainItem(coords=ico1.vertices, labels=np.arange(n),
                            load_bank=lambda: bank, name="ico1")
        history = nw.train(model, [item], epochs=60)
        assert len(history) == 60
        assert all(np.isfinite(h[1]) for h in history)
        assert history[-1][2] > 0.9  # memorizes a 42-vertex sphere
        assert history[-1][1] < history[0][1]

    def test_seeded_training_reproducible(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n),
                            load_bank=lambda: bank, name="grid")

        def run():
            model = small_model(True, n)
            return nw.train(model, [item], epochs=4)

        assert run() == run()

    def test_renumbering_a_training_shape_leaves_training_unchanged(self):
        # a training shape renumbered with its labels states the same
        # correspondence, so every op before the head, the perturbation
        # stage included, must treat its vertices alike; renumbering
        # reorders the sums over vertices, so float64 losses agree to
        # round-off (measured 1.3e-13), and the trained parameters to
        # 1e-9 (1.8e-11). Each copy's spectra are solved on their own,
        # under one kernel pinned to the first, as training pins it
        mesh = wm.gen_base("bar", 2)
        n = mesh.n_vertices
        perm = np.random.default_rng(0).permutation(n)
        renumbered = TriMesh(mesh.vertices[perm], np.argsort(perm)[mesh.faces])
        kernel = None
        runs = []
        for shape, labels in ((mesh, np.arange(n)), (renumbered, perm)):
            frames = wm.estimate_frames(shape)
            spectra = [wm.solve_eigs(wm.assemble_albo(shape, frames, 50.0, t),
                                     shape.mass, 20)
                       for t in wm.direction_angles(4)]
            kernel = kernel or KernelSpec.mexican_hat(
                max(s.lambda_max for s in spectra), 2)
            bank = build_filterbank(spectra, kernel)
            cfg = nw.ModelConfig(n_classes=n, encoder_dims=(8, 8),
                                 conv_layers=1, directions=4, scales=2,
                                 perturb=True)
            model = nw.Model.initialize(cfg, np.float64)
            item = nw.TrainItem(coords=shape.vertices, labels=labels,
                                load_bank=lambda bank=bank: bank)
            history = nw.train(model, [item], epochs=5)
            runs.append((np.array([h[1] for h in history]), model))
        (base, base_model), (again, again_model) = runs
        np.testing.assert_allclose(again, base, rtol=1e-9, atol=0)
        for name, value in base_model.params.items():
            np.testing.assert_allclose(again_model.params[name], value,
                                       rtol=0, atol=1e-9, err_msg=name)

    def test_empty_dataset(self, setup):
        model = small_model(False, 36)
        with pytest.raises(EmptyDataset):
            nw.train(model, [], epochs=1)

    def test_non_finite_loss_aborts(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        model = small_model(False, n)
        model.params["head.w"][0, 0] = np.nan
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n),
                            load_bank=lambda: bank, name="grid")
        with pytest.raises(NonFiniteLoss):
            nw.train(model, [item], epochs=1)


class TestFloat32:
    def test_float32_training_stays_float32_and_tracks_float64(self,
                                                               monkeypatch):
        mesh = jittered_grid(6, 5)
        bank = build_bank_for(mesh, k=14, directions=2, alpha=50.0, scales=2)
        n = mesh.n_vertices
        grad_dtypes = set()
        adam = nw.adam_step

        def spy(params, grads, state, **kwargs):
            grad_dtypes.update(g.dtype for g in grads.values())
            return adam(params, grads, state, **kwargs)

        monkeypatch.setattr(nw, "adam_step", spy)
        histories = {}
        for dtype in (np.float32, np.float64):
            cfg = nw.ModelConfig(n_classes=n, encoder_dims=(8, 8),
                                 conv_layers=2, directions=2, scales=2,
                                 perturb=True, seed=3)
            model = nw.Model.initialize(cfg, dtype=dtype)
            item = nw.TrainItem(coords=mesh.vertices.astype(dtype),
                                labels=np.arange(n), load_bank=lambda: bank)
            grad_dtypes.clear()
            histories[dtype] = nw.train(model, [item], epochs=5)
            assert grad_dtypes == {np.dtype(dtype)}
            assert all(p.dtype == dtype for p in model.params.values())
        loss32 = np.array([h[1] for h in histories[np.float32]])
        loss64 = np.array([h[1] for h in histories[np.float64]])
        assert np.abs(loss32 / loss64 - 1).max() < 1e-4

    def test_float32_layers_share_one_cast_of_the_eigenvectors(self):
        # the tape of a float32 forward with 1 and then 4 conv layers: each
        # extra layer must hold less than one float32 copy of the bank's
        # eigenvectors (M N K 4 bytes, 188 KiB here). Measured per layer:
        # 81 KiB when the forward casts the bank once, 270 KiB when every
        # wavelet_mix keeps a float32 copy of its own
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        n_dir, k = 2, 60
        bank = build_bank_for(mesh, k=k, directions=n_dir, alpha=50.0,
                              scales=4)
        n = mesh.n_vertices
        coords = mesh.vertices.astype(np.float32)
        held = []
        for layers in (1, 4):
            model = nw.Model.initialize(nw.ModelConfig(
                n_classes=8, encoder_dims=(16, 16), conv_layers=layers,
                directions=n_dir, scales=4, seed=0), dtype=np.float32)

            def forward():
                tape = []
                x = nw._head_input(model, coords, lambda: bank, False, tape)
                return x, tape

            nbytes, (x, _) = traced_held(forward)
            assert x.dtype == np.float32
            held.append(nbytes)
        per_layer = (held[1] - held[0]) / 3
        assert per_layer < n_dir * n * k * 4, per_layer


def training_loss(model, coords, labels, bank, tape=None):
    """The loss `_train_step` differentiates, through the perturbation
    stage and the fused head, with the head's gradient for its input and
    its parameter gradients by name. With a `tape`, records the ops before
    the head on it."""
    x = nw._head_input(model, coords, lambda: bank, True, tape)
    loss, _, dx, (dw, db) = ad.linear_softmax_cross_entropy(
        x, model.params["head.w"], model.params["head.b"], labels)
    return loss, dx, {"head.w": dw, "head.b": db}


def selu_inputs(forward):
    """forward()'s result, and every array fed to SELU while it ran, alone
    or fused with an affine or a standardization, in call order."""
    inputs = []
    origs = {name: getattr(ad, name)
             for name in ("selu", "selu_affine", "selu_standardize")}

    def spy(a, *params, op):
        # a selu_standardize with a scale feeds SELU its input times it
        inputs.append(a * params[2] if len(params) == 3 else a.copy())
        return op(a, *params)

    for name, op in origs.items():
        setattr(ad, name, functools.partial(spy, op=op))
    try:
        out = forward()
    finally:
        for name, op in origs.items():
            setattr(ad, name, op)
    return out, inputs


class TestFullGradient:
    def test_every_parameter_matches_finite_differences(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        model = small_model(True, n, seed=11)
        labels = np.arange(n)
        h = 5e-5

        def loss_and_selu_inputs():
            (loss, _, _), inputs = selu_inputs(lambda: training_loss(
                model, mesh.vertices, labels, bank))
            return loss, inputs

        # finite differencing is only valid when the step cannot cross the
        # SELU kink: every SELU input must be farther from 0 than the step
        _, base_inputs = loss_and_selu_inputs()
        # one SELU per encoder stage and conv layer, one in the perturbation
        cfg = model.config
        assert len(base_inputs) == len(cfg.encoder_dims) + cfg.conv_layers + 1
        assert min(float(np.abs(a).min()) for a in base_inputs) > 2 * h

        tape = []
        f0, dx, grads = training_loss(model, mesh.vertices, labels, bank,
                                      tape)
        grads.update(ad.backward(tape, dx))
        assert set(grads) == set(model.params)

        # The margin above bounds the SELU inputs against a parameter step,
        # but a standardize can move them by more than that step. So every
        # evaluation also checks that no SELU input changed side of the kink.
        base_signs = [a > 0 for a in base_inputs]

        def loss_value(name, i):
            value, inputs = loss_and_selu_inputs()
            assert all(np.array_equal(a > 0, s)
                       for a, s in zip(inputs, base_signs)), (name, i)
            return value

        def central(flat, name, i, step):
            orig = flat[i]
            flat[i] = orig + step
            fp = loss_value(name, i)
            flat[i] = orig - step
            fm = loss_value(name, i)
            flat[i] = orig
            return (fp - fm) / (2 * step)

        # Richardson extrapolation (4 D(h/2) - D(h)) / 3 cancels the O(h^2)
        # truncation term of the central difference D, which is larger than
        # 1e-4 relative on small gradients (2.1e-4 on enc1.w[45] at h=5e-5).
        #
        # Some true gradients are exactly zero: conv0.beta, and enc1.b
        # entries whose column stays on the linear side of SELU. Both shift
        # a feature by a constant, and the next wavelet layer removes
        # constants because kernel_g(0) = 0. There the tape gives ~1e-16 and
        # the difference quotient only sees round-off, so the check carries
        # an absolute term. It is the round-off bound of the extrapolation,
        # not a free choice: a loss error of d per evaluation becomes at most
        # (4 * 2d/h + d/h) / 3 = 3d/h, and with d of about 5 eps |f| (the
        # observed noise is 1-2 ulps of |f|) that is 16 eps |f| / h.
        atol = 16 * np.finfo(np.float64).eps * abs(f0) / h

        rng = np.random.default_rng(0)
        for name, grad in grads.items():
            flat = model.params[name].reshape(-1)
            gflat = grad.reshape(-1)
            idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idx:
                r = (4 * central(flat, name, i, h / 2)
                     - central(flat, name, i, h)) / 3
                g = gflat[i]
                assert abs(r - g) <= 1e-4 * max(abs(r), abs(g)) + atol, (
                    name, i, r, g)
