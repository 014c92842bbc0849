import numpy as np
import pytest

import wavemesh as wm
from wavemesh import autodiff as ad
from wavemesh import network as nw
from wavemesh.errors import (
    EmptyDataset,
    NonFiniteLoss,
    PermutationLengthMismatch,
)
from wavemesh.wavelets import apply_filter

from .conftest import build_bank_for, jittered_grid


@pytest.fixture(scope="module")
def setup():
    # translated off the origin so no vertex feeds exact zeros into the
    # encoder (finite differencing must stay away from the SELU kink)
    base = jittered_grid(5, 5, seed=20)  # 36 vertices
    from wavemesh.mesh import TriMesh
    mesh = TriMesh(base.vertices + np.array([0.3, 0.2, 0.1]),
                   base.faces.copy())
    bank = build_bank_for(mesh, k=14, directions=2, alpha=50.0, scales=2,
                          tighten=False)
    return mesh, bank


def small_model(perturb, n, seed=7):
    cfg = nw.ModelConfig(n_classes=n, encoder_dims=(8, 8), conv_layers=2,
                         directions=2, scales=2, perturb=perturb, seed=seed)
    return nw.Model.initialize(cfg, n)


class TestSelu:
    def test_values(self):
        assert nw.selu(0.0) == 0.0
        assert abs(nw.selu(1.0) - 1.05070098) < 1e-12
        assert abs(nw.selu(-20.0) + 1.75809934) < 1e-7

    def test_elementwise(self):
        x = np.array([[-1.0, 0.0], [2.0, -3.0]])
        out = nw.selu(x)
        assert out.shape == x.shape
        assert out[0, 1] == 0.0


class TestNorm:
    def test_standardizes(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((50, 6)) * 3 + 1
        out = nw.norm_forward(x, np.ones(6), np.zeros(6))
        assert np.abs(out.mean(axis=0)).max() < 1e-10
        assert np.abs(out.var(axis=0) - 1.0).max() < 1e-4

    def test_constant_column_maps_to_beta(self):
        x = np.full((10, 2), 3.3)
        beta = np.array([0.5, -1.0])
        out = nw.norm_forward(x, np.ones(2), beta)
        assert np.abs(out - beta).max() < 1e-8


class TestAmlconvForward:
    def test_zero_weights_give_beta(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        thetas = [[np.zeros((3, 4)) for _ in range(2)] for _ in range(2)]
        beta = np.array([1.0, -2.0, 0.0, 3.0])
        x = np.random.default_rng(1).standard_normal((n, 3))
        out = nw.amlconv_forward(thetas, np.ones(4), beta, x, bank)
        assert np.abs(out - beta).max() < 1e-12

    def test_single_filter_identity_matches_hand_pipeline(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        rng = np.random.default_rng(2)
        x = rng.standard_normal((n, 5))
        thetas = [[np.eye(5)]]
        gamma, beta = np.ones(5), np.zeros(5)
        got = nw.amlconv_forward(thetas, gamma, beta, x, bank)
        want = nw.norm_forward(nw.selu(apply_filter(bank, 0, 0, x)), gamma, beta)
        assert np.abs(got - want).max() < 1e-12


class TestPerturbForward:
    def test_identity_permutation_is_plain_norm_selu(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 4))
        out = nw.perturb_forward(np.arange(12), np.ones(4), np.ones(4),
                                 np.zeros(4), x)
        want = nw.norm_forward(nw.selu(x), np.ones(4), np.zeros(4))
        assert np.abs(out - want).max() < 1e-12

    def test_permutation_composes(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((9, 3))
        perm = rng.permutation(9)
        assert np.array_equal(x[perm][perm], x[perm[perm]])

    def test_length_mismatch(self):
        with pytest.raises(PermutationLengthMismatch):
            nw.perturb_forward(np.arange(5), np.ones(3), np.ones(3),
                               np.zeros(3), np.zeros((6, 3)))


class TestModelForward:
    def test_deterministic_and_shaped(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        a = small_model(True, n)
        b = small_model(True, n)
        la = nw.model_forward(a, mesh.vertices, bank)
        lb = nw.model_forward(b, mesh.vertices, bank)
        assert la.shape == (n, n)
        assert np.array_equal(la, lb)

    def test_perturbation_stage_composition(self, setup):
        # identity permutation + unit scales: the perturbed forward is the
        # vanilla feature path followed by one extra norm(selu(.)) stage
        mesh, bank = setup
        n = mesh.n_vertices
        model = small_model(True, n)
        model.perms[n] = np.arange(n)
        feats = nw.descriptors(model, mesh.vertices, bank)
        extra = nw.norm_forward(nw.selu(feats), model.params["perturb.gamma"],
                                model.params["perturb.beta"])
        want = extra @ model.params["head.w"] + model.params["head.b"]
        got = nw.model_forward(model, mesh.vertices, bank)
        assert np.abs(got - want).max() < 1e-12

    def test_per_resolution_permutations_deterministic(self, setup):
        mesh, bank = setup
        a = small_model(True, mesh.n_vertices)
        b = small_model(True, mesh.n_vertices)
        for n in (10, 25, mesh.n_vertices):
            pa = a.perm_for(n)
            assert np.array_equal(np.sort(pa), np.arange(n))  # bijection
            assert np.array_equal(pa, b.perm_for(n))


class TestLoss:
    def test_uniform_logits(self):
        loss, _ = nw.loss_ce(np.zeros((10, 7)), np.arange(7).repeat(2)[:10])
        assert abs(loss - np.log(7)) < 1e-12

    def test_margin_drives_loss_to_zero(self):
        labels = np.array([0, 1, 2])
        logits = np.eye(3) * 20.0
        loss, _ = nw.loss_ce(logits, labels)
        assert loss < 1e-8

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((6, 4))
        labels = rng.integers(0, 4, 6)
        loss, grad = nw.loss_ce(logits, labels)
        h = 1e-5
        for i in range(6):
            for j in range(4):
                p = logits.copy()
                p[i, j] += h
                m = logits.copy()
                m[i, j] -= h
                fd = (nw.loss_ce(p, labels)[0] - nw.loss_ce(m, labels)[0]) / (2 * h)
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


class TestTraining:
    def test_overfit_small_sphere(self, ico1):
        bank = build_bank_for(ico1, k=20, directions=2, alpha=50.0, scales=3,
                              tighten=False)
        n = ico1.n_vertices
        cfg = nw.ModelConfig(n_classes=n, encoder_dims=(16, 32), conv_layers=2,
                             directions=2, scales=3, perturb=True, seed=0)
        model = nw.Model.initialize(cfg, n)
        item = nw.TrainItem(coords=ico1.vertices, labels=np.arange(n),
                            bank=bank, name="ico1")
        perm_before = model.perm_for(n).copy()
        history = nw.train(model, [item], epochs=60)
        assert len(history) == 60
        assert all(np.isfinite(h[1]) for h in history)
        assert history[-1][2] > 0.9  # memorizes a 42-vertex sphere
        assert history[-1][1] < history[0][1]
        # the shuffle stays fixed for all epochs
        assert np.array_equal(model.perm_for(n), perm_before)

    def test_seeded_training_reproducible(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        item = nw.TrainItem(coords=mesh.vertices, labels=np.arange(n),
                            bank=bank, name="grid")

        def run():
            model = small_model(True, n)
            return nw.train(model, [item], epochs=4)

        assert run() == run()

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
                            bank=bank, name="grid")
        with pytest.raises(NonFiniteLoss):
            nw.train(model, [item], epochs=1)


class TestFloat32:
    def test_float32_training_stays_float32_and_tracks_float64(self,
                                                               monkeypatch):
        mesh = jittered_grid(6, 5)
        bank = build_bank_for(mesh, k=14, directions=2, alpha=50.0, scales=2,
                              tighten=False)
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
            model = nw.Model.initialize(cfg, n, dtype=dtype)
            item = nw.TrainItem(coords=mesh.vertices.astype(dtype),
                                labels=np.arange(n), bank=bank)
            grad_dtypes.clear()
            histories[dtype] = nw.train(model, [item], epochs=5)
            assert grad_dtypes == {np.dtype(dtype)}
            assert all(p.dtype == dtype for p in model.params.values())
        loss32 = np.array([h[1] for h in histories[np.float32]])
        loss64 = np.array([h[1] for h in histories[np.float64]])
        assert np.abs(loss32 / loss64 - 1).max() < 1e-4


def selu_inputs(model, coords, bank):
    """Logits of one forward pass, and every array fed to SELU during it,
    in call order."""
    inputs = []
    orig = ad.selu

    def spy(a):
        inputs.append(a.value.copy())
        return orig(a)

    ad.selu = spy
    try:
        logits = nw.model_forward(model, coords, bank)
    finally:
        ad.selu = orig
    return logits, inputs


def selu_kink_margin(model, coords, bank):
    """Smallest |input| ever fed to SELU during a forward pass; finite
    differencing is only valid when the step cannot cross the kink."""
    _, inputs = selu_inputs(model, coords, bank)
    return min(float(np.abs(a).min()) for a in inputs)


class TestFullGradient:
    def test_every_parameter_matches_finite_differences(self, setup):
        mesh, bank = setup
        n = mesh.n_vertices
        model = small_model(True, n, seed=11)
        labels = np.arange(n)
        h = 5e-5
        assert selu_kink_margin(model, mesh.vertices, bank) > 2 * h

        params_t = {k: ad.Tensor(v, requires_grad=True)
                    for k, v in model.params.items()}
        logits, _ = nw._tape_forward(model, mesh.vertices, bank, params_t,
                                     perturb=True)
        loss = ad.softmax_cross_entropy(logits, labels)
        ad.backward(loss)
        f0 = float(loss.value)

        # The margin above bounds the SELU inputs against a parameter step,
        # but a standardize can move them by more than that step. So every
        # evaluation also checks that no SELU input changed side of the kink.
        _, base_inputs = selu_inputs(model, mesh.vertices, bank)
        base_signs = [a > 0 for a in base_inputs]

        def loss_value(name, i):
            lg, inputs = selu_inputs(model, mesh.vertices, bank)
            assert all(np.array_equal(a > 0, s)
                       for a, s in zip(inputs, base_signs)), (name, i)
            return nw.loss_ce(lg, labels)[0]

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
        for name, t in params_t.items():
            grad = t.grad
            assert grad is not None, name
            flat = model.params[name].reshape(-1)
            gflat = grad.reshape(-1)
            idx = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for i in idx:
                r = (4 * central(flat, name, i, h / 2)
                     - central(flat, name, i, h)) / 3
                g = gflat[i]
                assert abs(r - g) <= 1e-4 * max(abs(r), abs(g)) + atol, (
                    name, i, r, g)
