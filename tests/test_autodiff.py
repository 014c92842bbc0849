import numpy as np
import pytest

from wavemesh import autodiff as ad
from wavemesh.errors import SingleVertexShape

from .conftest import build_bank_for, jittered_grid


def finite_difference(fn, arrays, h=1e-4):
    """Central finite differences of a scalar function of several arrays."""
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def check_op(build, arrays, rtol=1e-6, atol=1e-9):
    """build() -> scalar Tensor wired to the given parameter arrays."""
    tensors = [ad.param(a) for a in arrays]
    loss = build(tensors)
    ad.backward(loss)

    def value():
        return float(build([ad.constant(a) for a in arrays]).value)

    fd = finite_difference(value, arrays)
    for t, g in zip(tensors, fd):
        got = t.grad if t.grad is not None else np.zeros_like(g)
        assert np.allclose(got, g, rtol=rtol, atol=atol), (
            np.abs(got - g).max())


def _total(t):
    # reduce to a scalar through ops that are themselves on the tape
    flat = ad.mul(t, t)
    v = ad.Tensor(flat.value.sum(),
                  parents=((flat, lambda g: g * np.ones_like(flat.value)),))
    return v


class TestPrimitives:
    def test_matmul_and_add(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((3, 5))
        c = rng.standard_normal(5)
        check_op(lambda t: _total(ad.add(ad.matmul(t[0], t[1]), t[2])),
                 [a, b, c])

    def test_mul_broadcast(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4))
        s = rng.standard_normal(4)
        check_op(lambda t: _total(ad.mul(t[0], t[1])), [x, s])

    def test_selu(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3)) * 2
        check_op(lambda t: _total(ad.selu(t[0])), [x])

    def test_standardize(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 4))
        gamma = rng.standard_normal(4) + 1.5
        beta = rng.standard_normal(4)
        check_op(lambda t: _total(ad.standardize(t[0], t[1], t[2])),
                 [x, gamma, beta], rtol=1e-5, atol=1e-8)

    def test_standardize_single_vertex_rejected(self):
        with pytest.raises(SingleVertexShape):
            ad.standardize(ad.constant(np.ones((1, 3))),
                           ad.constant(np.ones(3)), ad.constant(np.zeros(3)))

    def test_gather_rows(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3))
        perm = np.array([3, 1, 0, 5, 4, 2])
        check_op(lambda t: _total(ad.gather_rows(t[0], perm)), [x])

    def test_softmax_cross_entropy_gradient_formula(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        t = ad.param(logits)
        loss = ad.softmax_cross_entropy(t, labels)
        ad.backward(loss)
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        assert np.allclose(t.grad, (probs - onehot) / 8, atol=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(ad.constant(np.zeros((2, 3))),
                                     np.array([0, 3]))

    def test_diamond_accumulation(self):
        # the same tensor feeding two consumers must receive both
        # gradient contributions
        x = np.array([[2.0]])
        t = ad.param(x)
        y = ad.add(ad.mul(t, t), t)  # x^2 + x -> dy/dx = 2x + 1
        ad.backward(y)
        assert np.allclose(t.grad, [[5.0]])


class TestWaveletMix:
    def test_gradients_wrt_inputs_and_weights(self):
        mesh = jittered_grid(4, 3, seed=8)  # 20 vertices
        bank = build_bank_for(mesh, k=10, directions=2, alpha=50.0, scales=2,
                              tighten=False)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((mesh.n_vertices, 3))
        thetas = [[rng.standard_normal((3, 3)) for _ in range(2)]
                  for _ in range(2)]

        def build(t):
            xt = t[0]
            tt = [[t[1 + m * 2 + j] for j in range(2)] for m in range(2)]
            return _total(ad.wavelet_mix(xt, tt, bank))

        check_op(build, [x] + [th for row in thetas for th in row],
                 rtol=1e-5, atol=1e-8)

    def test_matches_apply_filter_composition(self):
        from wavemesh.wavelets import apply_filter
        mesh = jittered_grid(4, 3, seed=9)
        bank = build_bank_for(mesh, k=10, directions=2, alpha=50.0, scales=2,
                              tighten=False)
        rng = np.random.default_rng(7)
        x = rng.standard_normal((mesh.n_vertices, 3))
        thetas = [[rng.standard_normal((3, 3)) for _ in range(2)]
                  for _ in range(2)]
        got = ad.wavelet_mix(
            ad.constant(x),
            [[ad.constant(t) for t in row] for row in thetas], bank).value
        want = sum(apply_filter(bank, m, j, x) @ thetas[m][j]
                   for m in range(2) for j in range(2))
        assert np.abs(got - want).max() < 1e-12


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestWaveletMixExact:
    """The eigenbasis kernel against the per-filter reference: forward by
    apply_filter, backward by adjoint_apply_filter, for the loss
    sum(out * w)."""

    @pytest.fixture(scope="class")
    def bank(self):
        mesh = jittered_grid(5, 4, seed=12)  # 30 vertices
        return build_bank_for(mesh, k=12, directions=4, alpha=50.0, scales=4,
                              tighten=False)

    @pytest.mark.parametrize("n_dir, n_scale", [(4, 4), (3, 2)])
    def test_matches_per_filter_reference(self, bank, n_dir, n_scale):
        from wavemesh.wavelets import adjoint_apply_filter, apply_filter
        rng = np.random.default_rng(13)
        n, d, e = bank.n_vertices, 5, 3
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((n, e))
        thetas = [[rng.standard_normal((d, e)) for _ in range(n_scale)]
                  for _ in range(n_dir)]

        xt = ad.param(x)
        tt = [[ad.param(t) for t in row] for row in thetas]
        out = ad.wavelet_mix(xt, tt, bank)
        ad.backward(ad.Tensor(np.float64((out.value * w).sum()),
                              parents=((out, lambda g: g * w),)))

        pairs = [(m, j) for m in range(n_dir) for j in range(n_scale)]
        filtered = {mj: apply_filter(bank, *mj, x) for mj in pairs}
        want = sum(filtered[m, j] @ thetas[m][j] for m, j in pairs)
        want_gx = sum(adjoint_apply_filter(bank, m, j, w @ thetas[m][j].T)
                      for m, j in pairs)
        assert _rel(out.value, want) <= 1e-12
        assert _rel(xt.grad, want_gx) <= 1e-12
        for m, j in pairs:
            assert _rel(tt[m][j].grad, filtered[m, j].T @ w) <= 1e-12, (m, j)


class TestFusedHead:
    def _problem(self, n, c, d, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((n, d)), rng.standard_normal((d, c)),
                rng.standard_normal(c), rng.integers(0, c, n))

    def test_matches_unfused_head_over_several_blocks(self):
        n = 2 * ad.HEAD_BLOCK + 37
        x, w, b, labels = self._problem(n, 50, 7, seed=14)
        # a few rows classified right, so the count is not trivially 0
        labels[:40] = (x[:40] @ w + b).argmax(axis=1)

        ref = [ad.param(a) for a in (x, w, b)]
        logits = ad.affine(*ref)
        ref_loss = ad.softmax_cross_entropy(logits, labels)
        ad.backward(ref_loss)

        got = [ad.param(a) for a in (x, w, b)]
        loss, correct = ad.linear_softmax_cross_entropy(*got, labels)
        ad.backward(loss)

        assert abs(loss.value - ref_loss.value) <= 1e-12
        for g, r in zip(got, ref):
            assert np.abs(g.grad - r.grad).max() <= 1e-12
        assert correct == (logits.value.argmax(axis=1) == labels).sum() >= 40

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_label_out_of_range(self, bad):
        x, w, b, labels = self._problem(4, 6, 3, seed=15)
        labels[2] = bad
        with pytest.raises(ValueError):
            ad.linear_softmax_cross_entropy(
                ad.constant(x), ad.constant(w), ad.constant(b), labels)

    def test_peak_memory_below_one_logit_array(self):
        import tracemalloc
        n = 2000
        x, w, b, labels = self._problem(n, n, 16, seed=16)
        tensors = [ad.param(a) for a in (x, w, b)]
        tracemalloc.start()
        try:
            loss, _ = ad.linear_softmax_cross_entropy(*tensors, labels)
            ad.backward(loss)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8
