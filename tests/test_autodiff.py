import weakref

import numpy as np
import pytest

from wavemesh import autodiff as ad
from wavemesh import network as nw
from wavemesh.errors import SingleVertexShape
from wavemesh.wavelets import dense_filter_matrix, passbands

from .conftest import (build_bank_for, jittered_grid, standardize,
                       traced_held, traced_peak)


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


def check_op(op, x, params, *extra, rtol=1e-6, atol=1e-9):
    """op(x, *params, *extra)'s back against central finite differences of
    the loss sum(value**2), for x and every parameter. The op whose back
    runs gets a copy of x, since a back may consume its kept input."""
    value, back = op(x.copy(), *params, *extra)
    dx, grads = back(2 * value)
    assert len(grads) == len(params)

    def loss():
        return float((op(x, *params, *extra)[0] ** 2).sum())

    fd = finite_difference(loss, [x, *params])
    for got, want in zip([dx, *grads], fd):
        assert got.shape == want.shape
        assert np.allclose(got, want, rtol=rtol, atol=atol), (
            np.abs(got - want).max())


class TestPrimitives:
    def test_matmul_and_add(self):
        # the fused affine x @ w + b
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(5)
        check_op(ad.affine, x, [w, b])

    def test_selu_affine(self):
        # the encoder's SELU fused with the next stage's affine
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 4)) * 2
        assert np.abs(x).min() > 1e-3  # ten finite-difference steps
        w = rng.standard_normal((4, 5))
        b = rng.standard_normal(5)
        check_op(ad.selu_affine, x, [w, b])

    def test_selu(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 3)) * 2
        check_op(ad.selu, x, [])

    def test_standardize(self):
        # the unfused oracle of selu_standardize
        rng = np.random.default_rng(3)
        x = rng.standard_normal((7, 4))
        gamma = rng.standard_normal(4) + 1.5
        beta = rng.standard_normal(4)
        check_op(standardize, x, [gamma, beta], rtol=1e-5, atol=1e-8)

    def test_selu_standardize(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((7, 4)) * 2
        # finite differences must not step across the SELU kink
        assert np.abs(x).min() > 1e-3  # ten finite-difference steps
        gamma = rng.standard_normal(4) + 1.5
        beta = rng.standard_normal(4)
        check_op(ad.selu_standardize, x, [gamma, beta], rtol=1e-5, atol=1e-8)

    def test_selu_standardize_with_scale(self):
        # the perturbation stage: the per-feature scale, broadcast over
        # the rows and negative in some features, folded into the op
        rng = np.random.default_rng(8)
        x = rng.standard_normal((7, 4)) * 2
        s = rng.standard_normal(4) + np.array([1.0, -1.0, 1.0, -1.0])
        # a step of x or of s moves x * s by at most 1e-4 * max(|x|, |s|)
        assert np.abs(x * s).min() > 1e-3 * max(np.abs(x).max(),
                                                np.abs(s).max())
        gamma = rng.standard_normal(4) + 1.5
        beta = rng.standard_normal(4)
        check_op(ad.selu_standardize, x, [gamma, beta, s], rtol=1e-5,
                 atol=1e-8)

    def test_standardize_single_vertex_rejected(self):
        for op in (standardize, ad.selu_standardize):
            with pytest.raises(SingleVertexShape):
                op(np.ones((1, 3)), np.ones(3), np.zeros(3))

    def test_softmax_cross_entropy_gradient_formula(self):
        rng = np.random.default_rng(5)
        logits = rng.standard_normal((8, 5))
        labels = rng.integers(0, 5, 8)
        loss, grad = ad.softmax_cross_entropy(logits, labels)
        z = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        assert np.allclose(grad, (probs - onehot) / 8, atol=1e-12)
        want = -np.log(probs[np.arange(8), labels]).mean()
        assert abs(loss - want) <= 1e-12

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            ad.softmax_cross_entropy(np.zeros((2, 3)), np.array([0, 3]))


@pytest.fixture(scope="module")
def bank_2x2():
    return build_bank_for(jittered_grid(4, 3, seed=8), k=10, directions=2,
                          alpha=50.0, scales=2)


class TestTapeLifetime:
    """backward empties the tape and frees each back as it goes, a forward
    without a tape keeps no back, and an activation no back reads is not
    kept alive."""

    def _problem(self, seed):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((6, 3)), rng.standard_normal((3, 4)),
                rng.standard_normal(4))

    def test_backward_keeps_only_leaf_gradients(self):
        x, w, b = self._problem(30)
        held = x.copy()
        alive = weakref.ref(held)
        z, back_z = ad.affine(held, w, b)
        del held  # from here on only the affine's back holds its input
        s, back_s = ad.selu(z)
        freed_first = []

        def identity_back(g):
            # runs last: the backs after it must be gone by then
            freed_first.append(alive() is None)
            return g, ()

        tape = [(identity_back, ()), (back_z, ("w", "b")), (back_s, ())]
        del back_z, back_s
        grads = ad.backward(tape, 2 * s)
        assert tape == []
        assert freed_first == [True]
        # d/dz sum(selu(z)^2) = 2 selu(z) selu'(z)
        zv = x @ w + b
        ez = np.exp(np.minimum(zv, 0.0))
        sv = np.where(zv > 0, ad.SELU_SCALE * zv,
                      ad.SELU_SCALE * ad.SELU_ALPHA * (ez - 1.0))
        dz = 2 * sv * np.where(zv > 0, ad.SELU_SCALE,
                               ad.SELU_SCALE * ad.SELU_ALPHA * ez)
        # only the parameters' gradients come back, none of an activation
        assert set(grads) == {"w", "b"}
        assert np.allclose(grads["w"], x.T @ dz, rtol=1e-12, atol=1e-12)
        assert np.allclose(grads["b"], dz.sum(axis=0), rtol=1e-12, atol=1e-12)

    def test_descriptors_records_nothing(self, bank_2x2, monkeypatch):
        backs = []
        for name in ("affine", "selu_affine", "selu", "selu_standardize",
                     "wavelet_mix"):
            def spy(*args, op=getattr(ad, name)):
                value, back = op(*args)
                backs.append(weakref.ref(back))
                return value, back
            monkeypatch.setattr(ad, name, spy)
        n = bank_2x2.n_vertices
        model = nw.Model.initialize(nw.ModelConfig(
            n_classes=n, encoder_dims=(4, 4), conv_layers=1, directions=2,
            scales=2, perturb=True))
        coords = np.random.default_rng(31).standard_normal((n, 3))
        nw.descriptors(model, coords, lambda: bank_2x2)
        assert backs and all(ref() is None for ref in backs)
        # the training forward keeps each of its backs on the tape
        backs.clear()
        tape = []
        nw._head_input(model, coords, lambda: bank_2x2, True, tape)
        assert [back for back, _ in tape] == [ref() for ref in backs]
        assert [names for _, names in tape if names][-1] == (
            "perturb.gamma", "perturb.beta", "perturb.scale")

    def test_activation_no_vjp_reads_is_freed(self, bank_2x2):
        # a conv layer's output, selu_standardize(z), feeds the next
        # wavelet_mix, whose back reads its projections, not its input;
        # the fused op's own back reads z, not its output, and consumes
        # it, so it gets a copy
        n = bank_2x2.n_vertices
        bank = ad.MixBank.of(bank_2x2, np.float64)
        rng = np.random.default_rng(32)
        z = rng.standard_normal((n, 3))
        gamma = rng.standard_normal(3) + 1.5
        beta = rng.standard_normal(3)
        thetas = [[rng.standard_normal((3, 2)) for _ in range(2)]
                  for _ in range(2)]
        y, back_y = ad.selu_standardize(z.copy(), gamma, beta)
        alive = weakref.ref(y)
        out, back_w = ad.wavelet_mix(y, thetas, bank)
        del y
        assert alive() is None
        gy, _ = back_w(2 * out)
        gz, (ggamma, gbeta) = back_y(gy)

        def loss():
            y = ad.selu_standardize(z, gamma, beta)[0]
            return float((ad.wavelet_mix(y, thetas, bank)[0] ** 2).sum())

        for got, want in zip((gz, ggamma, gbeta),
                             finite_difference(loss, [z, gamma, beta])):
            assert np.allclose(got, want, rtol=1e-5, atol=1e-8)


def where_selu(x, g):
    """SELU's value and g times its derivative by np.where: the masked
    form that ``selu`` replaced."""
    a, b = ad.SELU_SCALE, ad.SELU_SCALE * ad.SELU_ALPHA
    e = np.exp(np.minimum(x, 0.0))
    return (np.where(x > 0, a * x, b * (e - 1.0)),
            g * np.where(x > 0, a, b * e))


def same_bits(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and got.tobytes() == want.tobytes())


class TestSeluStandardize:
    """The fused op against the unfused oracle, standardize(selu(z))."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_matches_the_unfused_ops_bit_for_bit(self, dtype):
        rng = np.random.default_rng(40)
        n, d = 40, 7
        z = (rng.standard_normal((n, d)) * 3).astype(dtype)
        info = np.finfo(dtype)
        small = -info.eps / 8                         # exp rounds to 1
        subnormal = np.log(info.tiny) - 2             # exp is subnormal
        under = np.log(info.smallest_subnormal) - 2   # exp underflows to 0
        special = np.array([0.0, -0.0, small, small / 1e3, subnormal,
                            under, 2 * under], dtype)
        assert np.exp(special[2:4]).tolist() == [1.0, 1.0]
        assert 0 < np.exp(special[4]) < info.tiny
        assert np.exp(special[5:]).tolist() == [0.0, 0.0]
        # the special values mixed into a column, filling a column, and
        # a column that SELU maps to a constant
        z[::5, 0] = np.resize(special, len(z[::5]))
        z[:, 1] = np.resize(special, n)
        z[:, 2] = under
        gamma = (rng.standard_normal(d) + 1.5).astype(dtype)
        beta = rng.standard_normal(d).astype(dtype)
        g = rng.standard_normal((n, d)).astype(dtype)

        # the back consumes its z and its g
        value, back = ad.selu_standardize(z.copy(), gamma, beta)
        dz, (dgamma, dbeta) = back(g.copy())
        s, back_s = ad.selu(z)
        want, back_std = standardize(s, gamma, beta)
        gs, (want_dgamma, want_dbeta) = back_std(g)
        want_dz, _ = back_s(gs)
        where_s, where_dz = where_selu(z, gs)
        assert same_bits(s, where_s) and same_bits(want_dz, where_dz)
        for got, ref in ((value, want), (dz, want_dz), (dgamma, want_dgamma),
                         (dbeta, want_dbeta)):
            assert same_bits(got, ref)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_scale_matches_the_unfused_ops_bit_for_bit(self, dtype):
        # the perturbation stage's scale, folded into the op, against
        # x = z * s fed to the unfused oracle, whose input gradient gx
        # gives the scale's back: gx * s for z and sum(gx * z) for s
        rng = np.random.default_rng(43)
        n, d = 40, 7
        z = (rng.standard_normal((n, d)) * 3).astype(dtype)
        s = (rng.standard_normal(d) * 2).astype(dtype)
        gamma = (rng.standard_normal(d) + 1.5).astype(dtype)
        beta = rng.standard_normal(d).astype(dtype)
        g = rng.standard_normal((n, d)).astype(dtype)

        value, back = ad.selu_standardize(z.copy(), gamma, beta, s)
        dz, (dgamma, dbeta, ds) = back(g.copy())
        x = z * s
        sx, back_s = ad.selu(x)
        want, back_std = standardize(sx, gamma, beta)
        gs, (want_dgamma, want_dbeta) = back_std(g)
        gx, _ = back_s(gs)
        for got, ref in ((value, want), (dz, gx * s), (dgamma, want_dgamma),
                         (dbeta, want_dbeta), (ds, (gx * z).sum(axis=0))):
            assert same_bits(got, ref)

    def test_back_holds_its_input_and_two_feature_vectors(self):
        # the back keeps z, which the caller made, and the D-vectors mean
        # and inverse std; keeping xhat as the unfused standardization
        # does would hold N x D more (204.8 kB here against 1 kB), and so
        # would keeping z times the scale beside z
        n, d = 400, 64
        rng = np.random.default_rng(41)
        z = rng.standard_normal((n, d))
        gamma = rng.standard_normal(d) + 1.5
        beta = rng.standard_normal(d)
        for scale in ((), (rng.standard_normal(d),)):
            held, (out, back) = traced_held(
                lambda: ad.selu_standardize(z, gamma, beta, *scale))
            # + the closure's objects
            assert held - out.nbytes < 2 * d * 8 + 8192
            kept = [c.cell_contents for c in back.__closure__]
            assert [a for a in kept if np.ndim(a) == 2] == [z]

    def test_back_peaks_at_two_arrays_beside_its_input_and_g(self):
        # the back forms SELU's exponential (then its derivative) and
        # xhat, takes z as its work array once SELU's derivative is
        # formed, and forms g * gamma in g; a work array of its own would
        # make three N x D arrays. With a scale it forms z * s apart from
        # z, which the scale's gradient reads last, and works in that
        n, d = 400, 64
        rng = np.random.default_rng(42)
        gamma = rng.standard_normal(d) + 1.5
        beta = rng.standard_normal(d)
        for scale, arrays in (((), 2), ((rng.standard_normal(d),), 3)):
            z = rng.standard_normal((n, d))
            g = rng.standard_normal((n, d))
            _, back = ad.selu_standardize(z, gamma, beta, *scale)
            peak, _ = traced_peak(lambda: back(g))
            assert peak < (arrays + 0.5) * z.nbytes, (arrays, peak / z.nbytes)


class TestSeluAffine:
    """The encoder's SELU fused with the next stage's affine, against
    affine(selu(z))."""

    def test_matches_the_unfused_ops_bit_for_bit(self):
        rng = np.random.default_rng(44)
        z = rng.standard_normal((30, 6)) * 3
        z[::4, 0] = 0.0
        w = rng.standard_normal((6, 5))
        b = rng.standard_normal(5)
        g = rng.standard_normal((30, 5))
        value, back = ad.selu_affine(z, w, b)
        dz, (dw, db) = back(g)
        s, back_s = ad.selu(z)
        want, back_a = ad.affine(s, w, b)
        gs, (want_dw, want_db) = back_a(g)
        want_dz, _ = back_s(gs)
        for got, ref in ((value, want), (dz, want_dz), (dw, want_dw),
                         (db, want_db)):
            assert same_bits(got, ref)

    def test_back_holds_its_input_not_the_selu_output(self):
        # keeping SELU's output for the weight gradient, as the two ops
        # apart do, would hold N x D more (102.4 kB here)
        n, d = 400, 32
        rng = np.random.default_rng(45)
        z = rng.standard_normal((n, d))
        w = rng.standard_normal((d, 8))
        held, (out, back) = traced_held(
            lambda: ad.selu_affine(z, w, rng.standard_normal(8)))
        assert held - out.nbytes < 8192  # the closure's objects
        kept = [id(c.cell_contents) for c in back.__closure__
                if np.ndim(c.cell_contents) == 2]
        assert sorted(kept) == sorted([id(w), id(z)])


class TestWaveletMix:
    def test_gradients_wrt_inputs_and_weights(self):
        mesh = jittered_grid(4, 3, seed=8)  # 20 vertices
        bank = build_bank_for(mesh, k=10, directions=2, alpha=50.0, scales=2)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((mesh.n_vertices, 3))
        thetas = [rng.standard_normal((3, 3)) for _ in range(4)]
        bank = ad.MixBank.of(bank, np.float64)

        def mix(x, *t):
            return ad.wavelet_mix(x, [list(t[:2]), list(t[2:])], bank)

        check_op(mix, x, thetas, rtol=1e-5, atol=1e-8)

    def test_forward_peak_memory_below_six_outputs(self):
        # the output, one reused N x E synthesis buffer and the A x
        # temporary take 3 N x E; an N x J x E synthesis per direction
        # (J = 4) would take 4 more
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        bank = build_bank_for(mesh, k=20, directions=2, alpha=50.0, scales=4)
        n, d = mesh.n_vertices, 32
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, d))
        thetas = [[rng.standard_normal((d, d)) for _ in range(4)]
                  for _ in range(2)]
        bank = ad.MixBank.of(bank, np.float64)
        peak, _ = traced_peak(lambda: ad.wavelet_mix(x, thetas, bank))
        assert peak < 6 * n * d * 8

    def test_back_holds_one_projection_per_direction(self):
        # per direction the back keeps the K x D projection C = Phi^T A x
        # and forms each r_j * C again when it runs; it reads the
        # normalizers and responses from the MixBank the forward shares
        # with every layer. Keeping the J scaled copies of C would hold
        # J x K x D per direction (275 kB here against 61 kB), and copies
        # of the J x N normalizer reciprocals 25.6 kB
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        n_dir, n_scale, k, d = 2, 4, 60, 64
        bank = build_bank_for(mesh, k=k, directions=n_dir, alpha=50.0,
                              scales=n_scale)
        n = mesh.n_vertices
        rng = np.random.default_rng(17)
        x = rng.standard_normal((n, d))
        thetas = [[rng.standard_normal((d, d)) for _ in range(n_scale)]
                  for _ in range(n_dir)]
        bank = ad.MixBank.of(bank, np.float64)
        held, (out, _) = traced_held(lambda: ad.wavelet_mix(x, thetas, bank))
        kept = n_dir * k * d * 8
        assert held - out.nbytes < kept + 8192  # + the closure's objects

    def test_back_shares_one_buffer_for_its_two_n_by_d_arrays(self):
        # with E = D the per-scale g / n_j and the direction's synthesized
        # x-gradient take turns in one N x D buffer, beside the gradient
        # it accumulates, the theta-gradients, K x D buffers and the copy
        # of a passband's N x K_j slice of Phi that matmul makes (at most
        # N x K); a buffer each would make three N x D arrays. Measured
        # here: 354 kB, and 457 kB with a buffer each
        mesh = jittered_grid(19, 19, seed=13)  # 400 vertices
        bank = build_bank_for(mesh, k=20, directions=2, alpha=50.0, scales=4)
        n, d = mesh.n_vertices, 32
        rng = np.random.default_rng(18)
        thetas = [[rng.standard_normal((d, d)) for _ in range(4)]
                  for _ in range(2)]
        _, back = ad.wavelet_mix(rng.standard_normal((n, d)), thetas,
                                 ad.MixBank.of(bank, np.float64))
        g = rng.standard_normal((n, d))
        peak, (gx, theta_grads) = traced_peak(lambda: back(g))
        phi = bank.spectra[0].eigenvectors
        assert peak < (2.5 * gx.nbytes + sum(t.nbytes for t in theta_grads)
                       + phi.nbytes)


def _rel(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


class TestWaveletMixExact:
    """The eigenbasis kernel against the dense N x N filter matrices of
    dense_filter_matrix, forward and backward, for the loss sum(out * w)."""

    @pytest.fixture(scope="class")
    def bank(self):
        mesh = jittered_grid(5, 4, seed=12)  # 30 vertices
        bank = build_bank_for(mesh, k=12, directions=4, alpha=50.0, scales=4)
        # the coarse scales are band-limited, so the dense comparison
        # covers filters applied over fewer than K eigenpairs
        assert (passbands(bank.responses) < 12).any()
        return bank

    @pytest.mark.parametrize("n_dir, n_scale", [(4, 4)])
    def test_matches_per_filter_reference(self, bank, n_dir, n_scale):
        rng = np.random.default_rng(13)
        n, d, e = bank.n_vertices, 5, 3
        x = rng.standard_normal((n, d))
        w = rng.standard_normal((n, e))
        thetas = [[rng.standard_normal((d, e)) for _ in range(n_scale)]
                  for _ in range(n_dir)]

        out, back = ad.wavelet_mix(x, thetas, ad.MixBank.of(bank, np.float64))
        gx, theta_grads = back(w)

        # column v of P is filter (m, j)'s normalized wavelet at v, so the
        # filtered map is P^T x and the filter's adjoint is P
        pairs = [(m, j) for m in range(n_dir) for j in range(n_scale)]
        dense = {mj: dense_filter_matrix(bank, *mj, normalized=True)
                 for mj in pairs}
        filtered = {mj: dense[mj].T @ x for mj in pairs}
        want = sum(filtered[m, j] @ thetas[m][j] for m, j in pairs)
        want_gx = sum(dense[m, j] @ (w @ thetas[m][j].T) for m, j in pairs)
        assert _rel(out, want) <= 1e-12
        assert _rel(gx, want_gx) <= 1e-12
        assert len(theta_grads) == len(pairs)
        for (m, j), got in zip(pairs, theta_grads):
            assert _rel(got, filtered[m, j].T @ w) <= 1e-12, (m, j)

    @pytest.mark.parametrize("n_dir, n_scale",
                             [(3, 4), (5, 4), (4, 3), (4, 5)])
    def test_grid_other_than_the_bank_rejected(self, bank, n_dir, n_scale):
        x = np.ones((bank.n_vertices, 2))
        thetas = [[np.eye(2) for _ in range(n_scale)] for _ in range(n_dir)]
        with pytest.raises(ValueError, match=(
                f"{n_dir} x {n_scale} grid.*4 directions x 4 scales")):
            ad.wavelet_mix(x, thetas, ad.MixBank.of(bank, np.float64))


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

        logits, back = ad.affine(x, w, b)
        ref_loss, g = ad.softmax_cross_entropy(logits, labels)
        ref_dx, ref_grads = back(g)

        loss, correct, dx, grads = ad.linear_softmax_cross_entropy(
            x, w, b, labels)

        assert abs(loss - ref_loss) <= 1e-12
        for got, want in zip((dx, *grads), (ref_dx, *ref_grads)):
            assert np.abs(got - want).max() <= 1e-12
        assert correct == (logits.argmax(axis=1) == labels).sum() >= 40

    @pytest.mark.parametrize("bad", [-1, 6])
    def test_label_out_of_range(self, bad):
        x, w, b, labels = self._problem(4, 6, 3, seed=15)
        labels[2] = bad
        with pytest.raises(ValueError):
            ad.linear_softmax_cross_entropy(x, w, b, labels)

    def test_peak_memory_below_one_logit_array(self):
        # beside its inputs the head holds dw, one HEAD_BLOCK x C logit
        # block and the D x C product added into dw, and writes dx over
        # x; a second logit block (2 MiB here) or a dx apart from x
        # (1 MiB) would exceed the slack
        n, c, d = 2048, 1024, 64
        x, w, b, labels = self._problem(n, c, d, seed=16)
        peak, (_, _, dx, _) = traced_peak(
            lambda: ad.linear_softmax_cross_entropy(x, w, b, labels))
        assert dx is x
        assert peak < 2 * w.nbytes + ad.HEAD_BLOCK * c * 8 + 128 * 1024
