import numpy as np
import pytest
from helpers import finite_diff_grad

from surrogate_dfl import diff
from surrogate_dfl.diff import (
    ROW_BLOCK,
    EmbeddingModel,
    MlpModel,
    adam_step,
    embedding_cosine_backward,
    embedding_cosine_matrix,
    init_adam,
    init_embeddings,
    init_mlp,
    load_params_csv,
    mlp_backward_batch,
    mlp_forward_batch,
    save_params_csv,
)
from surrogate_dfl.errors import DegenerateEmbedding, DimensionMismatch


def test_finite_diff_sum():
    g = finite_diff_grad(lambda x: x.sum(), np.array([1.0, -2.0, 3.0]))
    assert np.allclose(g, 1.0, atol=1e-9)


def test_finite_diff_sq_norm():
    g = finite_diff_grad(lambda x: x @ x, np.array([1.0, 2.0]))
    assert np.allclose(g, [2.0, 4.0], atol=1e-8)


def test_finite_diff_product():
    g = finite_diff_grad(lambda x: x[0] * x[1], np.array([3.0, 5.0]))
    assert np.allclose(g, [5.0, 3.0], atol=1e-8)


def test_mlp_zero_weights():
    model = MlpModel(weights=[np.zeros((2, 3))], biases=[np.zeros(2)])
    out, _ = mlp_forward_batch(model, np.array([[0.5, -1.0, 2.0]]))
    assert out.shape == (1, 2)
    assert np.allclose(out, 0.0)


def test_mlp_identity_layer():
    model = MlpModel(weights=[np.eye(2)], biases=[np.zeros(2)])
    X = np.array([[1.0, 2.0], [-3.0, 0.5]])
    out, _ = mlp_forward_batch(model, X)
    assert np.allclose(out, X)


def test_mlp_matches_independent_evaluation():
    # duplicate evaluation oracle, written out by hand row by row
    model = init_mlp([2, 3, 1], seed=0)
    X = np.array([[0.3, -0.7], [1.1, 0.2], [-0.5, 0.0]])
    out, _ = mlp_forward_batch(model, X)
    for x, row in zip(X, out):
        hidden = np.tanh(model.weights[0] @ x + model.biases[0])
        expected = model.weights[1] @ hidden + model.biases[1]
        assert np.allclose(row, expected, atol=1e-14)


def plain_mlp_passes(model, X, G):
    """The forward activations and the parameter gradients by the plain
    formulas, the gradients formed per ROW_BLOCK rows and summed in order."""
    L = len(model.weights)
    acts = [X]
    for l, (W, b) in enumerate(zip(model.weights, model.biases)):
        Z = acts[-1] @ W.T + b
        acts.append(np.tanh(Z) if l < L - 1 else Z)
    want = None
    for start in range(0, len(X), ROW_BLOCK):
        rows = slice(start, start + ROW_BLOCK)
        block, delta = [], G[rows]
        for l in range(L - 1, -1, -1):
            block[:0] = [delta.T @ acts[l][rows], delta.sum(axis=0)]
            if l > 0:
                delta = (delta @ model.weights[l]) * (1.0 - acts[l][rows] ** 2)
        want = block if want is None else [w + g for w, g in zip(want, block)]
    return acts, want


def test_mlp_in_place_passes_match_plain_formulas():
    # the passes form their temporaries in place; the plain expressions are
    # the reference, bitwise, and the inputs, cotangent and cache stay as given
    rng = np.random.default_rng(5)
    for widths, rows in (((7, 100, 100, 1), 420), ((4, 16, 3), 9)):
        model = init_mlp(widths, seed=1)
        model.biases = [rng.normal(size=b.shape) for b in model.biases]
        X = rng.normal(size=(rows, widths[0]))
        G = rng.normal(size=(rows, widths[-1]))
        acts, want = plain_mlp_passes(model, X, G)

        X0, G0 = X.copy(), G.copy()
        out, cache = mlp_forward_batch(model, X)
        cache0 = [a.copy() for a in cache]
        got = mlp_backward_batch(model, cache, G)
        assert np.array_equal(out, acts[-1])
        assert all(np.array_equal(a, b) for a, b in zip(cache, acts))
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert np.array_equal(X, X0) and np.array_equal(G, G0)
        assert all(np.array_equal(a, b) for a, b in zip(cache, cache0))


def test_row_blocked_passes_match_one_block(monkeypatch):
    # a pass of several blocks, the last one ragged, on the portfolio and
    # movie-rec MLP shapes: the forward is bitwise the plain formulas and the
    # backward, which sums per-block gradients, is within 1e-12 of one block's
    rng = np.random.default_rng(8)
    rows = 2 * ROW_BLOCK + 37
    for widths in ((7, 100, 100, 1), (20, 100, 100, 100)):
        model = init_mlp(widths, seed=2)
        model.biases = [rng.normal(size=b.shape) for b in model.biases]
        X = rng.normal(size=(rows, widths[0]))
        G = rng.normal(size=(rows, widths[-1]))
        X0, G0 = X.copy(), G.copy()
        out, cache = mlp_forward_batch(model, X)
        cache0 = [a.copy() for a in cache]
        got = mlp_backward_batch(model, cache, G)
        acts, _ = plain_mlp_passes(model, X, G)
        assert np.array_equal(out, acts[-1])
        assert all(np.array_equal(a, b) for a, b in zip(cache, acts))
        assert np.array_equal(X, X0) and np.array_equal(G, G0)
        assert all(np.array_equal(a, b) for a, b in zip(cache, cache0))
        with monkeypatch.context() as patch:
            patch.setattr(diff, "ROW_BLOCK", rows)
            one_out, one_cache = mlp_forward_batch(model, X)
            one_block = mlp_backward_batch(model, one_cache, G)
        assert np.array_equal(one_out, out)
        for g, want in zip(got, one_block):
            assert np.max(np.abs(g - want)) <= 1e-12 * np.max(np.abs(want))


def test_mlp_dimension_mismatch():
    model = init_mlp([2, 3, 1], seed=0)
    with pytest.raises(DimensionMismatch):
        mlp_forward_batch(model, np.zeros((4, 5)))
    out, cache = mlp_forward_batch(model, np.zeros((4, 2)))
    with pytest.raises(DimensionMismatch):
        mlp_backward_batch(model, cache, np.zeros((3, 1)))


def test_mlp_backward_zero_cotangent():
    model = init_mlp([2, 3, 2], seed=1)
    out, cache = mlp_forward_batch(model, np.array([[0.1, 0.2], [0.3, -0.4]]))
    grads = mlp_backward_batch(model, cache, np.zeros_like(out))
    assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
    assert all(np.allclose(g, 0.0) for g in grads)


def test_mlp_bias_gradient_passthrough():
    # with an identity output layer the bias gradient is the cotangent summed over rows
    model = MlpModel(weights=[np.eye(2)], biases=[np.zeros(2)])
    _, cache = mlp_forward_batch(model, np.array([[1.0, 2.0], [0.0, -1.0]]))
    G = np.array([[0.3, -0.4], [0.1, 0.2]])
    grads = mlp_backward_batch(model, cache, G)
    assert np.allclose(grads[1], G.sum(axis=0))


def _flatten(params):
    return np.concatenate([p.ravel() for p in params])


def _unflatten(flat, params):
    out, off = [], 0
    for p in params:
        out.append(flat[off : off + p.size].reshape(p.shape))
        off += p.size
    return out


def test_mlp_backward_matches_finite_differences():
    model = init_mlp([2, 3, 1], seed=2)
    X = np.array([[0.4, -0.2], [-0.1, 0.6]])
    params0 = model.parameters()

    def loss_of(flat):
        model.set_parameters(_unflatten(flat, params0))
        out, _ = mlp_forward_batch(model, X)
        return float(np.sum(out * out))

    flat0 = _flatten(params0)
    fd = finite_diff_grad(loss_of, flat0, h=1e-5)
    model.set_parameters(_unflatten(flat0, params0))
    out, cache = mlp_forward_batch(model, X)
    an = _flatten(mlp_backward_batch(model, cache, 2.0 * out))
    assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) <= 1e-6


def test_gradients_match_fd_over_many_draws():
    # module invariant: 50 random parameter draws within 1e-5 relative; batch
    # sizes 1-4 check that the gradients sum over the batch
    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(50):
        dims = [int(rng.integers(1, 4)), int(rng.integers(2, 5)), int(rng.integers(1, 3))]
        batch = trial % 4 + 1
        model = init_mlp(dims, seed=trial)
        X = rng.normal(size=(batch, dims[0]))
        W = rng.normal(size=(batch, dims[-1]))
        params0 = model.parameters()
        flat0 = _flatten(params0)

        def loss_of(flat):
            model.set_parameters(_unflatten(flat, params0))
            out, _ = mlp_forward_batch(model, X)
            return float(np.sum(W * out))

        fd = finite_diff_grad(loss_of, flat0, h=1e-5)
        model.set_parameters(_unflatten(flat0, params0))
        _, cache = mlp_forward_batch(model, X)
        an = _flatten(mlp_backward_batch(model, cache, W))
        worst = max(worst, float(np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an)))))
    assert worst <= 1e-5


def test_embedding_cosine_identical():
    model = EmbeddingModel(table=np.array([[1.0, 2.0], [1.0, 2.0]]))
    Q, _ = embedding_cosine_matrix(model)
    assert np.allclose(Q, 1.0)


def test_embedding_cosine_orthogonal():
    model = EmbeddingModel(table=np.array([[1.0, 0.0], [0.0, 1.0]]))
    Q, _ = embedding_cosine_matrix(model)
    assert np.allclose(Q, np.eye(2))


def test_embedding_cosine_invariants():
    model = init_embeddings(5, 4, seed=7)
    Q, _ = embedding_cosine_matrix(model)
    assert np.allclose(Q, Q.T)
    assert np.allclose(np.diag(Q), 1.0)
    assert Q.min() >= -1.0 and Q.max() <= 1.0


def test_embedding_degenerate_raises():
    model = EmbeddingModel(table=np.array([[1.0, 0.0], [0.0, 1e-10]]))
    with pytest.raises(DegenerateEmbedding):
        embedding_cosine_matrix(model)


def test_embedding_backward_matches_fd():
    rng = np.random.default_rng(8)
    E0 = rng.normal(size=(3, 4))
    W = rng.normal(size=(3, 3))

    def loss_of(flat):
        Q, _ = embedding_cosine_matrix(EmbeddingModel(table=flat.reshape(3, 4)))
        return float(np.sum(W * Q))

    fd = finite_diff_grad(loss_of, E0.ravel().copy(), h=1e-6)
    Q, cache = embedding_cosine_matrix(EmbeddingModel(table=E0))
    an = embedding_cosine_backward(cache, W).ravel()
    assert np.max(np.abs(fd - an) / np.maximum(1.0, np.abs(an))) <= 1e-6


def test_adam_zero_grad_is_noop():
    p = [np.array([1.0, -2.0])]
    state = init_adam(p)
    out, _ = adam_step(p, [np.zeros(2)], state)
    assert np.allclose(out[0], p[0])


def test_adam_first_step_value():
    # bias-corrected update at t=1: lr * 1 / (1 + eps)
    p = [np.array([0.0])]
    state = init_adam(p, learning_rate=0.01)
    out, _ = adam_step(p, [np.array([1.0])], state)
    expected = -0.01 * (1.0 / (1.0 + 1e-8))
    assert abs(out[0][0] - expected) <= 1e-15


def test_adam_monotone_under_constant_gradient():
    p = [np.array([0.0])]
    state = init_adam(p, learning_rate=0.01)
    p1, state = adam_step(p, [np.array([1.0])], state)
    p2, state = adam_step(p1, [np.array([1.0])], state)
    assert p1[0][0] < p[0][0]
    assert p2[0][0] < p1[0][0]


def test_adam_deterministic():
    def run():
        p = [np.array([0.3, -0.4]), np.array([[1.0, 2.0]])]
        state = init_adam(p, learning_rate=0.05)
        for i in range(5):
            g = [np.array([0.1 * i, -0.2]), np.array([[0.3, 0.01 * i]])]
            p, state = adam_step(p, g, state)
        return p

    a, b = run(), run()
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_adam_shape_mismatch():
    p = [np.zeros(2)]
    state = init_adam(p)
    with pytest.raises(DimensionMismatch):
        adam_step(p, [np.zeros(3)], state)


def test_params_csv_roundtrip(tmp_path):
    named = {"w": np.array([[1.5, -2.0], [0.25, 3.0]]), "b": np.array([0.1, 0.2, 0.3])}
    path = tmp_path / "ckpt.csv"
    save_params_csv(named, path)
    back = load_params_csv(path)
    assert set(back) == {"w", "b"}
    assert np.array_equal(back["w"], named["w"])
    assert np.array_equal(back["b"], named["b"])
