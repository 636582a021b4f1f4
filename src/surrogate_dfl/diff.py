"""Predictive models with explicit layer-wise gradients, plus Adam.

The computation graph here is fixed (model -> optimization layer ->
objective), so instead of a tape-based autodiff engine each model exposes a
forward that returns a cache and a backward that consumes it.  tanh hidden
activations keep the predicted parameters smooth for the KKT differentiation
downstream.  An MLP pass runs its rows in blocks of ROW_BLOCK, which share
the pass's weights and keep each block's activations in cache.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateEmbedding, DimensionMismatch

EMBEDDING_NORM_FLOOR = 1e-8
# rows per block of an MLP pass: a block's (256, 100) activations, 200 KB,
# stay in cache through the layers, where a 4,200-row pass's did not (its
# backward took 11 ms on one core against 7 ms in 256-row blocks)
ROW_BLOCK = 256


@dataclass
class MlpModel:
    """Fully connected network, tanh on hidden layers, identity output.

    weights[l] has shape (out_l, in_l); biases[l] has shape (out_l,).
    """

    weights: list
    biases: list

    def parameters(self):
        """Flat list of parameter arrays, weights interleaved with biases."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    def set_parameters(self, params):
        L = len(self.weights)
        for l in range(L):
            self.weights[l] = params[2 * l]
            self.biases[l] = params[2 * l + 1]


def init_mlp(widths, seed) -> MlpModel:
    """Uniform [-a, a] init with a = sqrt(6 / (fan_in + fan_out)), zero biases."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths[:-1], widths[1:]):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-a, a, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases)


def mlp_forward_batch(model: MlpModel, features):
    """Evaluate the network on each row of a feature matrix: (batch, in) -> (batch, out).

    Returns (output, cache); the cache holds every layer activation and is
    what mlp_backward_batch consumes.  Rows run through all layers in blocks
    of ROW_BLOCK, so each block's activations stay in cache from one layer
    to the next; every row's output is the one a single block would give.
    """
    X = np.atleast_2d(np.asarray(features, dtype=float))
    if X.shape[1] != model.weights[0].shape[1]:
        raise DimensionMismatch("feature width does not match first layer input")
    activations = [X] + [np.empty((X.shape[0], W.shape[0])) for W in model.weights]
    L = len(model.weights)
    for rows in _row_blocks(X.shape[0]):
        for l, (W, b) in enumerate(zip(model.weights, model.biases)):
            # in place: a temporary per layer and block would cost an allocation each
            Z = activations[l + 1][rows]
            np.matmul(activations[l][rows], W.T, out=Z)
            Z += b
            if l < L - 1:
                np.tanh(Z, out=Z)
    return activations[-1], activations


def mlp_backward_batch(model: MlpModel, cache, dL_doutput):
    """Layer-wise chain rule from a (batch, out) output cotangent.

    Returns the parameter gradients, summed over the batch, in
    model.parameters() ordering.  Each block of ROW_BLOCK rows runs its own
    chain rule and the blocks' gradients are summed in order, so a pass of
    one block gives exactly the gradients of the plain formulas.
    """
    G = np.asarray(dL_doutput, dtype=float)
    if G.shape != cache[-1].shape:
        raise DimensionMismatch("output cotangent shape does not match forward output")
    L = len(model.weights)
    grads = [None] * (2 * L)  # model.parameters() ordering: dW_0, db_0, dW_1, ...
    for rows in _row_blocks(G.shape[0]):
        delta = G[rows]
        for l in range(L - 1, -1, -1):
            a = cache[l][rows]
            block = (delta.T @ a, delta.sum(axis=0))
            for i, g in zip((2 * l, 2 * l + 1), block):
                if grads[i] is None:
                    grads[i] = g
                else:
                    grads[i] += g
            if l > 0:
                # a = tanh(z_l) on hidden layers, so tanh' = 1 - a^2, formed in place
                d = a * a
                np.subtract(1.0, d, out=d)
                delta = delta @ model.weights[l]
                delta *= d
    return grads


def _row_blocks(n_rows):
    """Slices of consecutive ROW_BLOCK rows covering n_rows (one, empty, when 0)."""
    return [slice(start, start + ROW_BLOCK) for start in range(0, max(n_rows, 1), ROW_BLOCK)]


@dataclass
class EmbeddingModel:
    """One d-dimensional embedding per item; rows of `table`."""

    table: np.ndarray

    def parameters(self):
        return [self.table]

    def set_parameters(self, params):
        self.table = params[0]


def init_embeddings(n_items, dim, seed) -> EmbeddingModel:
    rng = np.random.default_rng(seed)
    return EmbeddingModel(rng.normal(0.0, 1.0, size=(n_items, dim)))


def embedding_cosine_matrix(model: EmbeddingModel):
    """Pairwise cosine similarity matrix of the embeddings.

    Returns (Q, cache).  Q is symmetric with unit diagonal and entries in
    [-1, 1].  Raises DegenerateEmbedding when any row norm is below 1e-8.
    """
    E = np.asarray(model.table, dtype=float)
    if E.ndim != 2 or E.shape[0] < 2:
        raise DimensionMismatch("need at least two embeddings")
    norms = np.linalg.norm(E, axis=1)
    if np.any(norms < EMBEDDING_NORM_FLOOR):
        raise DegenerateEmbedding("embedding norm below 1e-8")
    U = E / norms[:, None]
    Q = U @ U.T
    np.fill_diagonal(Q, 1.0)
    Q = np.clip(Q, -1.0, 1.0)
    return Q, (U, norms, Q)


def embedding_cosine_backward(cache, dL_dQ):
    """Gradient of a scalar loss w.r.t. the embedding table.

    dQ_ij/de_i = (u_j - Q_ij u_i) / ||e_i||, which vanishes on the diagonal,
    so a cotangent on the constant unit diagonal contributes nothing.
    """
    U, norms, Q = cache
    G = np.asarray(dL_dQ, dtype=float)
    if G.shape != Q.shape:
        raise DimensionMismatch("dL_dQ shape does not match Q")
    S = G + G.T  # Q_ij appears with both index orders
    dE = (S @ U - (S * Q).sum(axis=1)[:, None] * U) / norms[:, None]
    return dE


@dataclass
class AdamState:
    """Bias-corrected Adam accumulators, one pair of moments per parameter array."""

    m: list
    v: list
    step: int = 0
    learning_rate: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adam(params, learning_rate: float = 0.01) -> AdamState:
    return AdamState(
        m=[np.zeros_like(p) for p in params],
        v=[np.zeros_like(p) for p in params],
        learning_rate=learning_rate,
    )


def adam_step(params, grads, state: AdamState):
    """One bias-corrected Adam update; returns (new_params, state).

    The state is updated in place (step counter and moments); parameter
    arrays are fresh, so callers can keep checkpoints by reference.
    """
    if len(params) != len(grads) or len(params) != len(state.m):
        raise DimensionMismatch("parameter/gradient/state lengths differ")
    for p, g in zip(params, grads):
        if p.shape != g.shape:
            raise DimensionMismatch(f"gradient shape {g.shape} != param shape {p.shape}")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    out = []
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = b1 * state.m[i] + (1 - b1) * g
        state.v[i] = b2 * state.v[i] + (1 - b2) * g * g
        m_hat = state.m[i] / (1 - b1**t)
        v_hat = state.v[i] / (1 - b2**t)
        out.append(p - state.learning_rate * m_hat / (np.sqrt(v_hat) + state.eps))
    return out, state


def save_params_csv(named_params, path) -> None:
    """Checkpoint a dict of name -> array as flat CSV rows (name, shape, values)."""
    with open(path, "w") as fh:
        for name, arr in named_params.items():
            arr = np.asarray(arr, dtype=float)
            shape = "x".join(str(s) for s in arr.shape)
            values = ",".join(format(v, ".17g") for v in arr.ravel())
            fh.write(f"{name},{shape},{values}\n")


def load_params_csv(path) -> dict:
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            name, shape, *values = line.split(",")
            dims = tuple(int(s) for s in shape.split("x") if s)
            out[name] = np.array([float(v) for v in values]).reshape(dims)
    return out
