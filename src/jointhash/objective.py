"""Joint training objective: pairwise similarity + quantization + cross-entropy.

The loss over a minibatch of hash-like features u_i with sign codes b_i and
class distributions t_i is

    J = eta * L_sim + (1 - eta) * L_label

    L_sim   = sum over pairs (i,j) of [softplus(psi_ij) - s_ij * psi_ij]
              + beta * sum_i ||u_i - b_i||^2,   psi_ij = u_i . u_j / 2
    L_label = -(1/N) * sum_i log t_i[y_i]

where s_ij = 1 when samples i and j share a class and pairs run over all
unordered within-batch pairs. Codes b_i are the sign snapshot of u_i and are
treated as constants when differentiating.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .data import class_indices
from .errors import DimensionError, NumericError
from .index import U32_MAX
from .model import (
    ModelParams,
    _exp_neg_abs,
    _logistic,
    affine_hash,
    binarize,
    class_scores,
)

LOG_FLOOR = 1e-300


@dataclass
class Hyperparams:
    """Knobs of the joint objective and its SGD solver."""

    eta: float = 0.2
    beta: float = 25.0
    lr: float = 3e-4
    code_bits: int = 16
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta must lie in [0, 1], got {self.eta}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"learning rate must be finite and > 0, got {self.lr}")
        if self.code_bits < 1:
            raise ValueError(f"code_bits must be >= 1, got {self.code_bits}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        for name in ("code_bits", "batch_size", "epochs"):  # u32 in a checkpoint
            if getattr(self, name) > U32_MAX:
                raise ValueError(f"{name} must be <= {U32_MAX}, "
                                 f"got {getattr(self, name)}")


# one batch's forward pass: features, class indices, u, codes, class scores,
# the one-hot label mask, the same-class mask y_i == y_j, the quantization gap
# u - b, the pair logits x (the m x m matrix psi_ij = u_i . u_j / 2) and
# e = exp(-|x|)
_Forward = namedtuple("_Forward", "f y u b t onehot same gap x e")


@dataclass
class LossParts:
    """Per-batch values of the joint loss and its two components."""

    total: float
    similarity: float
    label: float
    forward: _Forward = field(repr=False, compare=False)  # for grad_params


def _softplus(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)) from x and e = exp(-|x|), as max(x, 0) + log1p(e)."""
    return np.maximum(x, 0.0) + np.log1p(e)


def softplus(x):
    """log(1 + exp(x)) in the overflow-safe form max(x,0) + log1p(exp(-|x|))."""
    x = np.asarray(x, dtype=np.float64)
    return _softplus(x, _exp_neg_abs(x))


@functools.lru_cache(maxsize=16)
def _pair_positions(m: int) -> np.ndarray:
    """Read-only flat positions i * m + j of the pairs i < j in an m x m array."""
    i, j = np.triu_indices(m, k=1)
    k = i * m + j
    k.flags.writeable = False
    return k


def _pair_logits(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = psi_ij = u_i . u_j / 2 for every i, j, and e = exp(-|x|)."""
    x = 0.5 * (u @ u.T)
    return x, _exp_neg_abs(x)


def _codes_match(u: np.ndarray, codes: np.ndarray) -> None:
    if codes.shape != u.shape:
        raise DimensionError(f"codes shape {codes.shape} does not match u {u.shape}")


def _similarity_loss(x: np.ndarray, e: np.ndarray, same: np.ndarray,
                     gap: np.ndarray, beta: float) -> float:
    """L_sim from the pair logits x and e = exp(-|x|), the same-class mask and
    the quantization gap u - b."""
    k = _pair_positions(x.shape[0])
    psi = x.ravel().take(k)
    # softplus(psi) - s*psi is softplus(-psi) for similar pairs (s = 1) and
    # softplus(psi) otherwise; the folded form avoids cancellation for
    # confident similar pairs, and exp(-|-psi|) is e as well
    pairwise = float(np.add.reduce(
        _softplus(np.where(same.ravel().take(k), -psi, psi), e.ravel().take(k))))
    quantization = beta * float(np.add.reduce(gap ** 2, axis=None))
    return pairwise + quantization


def similarity_loss(u: np.ndarray, codes: np.ndarray, labels: np.ndarray,
                    beta: float) -> float:
    """Pairwise negative log-likelihood over all pairs i < j, plus quantization."""
    u = np.asarray(u, dtype=np.float64)
    c = np.asarray(codes, dtype=np.float64)
    y = np.asarray(labels)
    _codes_match(u, c)
    if y.shape != (u.shape[0],):
        raise DimensionError(f"labels have shape {y.shape}, expected one per row "
                             f"of u ({u.shape[0]})")
    return _similarity_loss(*_pair_logits(u), y[:, None] == y[None, :], u - c, beta)


def _onehot(y: np.ndarray, classes: int) -> np.ndarray:
    """The (m, classes) bool mask with one True per row, at its class index."""
    return y[:, None] == np.arange(classes)


def _label_loss(t: np.ndarray, onehot: np.ndarray) -> float:
    m = t.shape[0]
    picked = t[onehot]  # t_i[y_i], one per row, in row order
    # -(sum of logs) is the sum of the negated logs, bit for bit
    return -float(np.add.reduce(np.log(np.maximum(picked, LOG_FLOOR)))) / m


def label_loss(distributions: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of integer class labels."""
    t = np.atleast_2d(np.asarray(distributions, dtype=np.float64))
    if t.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    y = class_indices(labels, t.shape[0], t.shape[1], DimensionError)
    return _label_loss(t, _onehot(y, t.shape[1]))


def _forward(features, labels, params: ModelParams, codes) -> _Forward:
    f = np.atleast_2d(np.asarray(features, dtype=np.float64))
    if f.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    u = affine_hash(f, params)
    b = binarize(u) if codes is None else np.asarray(codes)
    y = class_indices(labels, f.shape[0], params.num_classes, DimensionError)
    _codes_match(u, b)
    return _Forward(f, y, u, b, class_scores(u, params),
                    _onehot(y, params.num_classes), y[:, None] == y[None, :],
                    u - b, *_pair_logits(u))


def loss_parts(features: np.ndarray, labels: np.ndarray, params: ModelParams,
               hyper: Hyperparams, codes: np.ndarray | None = None) -> LossParts:
    """Forward pass, joint loss and its components on one batch.

    codes, when given, override the sign snapshot of u (used by the
    finite-difference harness to hold b fixed while perturbing parameters).
    """
    fw = _forward(features, labels, params, codes)
    sim = _similarity_loss(fw.x, fw.e, fw.same, fw.gap, hyper.beta)
    lab = _label_loss(fw.t, fw.onehot)
    total = hyper.eta * sim + (1.0 - hyper.eta) * lab
    return LossParts(total=total, similarity=sim, label=lab, forward=fw)


def total_loss(features: np.ndarray, labels: np.ndarray, params: ModelParams,
               hyper: Hyperparams, codes: np.ndarray | None = None) -> float:
    return loss_parts(features, labels, params, hyper, codes).total


def _du(fw: _Forward, params: ModelParams,
        hyper: Hyperparams) -> tuple[np.ndarray, ModelParams]:
    """Backward pass over fw: dJ/du_i for every sample and the block gradients."""
    u = fw.u
    m = u.shape[0]
    # bool masks subtract as 0.0 and 1.0; label_loss read t, so the residual
    # t - onehot(y) is a new array
    g = fw.t - fw.onehot
    g *= 1.0 - hyper.eta
    g /= m  # (1 - eta) * (t - onehot(y)) / m

    # all unordered pairs: (a - s) is symmetric, diagonal excluded
    mism = _logistic(fw.x, fw.e)
    mism -= fw.same
    mism.flat[::m + 1] = 0.0  # the diagonal
    du = mism @ u
    du *= 0.5
    du += 2.0 * hyper.beta * fw.gap
    du *= hyper.eta  # eta * dL_sim/du + dL_label/du
    du += g @ params.cls_weights

    grads = ModelParams._like(params)
    np.matmul(du.T, fw.f, out=grads.hash_weights)
    np.add.reduce(du, axis=0, out=grads.hash_bias)
    np.matmul(g.T, u, out=grads.cls_weights)
    np.add.reduce(g, axis=0, out=grads.cls_bias)
    return du, grads


def grad_params(parts: LossParts, params: ModelParams,
                hyper: Hyperparams) -> ModelParams:
    """Backward pass over parts' batch, at the params loss_parts ran with."""
    grads = _du(parts.forward, params, hyper)[1]
    bad = grads._nonfinite_block()
    if bad is not None:
        raise NumericError(f"non-finite gradient in block {bad!r}")
    return grads


def finite_diff_check(fn, x: np.ndarray, analytic: np.ndarray,
                      h: float = 1e-5) -> float:
    """Worst relative disagreement between `analytic` and central differences.

    fn maps a flat float64 vector to a scalar. The per-coordinate error is
    |a - n| / max(|a|, |n|, 1e-8).
    """
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"step size h must be finite and positive, got {h}")
    x = np.asarray(x, dtype=np.float64).copy()
    a = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.empty_like(a)
    for i in range(x.size):
        orig = x[i]
        x[i] = orig + h
        f_plus = fn(x)
        x[i] = orig - h
        f_minus = fn(x)
        x[i] = orig
        numeric[i] = (f_plus - f_minus) / (2.0 * h)
    if a.size == 0:
        return 0.0
    denom = np.maximum(np.maximum(np.abs(a), np.abs(numeric)), 1e-8)
    return float(np.max(np.abs(a - numeric) / denom))


def gradient_check(features: np.ndarray, labels: np.ndarray, params: ModelParams,
                   hyper: Hyperparams) -> dict[str, float]:
    """Check every analytic gradient block against central differences
    (finite_diff_check's default step).

    Covers the four parameter blocks, the per-sample feature gradient, and
    the hash-like gradient (the loss differentiated directly in u). The sign
    codes are frozen at the unperturbed point, matching their treatment in
    the analytic gradients. Returns worst relative error per block.
    """
    fw = _forward(features, labels, params, None)
    f0, y, u0, codes = fw.f, fw.y, fw.u, fw.b
    du, grads = _du(fw, params, hyper)

    def with_block(name, flat):
        blocks = params.blocks()  # a new dict; ModelParams copies its blocks
        blocks[name] = flat.reshape(blocks[name].shape)
        return ModelParams(**blocks)

    errors = {}
    for name, analytic in grads.blocks().items():
        def fn(flat, _name=name):
            return total_loss(f0, y, with_block(_name, flat), hyper, codes=codes)

        errors[name] = finite_diff_check(fn, params.blocks()[name].ravel(),
                                         analytic)

    def fn_features(flat):
        return total_loss(flat.reshape(f0.shape), y, params, hyper, codes=codes)

    # dJ/df_i, the gradient an upstream feature extractor would receive
    errors["features"] = finite_diff_check(fn_features, f0.ravel(),
                                           du @ params.hash_weights)

    def fn_u(flat):
        u = flat.reshape(u0.shape)
        sim = similarity_loss(u, codes, y, hyper.beta)
        lab = label_loss(class_scores(u, params), y)
        return hyper.eta * sim + (1.0 - hyper.eta) * lab

    errors["hash_like"] = finite_diff_check(fn_u, u0.ravel(), du)
    return errors


GRADCHECK_TOLERANCE = 1e-4

_GRADCHECK_ETAS = (0.0, 0.2, 1.0)
_GRADCHECK_BETAS = (0.0, 25.0)


@dataclass
class GradCheckResult:
    """Per-configuration outcome of the finite-difference suite."""

    index: int
    hyper: Hyperparams
    errors: dict[str, float]

    @property
    def worst_block(self) -> str:
        """The block with the largest error; a NaN counts as the largest."""
        names = list(self.errors)
        # argmax, unlike max(), stops at the first NaN
        return names[int(np.argmax([self.errors[n] for n in names]))]

    @property
    def worst(self) -> float:
        return self.errors[self.worst_block]


def gradient_check_suite(seed: int = 0, count: int = 20) -> list[GradCheckResult]:
    """Finite-difference verification over random small configurations.

    Cycles eta through {0, 0.2, 1} and beta through {0, 25} while drawing
    dimensions (D <= 8, K <= 6, C <= 4, batch <= 6), parameters, and features
    at random.
    """
    results = []
    for i in range(count):
        rng = np.random.default_rng([seed, i])
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, 7))
        c = int(rng.integers(2, 5))
        batch = int(rng.integers(2, 7))
        hyper = Hyperparams(eta=_GRADCHECK_ETAS[i % 3],
                            beta=_GRADCHECK_BETAS[i % 2],
                            code_bits=k, batch_size=batch)
        params = ModelParams(
            hash_weights=rng.normal(0.0, 0.5, (k, d)),
            hash_bias=rng.normal(0.0, 0.5, k),
            cls_weights=rng.normal(0.0, 0.5, (c, k)),
            cls_bias=rng.normal(0.0, 0.5, c),
        )
        features = rng.normal(0.0, 1.0, (batch, d))
        labels = rng.integers(0, c, batch)
        errors = gradient_check(features, labels, params, hyper)
        results.append(GradCheckResult(index=i, hyper=hyper, errors=errors))
    return results
