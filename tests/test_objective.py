import math

import numpy as np
import pytest

from jointhash.errors import DimensionError, NumericError
from jointhash.model import ModelParams, affine_hash, binarize, class_scores
from jointhash.objective import (
    GRADCHECK_TOLERANCE,
    GradCheckResult,
    Hyperparams,
    finite_diff_check,
    grad_params,
    gradient_check,
    gradient_check_suite,
    label_loss,
    loss_parts,
    similarity_loss,
    softplus,
    total_loss,
)


def random_setup(seed, d=5, k=4, c=3, batch=5):
    rng = np.random.default_rng(seed)
    params = ModelParams(
        hash_weights=rng.normal(0, 0.5, (k, d)),
        hash_bias=rng.normal(0, 0.5, k),
        cls_weights=rng.normal(0, 0.5, (c, k)),
        cls_bias=rng.normal(0, 0.5, c),
    )
    features = rng.normal(0, 1.0, (batch, d))
    labels = rng.integers(0, c, batch)
    return params, features, labels


class TestHyperparams:
    def test_paper_defaults(self):
        h = Hyperparams()
        assert h.eta == 0.2 and h.beta == 25.0

    @pytest.mark.parametrize("bad", [
        dict(eta=-0.1), dict(eta=1.5), dict(beta=-1.0), dict(lr=0.0),
        dict(code_bits=0), dict(batch_size=0), dict(epochs=-1),
        dict(lr=float("nan")), dict(lr=float("inf")),
        dict(beta=float("nan")), dict(beta=float("inf")),
        dict(code_bits=2**32), dict(batch_size=2**32), dict(epochs=2**32),
    ])
    def test_invalid_values(self, bad):
        with pytest.raises(ValueError):
            Hyperparams(**bad)


class TestSimilarityLoss:
    def test_zero_logit_gives_log2(self):
        u = np.zeros((2, 4))
        codes = binarize(u)
        for labels in ([0, 0], [0, 1]):
            loss = similarity_loss(u, codes, np.array(labels), beta=0.0)
            assert abs(loss - np.log(2.0)) < 1e-15

    def test_quantization_zero_at_corners(self):
        u = np.array([[1.0, -1.0], [-1.0, 1.0]])
        labels = np.array([0, 1])
        loss_b0 = similarity_loss(u, binarize(u), labels, beta=0.0)
        loss_b9 = similarity_loss(u, binarize(u), labels, beta=9.0)
        assert loss_b0 == loss_b9

    def test_quantization_positive_off_corners(self):
        u = np.array([[0.5, -1.0]])
        loss = similarity_loss(u, binarize(u), np.array([0]), beta=2.0)
        assert abs(loss - 2.0 * 0.25) < 1e-15

    def test_large_logit_no_overflow(self):
        import mpmath

        mpmath.mp.dps = 60
        # similar pair with psi = 50: term = log(1+e^50) - 50
        u = np.zeros((2, 1))
        u[0, 0] = 10.0
        u[1, 0] = 10.0
        got = similarity_loss(u, np.sign(u), np.array([4, 4]), beta=0.0)
        expected = float(mpmath.log(1 + mpmath.e**50) - 50)
        assert np.isfinite(got)
        assert abs(got - expected) <= 1e-12 * expected + 1e-30

    def test_empty_pairs_leave_quantization(self):
        u = np.array([[0.5, 0.5]])
        loss = similarity_loss(u, binarize(u), np.array([0]), beta=1.0)
        assert abs(loss - 0.5) < 1e-15

    @pytest.mark.parametrize("m", [1, 2, 7, 32])
    @pytest.mark.parametrize("label_kind", ["random", "all_equal", "all_distinct"])
    def test_matches_double_loop_oracle(self, m, label_kind):
        rng = np.random.default_rng(m)
        u = rng.normal(0.0, 2.0, (m, 6))
        codes = binarize(u)
        labels = {"random": rng.integers(0, 3, m),
                  "all_equal": np.full(m, 2),
                  "all_distinct": rng.permutation(m)}[label_kind]
        beta = 1.5
        expected = 0.0
        for i in range(m):
            for j in range(i + 1, m):
                psi = 0.5 * sum(float(a) * float(b) for a, b in zip(u[i], u[j]))
                s = 1.0 if labels[i] == labels[j] else 0.0
                expected += math.log1p(math.exp(psi)) - s * psi
        for i in range(m):
            expected += beta * sum((float(a) - float(b)) ** 2
                                   for a, b in zip(u[i], codes[i]))
        got = similarity_loss(u, codes, labels, beta)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("labels", [[0, 1], [0, 1, 2, 3], [[0, 1, 2]]])
    def test_label_count_mismatch(self, labels):
        u = np.zeros((3, 4))
        with pytest.raises(DimensionError):
            similarity_loss(u, binarize(u), np.array(labels), beta=1.0)

    def test_softplus_stability(self):
        assert softplus(1000.0) == 1000.0
        assert softplus(-1000.0) == 0.0
        assert abs(softplus(0.0) - np.log(2.0)) < 1e-16


class TestLabelLoss:
    def test_uniform_distribution(self):
        t = np.full((4, 10), 0.1)
        y = np.array([0, 3, 7, 9])
        assert abs(label_loss(t, y) - np.log(10.0)) < 1e-12

    def test_concentrated_goes_to_zero(self):
        eps = 1e-9
        t = np.array([[1.0 - 9 * eps] + [eps] * 9])
        assert label_loss(t, np.array([0])) < 1e-8

    def test_matches_definitional_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            m, c = 6, 4
            t = rng.dirichlet(np.ones(c), size=m)
            y = rng.integers(0, c, m)
            # oracle: inner product with explicit one-hot rows
            acc = 0.0
            for i in range(m):
                onehot = np.zeros(c)
                onehot[y[i]] = 1.0
                acc += float(onehot @ np.log(t[i]))
            expected = -acc / m
            assert abs(label_loss(t, y) - expected) < 1e-12

    def test_one_hot_rows_rejected(self):
        t = np.array([[0.7, 0.3], [0.2, 0.8]])
        with pytest.raises(DimensionError):
            label_loss(t, np.eye(2))

    def test_empty_batch_rejected(self):
        # the mean of no rows is 0/0; like loss_parts, refuse the batch
        with pytest.raises(ValueError, match="batch must be nonempty"):
            label_loss(np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestTotalLoss:
    def test_eta_zero_is_label_loss(self):
        for seed in range(50):
            params, features, labels = random_setup(seed)
            hyper = Hyperparams(eta=0.0)
            u = affine_hash(features, params)
            expected = label_loss(class_scores(u, params), labels)
            assert total_loss(features, labels, params, hyper) == expected

    def test_eta_one_is_similarity_loss(self):
        for seed in range(50):
            params, features, labels = random_setup(seed)
            hyper = Hyperparams(eta=1.0)
            u = affine_hash(features, params)
            expected = similarity_loss(u, binarize(u), labels, hyper.beta)
            assert total_loss(features, labels, params, hyper) == expected

    def test_convex_combination(self):
        params, features, labels = random_setup(123)
        hyper = Hyperparams(eta=0.2, beta=25.0)
        parts = loss_parts(features, labels, params, hyper)
        assert abs(parts.total
                   - (0.2 * parts.similarity + 0.8 * parts.label)) < 1e-12

    def test_positive_with_pairs(self):
        for seed in range(10):
            params, features, labels = random_setup(seed)
            for eta in (0.2, 1.0):
                assert total_loss(features, labels, params,
                                  Hyperparams(eta=eta)) > 0.0

    def test_empty_batch_rejected(self):
        params, _, _ = random_setup(0)
        with pytest.raises(ValueError):
            total_loss(np.zeros((0, 5)), np.zeros(0, dtype=int), params,
                       Hyperparams())


class TestPairwiseSlope:
    def test_similar_pair_slope_negative(self):
        # d(softplus(psi) - s*psi)/dpsi = logistic(psi) - 1 = -logistic(-psi)
        from jointhash.model import logistic

        for psi in (-3.0, 0.0, 2.5, 30.0):
            assert logistic(psi) - 1.0 < 0.0
        # beyond float64 saturation of logistic(psi), the equivalent form
        # -logistic(-psi) keeps the strict sign
        assert -logistic(-700.0) < 0.0

    def test_dissimilar_pair_slope_positive(self):
        from jointhash.model import logistic

        for psi in (-40.0, -1.0, 0.0, 3.0):
            assert logistic(psi) - 0.0 > 0.0


class TestFiniteDiffCheck:
    def test_quadratic(self):
        err = finite_diff_check(lambda x: 0.5 * float(x @ x),
                                np.array([3.0]), np.array([3.0]))
        assert err < 1e-9

    def test_logistic_derivative_at_zero(self):
        from jointhash.model import logistic

        err = finite_diff_check(lambda x: logistic(float(x[0])),
                                np.array([0.0]), np.array([0.25]))
        assert err < 1e-9

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: 0.0, np.zeros(1), np.zeros(1), h=0.0)

    @pytest.mark.parametrize("h", [-1e-5, math.nan, math.inf, -math.inf])
    def test_rejects_negative_or_non_finite_step(self, h):
        with pytest.raises(ValueError, match="step size h"):
            finite_diff_check(lambda x: 0.0, np.zeros(1), np.zeros(1), h=h)


class TestGradCheckResult:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_error_is_the_worst(self, bad):
        result = GradCheckResult(0, Hyperparams(), {"hash_weights": 1e-9,
                                                    "hash_bias": 2e-9,
                                                    "cls_bias": bad})
        assert result.worst_block == "cls_bias"
        assert not result.worst < GRADCHECK_TOLERANCE

    def test_nan_ranks_above_a_later_inf(self):
        result = GradCheckResult(0, Hyperparams(), {"hash_bias": math.nan,
                                                    "cls_bias": math.inf})
        assert result.worst_block == "hash_bias"

    def test_first_largest_error_wins_a_tie(self):
        result = GradCheckResult(0, Hyperparams(), {"hash_weights": 1e-9,
                                                    "hash_bias": 3e-9,
                                                    "cls_bias": 3e-9})
        assert (result.worst_block, result.worst) == ("hash_bias", 3e-9)


class TestGradients:
    def test_eta_zero_hash_grads_are_classifier_pullback(self):
        # dJ/du is the classifier's pullback; the hash layer maps it back
        params, features, labels = random_setup(9)
        hyper = Hyperparams(eta=0.0)
        u = affine_hash(features, params)
        t = class_scores(u, params)
        m = len(labels)
        du = (t - np.eye(params.num_classes)[labels]) @ params.cls_weights / m
        g = grad_params(loss_parts(features, labels, params, hyper), params, hyper)
        assert np.max(np.abs(g.hash_bias - du.sum(axis=0))) < 1e-14
        assert np.max(np.abs(g.hash_weights - du.T @ features)) < 1e-14

    def test_single_sample_cls_grad(self):
        params, features, labels = random_setup(10, batch=1)
        hyper = Hyperparams(eta=0.0)
        u = affine_hash(features, params)
        t = class_scores(u, params)
        g = grad_params(loss_parts(features, labels, params, hyper), params, hyper)
        expected = np.outer((t - np.eye(params.num_classes)[labels])[0], u[0])
        assert np.max(np.abs(g.cls_weights - expected)) < 1e-14

    def test_zero_features_zero_hash_weight_grad(self):
        params, _, labels = random_setup(11)
        features = np.zeros((len(labels), params.feature_dim))
        hyper = Hyperparams(eta=0.5)
        g = grad_params(loss_parts(features, labels, params, hyper), params, hyper)
        assert np.all(g.hash_weights == 0.0)

    @pytest.mark.parametrize("count", [1, 4, 6])
    def test_label_count_mismatch(self, count):
        # one label must not broadcast over a five-row batch
        params, features, _ = random_setup(13)
        with pytest.raises(DimensionError):
            loss_parts(features, np.zeros(count, dtype=int), params, Hyperparams())

    def test_corner_quantization_grad_zero(self):
        # u exactly at +-1 corners: quantization grad vanishes, pairwise stays
        k = 3
        params = ModelParams(np.eye(k), np.zeros(k), np.zeros((2, k)),
                             np.zeros(2))
        features = np.array([[1.0, -1.0, 1.0], [1.0, -1.0, 1.0]])
        labels = np.array([0, 0])
        hyper = Hyperparams(eta=1.0, beta=25.0)
        u = affine_hash(features, params)
        from jointhash.model import logistic

        psi = 0.5 * float(u[0] @ u[1])
        # both rows have dJ/du = expected_row, and W = I passes it through
        expected_row = 0.5 * (logistic(psi) - 1.0) * u[1]
        g = grad_params(loss_parts(features, labels, params, hyper), params, hyper)
        assert np.max(np.abs(g.hash_bias - 2.0 * expected_row)) < 1e-14
        assert np.max(np.abs(g.hash_weights
                             - 2.0 * np.outer(expected_row, features[0]))) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_finite_difference_random_configs(self, seed):
        rng = np.random.default_rng(seed)
        d, k, c = rng.integers(2, 9), rng.integers(1, 7), rng.integers(2, 5)
        batch = rng.integers(2, 7)
        params, features, labels = random_setup(seed + 100, d=int(d), k=int(k),
                                                c=int(c), batch=int(batch))
        hyper = Hyperparams(eta=float(rng.choice([0.0, 0.2, 1.0])),
                            beta=float(rng.choice([0.0, 25.0])))
        errors = gradient_check(features, labels, params, hyper)
        assert max(errors.values()) < 1e-4, errors

    def test_check_covers_every_block(self):
        # dJ/df is checked here although training never computes it
        params, features, labels = random_setup(12)
        errors = gradient_check(features, labels, params, Hyperparams())
        assert list(errors) == ["hash_weights", "hash_bias", "cls_weights",
                                "cls_bias", "features", "hash_like"]

    def test_suite_runs_twenty_configs(self):
        results = gradient_check_suite(seed=7, count=6)
        assert len(results) == 6
        assert all(r.worst < 1e-4 for r in results)


class TestClassIndices:
    """Labels must be integer class indices in [0, C); numpy would otherwise
    wrap a negative index round to the last class and truncate 2.5 to 2."""

    @pytest.mark.parametrize("bad", [-1, 3, 7])
    def test_out_of_range_rejected_by_loss_parts(self, bad):
        params, features, labels = random_setup(20)
        labels[2] = bad
        with pytest.raises(DimensionError, match=rf"class index {bad} .*\[0, 3\)"):
            loss_parts(features, labels, params, Hyperparams())

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_out_of_range_rejected_by_label_loss(self, bad):
        t = np.full((2, 3), 1.0 / 3.0)
        with pytest.raises(DimensionError, match=rf"class index {bad} .*\[0, 3\)"):
            label_loss(t, np.array([0, bad]))

    @pytest.mark.parametrize("bad", [2.5, -0.5, np.nan, np.inf])
    def test_non_integral_rejected(self, bad):
        params, features, labels = random_setup(21)
        floats = labels.astype(np.float64)
        floats[4] = bad
        with pytest.raises(DimensionError, match="not an integer class index"):
            loss_parts(features, floats, params, Hyperparams())
        with pytest.raises(DimensionError, match="not an integer class index"):
            label_loss(np.full((5, 3), 1.0 / 3.0), floats)

    @pytest.mark.parametrize("imag", [0.5, 0.0])
    def test_complex_rejected(self, imag):
        # even 1+0j: casting a complex array to int64 drops the imaginary part
        params, features, labels = random_setup(24)
        complex_labels = labels.astype(np.complex128)
        complex_labels[1] += 1j * imag
        with pytest.raises(DimensionError, match="complex dtype"):
            loss_parts(features, complex_labels, params, Hyperparams())
        with pytest.raises(DimensionError, match="complex dtype"):
            label_loss(np.full((5, 3), 1.0 / 3.0), complex_labels)

    def test_integral_floats_accepted(self):
        params, features, labels = random_setup(22)
        hyper = Hyperparams()
        assert loss_parts(features, labels.astype(np.float64), params, hyper) == \
            loss_parts(features, labels, params, hyper)

    def test_non_finite_u_raises_before_labels(self):
        params, features, labels = random_setup(23)
        features[0, 0] = np.inf
        with pytest.raises(NumericError):
            loss_parts(features, labels[:2] - 9, params, Hyperparams())


class TestFusedStep:
    def test_backward_leaves_forward_unchanged(self):
        params, features, labels = random_setup(30)
        hyper = Hyperparams()
        parts = loss_parts(features, labels, params, hyper)
        saved = [a.copy() for a in parts.forward]
        grad_params(parts, params, hyper)
        for before, after in zip(saved, parts.forward):
            assert np.array_equal(before, after)
        assert parts.label == label_loss(parts.forward.t, labels)

    def test_forward_left_out_of_repr_and_equality(self):
        params, features, labels = random_setup(31)
        hyper = Hyperparams()
        a = loss_parts(features, labels, params, hyper)
        b = loss_parts(features.copy(), labels, params, hyper)
        assert a == b and a.forward is not b.forward
        assert repr(a) == (f"LossParts(total={a.total!r}, "
                           f"similarity={a.similarity!r}, label={a.label!r})")

    @pytest.mark.parametrize("name", ["hash_weights", "hash_bias",
                                      "cls_weights", "cls_bias"])
    def test_non_finite_gradient_names_block(self, name, monkeypatch):
        import jointhash.objective as objective

        params, features, labels = random_setup(34)
        hyper = Hyperparams()
        parts = loss_parts(features, labels, params, hyper)
        du, grads = objective._du(parts.forward, params, hyper)
        getattr(grads, name).flat[0] = np.nan
        monkeypatch.setattr(objective, "_du", lambda *args: (du, grads))
        with pytest.raises(NumericError, match=f"gradient in block '{name}'"):
            grad_params(parts, params, hyper)

    def test_pair_positions_cached_read_only(self):
        from jointhash.objective import _pair_positions

        k = _pair_positions(6)
        assert _pair_positions(6) is k
        i, j = np.triu_indices(6, k=1)
        assert np.array_equal(k, i * 6 + j)
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k[0] = 5

    def test_gradient_check_one_backward_pass(self, monkeypatch):
        import jointhash.objective as objective

        calls = []
        real = objective._du

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(objective, "_du", counted)
        params, features, labels = random_setup(33)
        gradient_check(features, labels, params, Hyperparams())
        assert len(calls) == 1

    @pytest.mark.parametrize("m", [1, 2, 32])
    @pytest.mark.parametrize("k", [1, 16, 33, 64])
    def test_batch_similarity_equals_public_loss(self, k, m):
        params, features, labels = random_setup(40 + k + m, d=8, k=k, c=3,
                                                batch=m)
        hyper = Hyperparams(beta=25.0)
        parts = loss_parts(features, labels, params, hyper)
        u = affine_hash(features, params)
        expected = similarity_loss(u, binarize(u), labels, hyper.beta)
        assert parts.similarity.hex() == expected.hex()

    def test_forward_holds_pair_logits_and_backward_keeps_them(self):
        params, features, labels = random_setup(35, k=16, batch=32)
        hyper = Hyperparams()
        parts = loss_parts(features, labels, params, hyper)
        fw = parts.forward
        u = affine_hash(features, params)
        assert fw.x.tobytes() == (0.5 * (u @ u.T)).tobytes()
        assert fw.e.tobytes() == np.exp(-np.abs(fw.x)).tobytes()
        x, e = fw.x.copy(), fw.e.copy()
        grad_params(parts, params, hyper)
        assert fw.x.tobytes() == x.tobytes() and fw.e.tobytes() == e.tobytes()
