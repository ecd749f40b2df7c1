import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointhash.errors import DimensionError, NumericError
from jointhash.model import (
    BLOCK_NAMES,
    ModelParams,
    affine_hash,
    binarize,
    class_scores,
    logistic,
    pack_codes,
    predict_labels,
    unpack_codes,
)
from jointhash.objective import Hyperparams, grad_params, loss_parts


def make_params(k=2, d=2, c=3, seed=0):
    rng = np.random.default_rng(seed)
    return ModelParams(
        hash_weights=rng.normal(size=(k, d)),
        hash_bias=rng.normal(size=k),
        cls_weights=rng.normal(size=(c, k)),
        cls_bias=rng.normal(size=c),
    )


class TestAffineHash:
    def test_identity(self):
        params = ModelParams(np.eye(2), np.zeros(2), np.zeros((2, 2)), np.zeros(2))
        u = affine_hash(np.array([0.3, -0.7]), params)
        assert np.allclose(u, [0.3, -0.7], atol=0, rtol=0)

    def test_zero_weights_give_bias(self):
        params = ModelParams(np.zeros((2, 3)), np.array([1.0, -1.0]),
                             np.zeros((2, 2)), np.zeros(2))
        u = affine_hash(np.array([5.0, -2.0, 9.0]), params)
        assert np.array_equal(u, [1.0, -1.0])

    def test_matches_naive_oracle(self):
        # independent oracle: scalar loops, no matmul
        rng = np.random.default_rng(42)
        w = rng.normal(size=(4, 3))
        b = rng.normal(size=4)
        f = rng.normal(size=3)
        params = ModelParams(w, b, np.zeros((2, 4)), np.zeros(2))
        expected = np.empty(4)
        for i in range(4):
            acc = b[i]
            for j in range(3):
                acc += w[i, j] * f[j]
            expected[i] = acc
        assert np.max(np.abs(affine_hash(f, params) - expected)) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            affine_hash(np.zeros(5), make_params(k=2, d=3))

    def test_batch_shape(self):
        params = make_params(k=4, d=3)
        out = affine_hash(np.zeros((7, 3)), params)
        assert out.shape == (7, 4)


class TestBinarize:
    def test_signs(self):
        assert np.array_equal(binarize(np.array([0.3, -0.7])), [1, -1])

    def test_zero_maps_to_minus_one(self):
        assert np.array_equal(binarize(np.array([0.0, 2.0])), [-1, 1])

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            binarize(np.array([0.1, np.nan]))

    # subnormal values are left out: c * 5e-324 can round to 0, whose sign
    # is -1, so the invariance holds only where c * u cannot underflow
    @given(st.floats(min_value=1e-6, max_value=1e6),
           st.lists(st.floats(min_value=-100, max_value=100,
                              allow_subnormal=False), min_size=1, max_size=32))
    def test_positive_scaling_invariance(self, c, values):
        u = np.array(values)
        assert np.array_equal(binarize(c * u), binarize(u))

    def test_matches_where_formula(self):
        # the earlier int64 np.where form, kept as the reference
        rng = np.random.default_rng(0)
        u = np.concatenate([rng.normal(size=(4096, 48)).ravel(),
                            [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]])
        got = binarize(u)
        want = np.where(u > 0, 1, -1).astype(np.int8)
        assert got.dtype == np.int8
        assert np.array_equal(got, want)


class TestLogistic:
    def test_zero(self):
        assert logistic(0.0) == 0.5

    def test_ln3(self):
        assert abs(logistic(np.log(3.0)) - 0.75) < 1e-15

    def test_matches_high_precision_oracle(self):
        import mpmath

        mpmath.mp.dps = 50
        for x in (-50.0, -3.2, 0.7, 30.0, -700.0, 700.0):
            expected = float(1 / (1 + mpmath.e ** (-mpmath.mpf(x))))
            got = logistic(x)
            assert abs(got - expected) <= 1e-15 * max(abs(expected), 1e-300)

    def test_extreme_inputs_stay_finite(self):
        assert 0.0 < logistic(-700.0) < 1e-300 or logistic(-700.0) > 0
        assert logistic(700.0) == 1.0
        out = logistic(np.array([-700.0, 700.0]))
        assert np.all(np.isfinite(out))


    def test_bitwise_equal_to_masked_formula(self):
        # the earlier boolean-mask form, kept as the reference
        def masked(x):
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        rng = np.random.default_rng(0)
        special = [0.0, 700.0, 745.0, 1e-300, np.inf]
        x = np.concatenate([rng.normal(size=10**6), special,
                            [-v for v in special]])
        got = logistic(x)
        assert got.dtype == np.float64
        assert np.array_equal(got.view(np.uint64), masked(x).view(np.uint64))

    def test_scalar_in_float_out(self):
        assert type(logistic(1.5)) is float
        assert type(logistic(np.float64(-2.0))) is float


class TestClassScores:
    def test_uniform_for_equal_scores(self):
        params = ModelParams(np.eye(1), np.zeros(1), np.zeros((3, 1)),
                             np.zeros(3))
        t = class_scores(np.array([2.5]), params)
        assert np.allclose(t, 1 / 3, atol=1e-15)

    def test_closed_form_two_class(self):
        # scores (ln 2, 0) -> (2/3, 1/3)
        params = ModelParams(np.eye(1), np.zeros(1),
                             np.array([[0.0], [0.0]]),
                             np.array([np.log(2.0), 0.0]))
        t = class_scores(np.array([0.0]), params)
        assert np.allclose(t, [2 / 3, 1 / 3], atol=1e-15)

    def test_shift_invariance(self):
        params = make_params(k=3, d=2, c=4, seed=1)
        u = np.array([0.4, -1.2, 0.9])
        shifted = ModelParams(params.hash_weights, params.hash_bias,
                              params.cls_weights, params.cls_bias + 1000.0)
        assert np.max(np.abs(class_scores(u, params)
                             - class_scores(u, shifted))) < 1e-12

    def test_distribution_invariants(self):
        rng = np.random.default_rng(7)
        params = make_params(k=5, d=2, c=6, seed=2)
        for _ in range(50):
            t = class_scores(rng.normal(size=5) * 2, params)
            assert np.all(t > 0) and np.all(t < 1)
            assert abs(t.sum() - 1.0) < 1e-12

    def test_extreme_scores_stay_normalized(self):
        # components may saturate to 0/1 in float64 but never leave [0,1]
        params = ModelParams(np.eye(2), np.zeros(2),
                             np.array([[500.0, 0.0], [-500.0, 0.0]]),
                             np.zeros(2))
        t = class_scores(np.array([3.0, 0.0]), params)
        assert np.all(t >= 0) and np.all(t <= 1)
        assert abs(t.sum() - 1.0) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            class_scores(np.zeros(4), make_params(k=3))


class TestPredictLabel:
    def test_argmax(self):
        assert predict_labels(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_breaks_low(self):
        assert predict_labels(np.array([[0.5, 0.5], [0.2, 0.2]])).tolist() == [0, 0]

    def test_matches_score_argmax(self):
        rng = np.random.default_rng(3)
        params = make_params(k=4, d=3, c=5, seed=4)
        for _ in range(100):
            u = rng.normal(size=4) * 3
            scores = u @ params.cls_weights.T + params.cls_bias
            assert predict_labels(class_scores(u, params)) == int(np.argmax(scores))

    def test_batch_variant(self):
        t = np.array([[0.2, 0.8], [0.9, 0.1]])
        assert np.array_equal(predict_labels(t), [1, 0])

    def test_bias_shift_does_not_change_label(self):
        params = make_params(k=3, d=2, c=4, seed=5)
        u = np.array([1.0, -2.0, 0.5])
        shifted = ModelParams(params.hash_weights, params.hash_bias,
                              params.cls_weights, params.cls_bias - 42.0)
        assert (predict_labels(class_scores(u, params))
                == predict_labels(class_scores(u, shifted)))


class TestPacking:
    @given(st.integers(min_value=1, max_value=256), st.integers(0, 2**32))
    @settings(max_examples=120, deadline=None)
    def test_roundtrip_all_widths(self, k, seed):
        rng = np.random.default_rng(seed)
        signs = np.where(rng.random(k) > 0.5, 1, -1).astype(np.int8)
        packed = pack_codes(signs)
        assert packed.shape == ((k + 63) // 64,)
        assert np.array_equal(unpack_codes(packed, k), signs)

    def test_batch_roundtrip(self):
        rng = np.random.default_rng(11)
        signs = np.where(rng.random((10, 100)) > 0.5, 1, -1)
        packed = pack_codes(signs)
        assert packed.shape == (10, 2)
        assert np.array_equal(unpack_codes(packed, 100), signs)

    def test_pad_bits_zero(self):
        signs = np.ones(65, dtype=np.int8)  # one bit spills into word 2
        packed = pack_codes(signs)
        assert packed[1] == 1  # only bit 0 of the second word set

    def test_bit_layout_little_endian(self):
        # +1 at positions 0 and 8 -> bits 0 and 8 of word 0
        signs = -np.ones(16, dtype=np.int8)
        signs[0] = 1
        signs[8] = 1
        packed = pack_codes(signs)
        assert packed[0] == (1 << 0) | (1 << 8)

    def test_rejects_non_sign_values(self):
        with pytest.raises(NumericError):
            pack_codes(np.array([1, 0, -1]))

    def test_word_count_mismatch(self):
        with pytest.raises(DimensionError):
            unpack_codes(np.zeros(2, dtype=np.uint64), 200)


def make_grads(k=2, d=2, c=3, seed=9):
    """The gradients of a real backward pass, a ModelParams as params are."""
    params = make_params(k, d, c, seed)
    rng = np.random.default_rng(seed)
    features, labels = rng.normal(size=(4, d)), rng.integers(0, c, 4)
    hyper = Hyperparams()
    return grad_params(loss_parts(features, labels, params, hyper), params, hyper)


def assert_views_of_flat(obj):
    """Every block is a view of obj.flat, laid out in BLOCK_NAMES order."""
    blocks = obj.blocks()
    assert list(blocks) == list(BLOCK_NAMES)
    for block in blocks.values():
        assert block.base is obj.flat
    assert np.array_equal(obj.flat,
                          np.concatenate([b.ravel() for b in blocks.values()]))


@pytest.mark.parametrize("make", [make_params, make_grads],
                         ids=["ModelParams", "grad_params"])
class TestFlatBuffer:
    def test_blocks_are_views_of_flat(self, make):
        obj = make(k=3, d=4, c=2)
        assert obj.flat.shape == (3 * 4 + 3 + 2 * 3 + 2,)
        assert obj.flat.dtype == np.float64
        assert_views_of_flat(obj)
        obj.flat[:] = 0.0
        assert all(not b.any() for b in obj.blocks().values())

    def test_constructor_copies_its_inputs(self, make):
        obj = make()
        inputs = {name: block.copy() for name, block in obj.blocks().items()}
        again = type(obj)(**inputs)
        for block in inputs.values():
            block[...] = 7.0
        assert np.array_equal(again.flat, obj.flat)

    @pytest.mark.parametrize("duplicate", [
        copy.deepcopy,
        copy.copy,
        lambda obj: pickle.loads(pickle.dumps(obj)),
    ], ids=["deepcopy", "copy", "pickle"])
    def test_copies_own_their_buffer(self, make, duplicate):
        obj = make(k=3, d=4, c=2)
        dup = duplicate(obj)
        assert type(dup) is type(obj)
        assert_views_of_flat(dup)
        assert not np.shares_memory(dup.flat, obj.flat)
        assert np.array_equal(dup.flat, obj.flat)
        for name, block in dup.blocks().items():
            assert block.shape == getattr(obj, name).shape


class TestNonFiniteParams:
    @pytest.mark.parametrize("name", BLOCK_NAMES)
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_names_the_block(self, name, bad):
        blocks = make_params(k=3, d=4, c=2).blocks()
        blocks[name] = blocks[name].copy()
        blocks[name].flat[-1] = bad
        with pytest.raises(NumericError, match=f"parameter block '{name}'"):
            ModelParams(**blocks)


def test_classifier_without_classes_rejected():
    with pytest.raises(DimensionError, match="no classes"):
        ModelParams(np.zeros((2, 3)), np.zeros(2), np.zeros((0, 2)), np.zeros(0))


@pytest.mark.parametrize("make", [make_params], ids=["ModelParams"])
class TestEquality:
    def test_equal_blocks_compare_equal(self, make):
        a, b = make(k=3, d=4, c=2), make(k=3, d=4, c=2)
        assert a is not b
        assert a == b and not a != b

    def test_one_changed_element_compares_unequal(self, make):
        a = make(k=3, d=4, c=2)
        b = copy.deepcopy(a)
        b.cls_bias[-1] = np.nextafter(b.cls_bias[-1], np.inf)
        assert a != b and not a == b

    def test_same_flat_under_other_shapes_compares_unequal(self, make):
        # K=1, D=4, C=4 and K=2, D=1, C=3 both hold 13 numbers
        a = make(k=1, d=4, c=4)
        flat = a.flat.copy()
        b = type(a)(flat[:2].reshape(2, 1), flat[2:4],
                    flat[4:10].reshape(3, 2), flat[10:])
        assert np.array_equal(a.flat, b.flat)
        assert a != b
