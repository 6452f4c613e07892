"""Unit + property tests for the functional autodiff operations."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.autodiff import (
    Tensor,
    as_tensor,
    check_gradients,
    concat,
    cross_entropy,
    dropout,
    huber_loss,
    log_softmax,
    mae_loss,
    masked_softmax,
    maximum,
    mse_loss,
    softmax,
    stack,
    where,
)


class TestJoins:
    def test_concat_values(self):
        out = concat([Tensor([1.0, 2.0]), Tensor([3.0])], axis=0)
        assert np.allclose(out.data, [1, 2, 3])

    def test_concat_axis_last(self):
        a = Tensor(np.ones((2, 2)))
        b = Tensor(np.zeros((2, 3)))
        assert concat([a, b], axis=-1).shape == (2, 5)

    def test_concat_gradcheck(self, rng):
        a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        check_gradients(lambda: (concat([a, b], axis=1) ** 2).sum(), [a, b])

    def test_stack_values(self):
        out = stack([Tensor([1.0, 2.0]), Tensor([3.0, 4.0])], axis=0)
        assert out.shape == (2, 2)
        assert np.allclose(out.data, [[1, 2], [3, 4]])

    def test_stack_gradcheck(self, rng):
        a = Tensor(rng.normal(size=3), requires_grad=True)
        b = Tensor(rng.normal(size=3), requires_grad=True)
        check_gradients(lambda: (stack([a, b], axis=1) ** 2).sum(), [a, b])

    def test_as_tensor_passthrough(self):
        x = Tensor([1.0])
        assert as_tensor(x) is x
        assert isinstance(as_tensor([1.0, 2.0]), Tensor)


class TestWhere:
    def test_where_values(self):
        cond = np.array([True, False, True])
        out = where(cond, Tensor([1.0, 1.0, 1.0]), Tensor([9.0, 9.0, 9.0]))
        assert np.allclose(out.data, [1, 9, 1])

    def test_where_gradcheck(self, rng):
        a = Tensor(rng.normal(size=4), requires_grad=True)
        b = Tensor(rng.normal(size=4), requires_grad=True)
        cond = np.array([True, False, False, True])
        check_gradients(lambda: (where(cond, a, b) ** 2).sum(), [a, b])

    def test_maximum(self):
        out = maximum(Tensor([1.0, 5.0]), Tensor([3.0, 2.0]))
        assert np.allclose(out.data, [3, 5])


class TestSoftmax:
    def test_softmax_sums_to_one(self, rng):
        p = softmax(Tensor(rng.normal(size=(4, 5))), axis=-1)
        assert np.allclose(p.data.sum(axis=-1), 1.0)

    def test_softmax_stability_large_logits(self):
        p = softmax(Tensor([1000.0, 1000.0, -1000.0]))
        assert np.isfinite(p.data).all()
        assert np.allclose(p.data[:2], 0.5)

    def test_softmax_mask_zeroes_invalid(self):
        mask = np.array([True, False, True])
        p = softmax(Tensor([1.0, 100.0, 1.0]), mask=mask)
        assert p.data[1] == 0.0
        assert np.allclose(p.data.sum(), 1.0)

    def test_softmax_mask_shifts_by_valid_max(self, rng):
        """A dominant masked logit must not underflow the valid ones:
        the masked softmax is exactly masked_softmax, gradients finite."""
        values = rng.normal(scale=0.1, size=(2, 5))
        values[0, 3] = 800.0
        mask = np.ones((2, 5), dtype=bool)
        mask[0, 3] = False
        x = Tensor(values, requires_grad=True)
        p = softmax(x, axis=-1, mask=mask)
        expected = masked_softmax(Tensor(values), mask, axis=-1)
        assert np.array_equal(p.data, expected.data)
        assert np.allclose(p.data.sum(axis=-1), 1.0)
        w = rng.normal(size=(2, 5))
        ((p / p.sum(axis=-1, keepdims=True)) * Tensor(w)).sum().backward()
        assert np.isfinite(x.grad).all()
        assert x.grad[0, 3] == 0.0

    def test_softmax_gradcheck(self, rng):
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = rng.normal(size=(3, 4))
        check_gradients(lambda: (softmax(x, axis=-1) * Tensor(w)).sum(), [x])

    def test_log_softmax_matches_log_of_softmax(self, rng):
        x = Tensor(rng.normal(size=6))
        assert np.allclose(log_softmax(x).data, np.log(softmax(x).data))

    def test_log_softmax_mask(self):
        mask = np.array([True, True, False])
        lp = log_softmax(Tensor([0.0, 0.0, 50.0]), mask=mask)
        assert np.allclose(lp.data[:2], np.log(0.5))
        assert lp.data[2] < -1e20

    def test_log_softmax_gradcheck_masked(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        mask = np.array([True, False, True, True, False])
        w = rng.normal(size=5) * mask
        check_gradients(lambda: (log_softmax(x, mask=mask) * Tensor(w)).sum(), [x])

    @given(st.integers(2, 10))
    @settings(max_examples=20, deadline=None)
    def test_softmax_uniform_on_equal_logits(self, n):
        p = softmax(Tensor(np.zeros(n)))
        assert np.allclose(p.data, 1.0 / n)


class TestLosses:
    def test_cross_entropy_perfect_prediction(self):
        logits = Tensor([100.0, 0.0, 0.0])
        assert cross_entropy(logits, 0).item() < 1e-6

    def test_cross_entropy_uniform(self):
        loss = cross_entropy(Tensor(np.zeros(4)), 2)
        assert np.isclose(loss.item(), np.log(4))

    def test_cross_entropy_masked(self):
        mask = np.array([True, True, False, False])
        loss = cross_entropy(Tensor(np.zeros(4)), 1, mask=mask)
        assert np.isclose(loss.item(), np.log(2))

    def test_cross_entropy_gradcheck(self, rng):
        x = Tensor(rng.normal(size=5), requires_grad=True)
        check_gradients(lambda: cross_entropy(x, 2), [x])

    def test_mae_loss(self):
        pred = Tensor([1.0, 3.0])
        assert np.isclose(mae_loss(pred, np.array([2.0, 1.0])).item(), 1.5)

    def test_mse_loss(self):
        pred = Tensor([1.0, 3.0])
        assert np.isclose(mse_loss(pred, np.array([2.0, 1.0])).item(), 2.5)

    def test_huber_is_quadratic_near_zero(self):
        pred = Tensor([0.5])
        assert np.isclose(huber_loss(pred, np.array([0.0])).item(), 0.125)

    def test_huber_is_linear_in_tail(self):
        pred = Tensor([10.0])
        assert np.isclose(huber_loss(pred, np.array([0.0])).item(), 9.5)

    @pytest.mark.parametrize("loss_fn", [mae_loss, mse_loss, huber_loss])
    def test_loss_gradcheck(self, loss_fn, rng):
        x = Tensor(rng.normal(size=4) + 3.0, requires_grad=True)
        target = rng.normal(size=4)
        check_gradients(lambda: loss_fn(x, target), [x])

    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_mae_nonnegative(self, values):
        loss = mae_loss(Tensor(values), np.zeros(len(values)))
        assert loss.item() >= 0


class TestDropout:
    def test_identity_when_not_training(self, rng):
        x = Tensor(np.ones(100))
        out = dropout(x, 0.5, rng, training=False)
        assert np.allclose(out.data, 1.0)

    def test_identity_at_zero_rate(self, rng):
        x = Tensor(np.ones(100))
        assert np.allclose(dropout(x, 0.0, rng).data, 1.0)

    def test_scales_kept_units(self, rng):
        x = Tensor(np.ones(10000))
        out = dropout(x, 0.5, rng, training=True)
        kept = out.data[out.data > 0]
        assert np.allclose(kept, 2.0)
        # About half survive.
        assert 0.4 < kept.size / 10000 < 0.6
