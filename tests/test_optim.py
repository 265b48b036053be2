import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irnnlab import DivergenceError, TrainConfig, clip_gradients, make_rng, sgd_step


def random_vector(seed, scale=1.0):
    """A random parameter or gradient vector of 24 entries."""
    return make_rng(seed).normal(0, scale, 24)


class TestClipNorm:
    # the norm clip_gradients returns, under a threshold that leaves the vector as it is
    def test_three_four_five(self):
        assert clip_gradients(np.array([3.0, 4.0]), 10.0) == 5.0

    def test_empty(self):
        assert clip_gradients(np.empty(0), 1.0) == 0.0

    def test_two_unit_vectors(self):
        got = clip_gradients(np.array([1.0, 0.0, 0.0, 1.0]), 10.0)
        assert got == pytest.approx(math.sqrt(2), rel=1e-15)

    @given(
        c=st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_property(self, c, seed):
        # |c| kept in a range where the squared elements neither under- nor overflow
        v = make_rng(seed).normal(size=13)
        norm = lambda x: clip_gradients(x, math.inf)
        assert norm(v * c) == pytest.approx(abs(c) * norm(v), rel=1e-12, abs=0.0)


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        v = np.array([3.0, 4.0])  # norm 5
        before = v.copy()
        norm = clip_gradients(v, 10.0)
        assert norm == 5.0
        assert np.array_equal(v, before)

    def test_analytic_rescale(self):
        v = np.array([6.0, 8.0])  # norm 10
        norm = clip_gradients(v, 5.0)
        assert norm == 10.0
        np.testing.assert_allclose(v, [3.0, 4.0], rtol=1e-15)

    @given(seed=st.integers(0, 200), gc=st.sampled_from([0.5, 1.0, 10.0, 100.0]))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_norm_is_min_of_norm_and_threshold(self, seed, gc):
        flat = random_vector(seed, scale=3.0)
        before = clip_gradients(flat, gc)
        after = np.linalg.norm(flat)
        assert after == pytest.approx(min(before, gc), rel=1e-12)

    def test_direction_preserved(self):
        flat = random_vector(7, scale=5.0)
        before = flat.copy()
        clip_gradients(flat, 1.0)
        cos = before @ flat / (np.linalg.norm(before) * np.linalg.norm(flat))
        assert cos == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_exactly(self, seed):
        flat = random_vector(seed, scale=4.0)
        clip_gradients(flat, 2.0)
        once = flat.copy()
        clip_gradients(flat, 2.0)
        assert np.array_equal(flat, once)

    def test_non_finite_reports_divergence(self):
        v = np.array([1.0, np.nan])
        with pytest.raises(DivergenceError):
            clip_gradients(v, 1.0)

    def test_overflowing_norm_reports_divergence_without_warning(self):
        flat = np.concatenate([np.full(9, 1e200), np.ones(3)])  # a norm of 3e200 whose square overflows
        with np.errstate(over="ignore"):
            assert np.linalg.norm(flat) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError):
                clip_gradients(flat, 1.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip_gradients(np.ones(2), 0.0)


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        p = random_vector(1)
        before = p.copy()
        sgd_step(p, random_vector(2), 0.0)
        assert np.array_equal(p, before)

    def test_single_coordinate_value(self):
        p = np.array([1.0])
        sgd_step(p, np.array([0.5]), 0.01)
        assert p[0] == pytest.approx(0.995, abs=1e-15)

    def test_zero_gradients_identity(self):
        p = random_vector(3)
        before = p.copy()
        sgd_step(p, np.zeros_like(p), 0.1)
        assert np.array_equal(p, before)

    def test_two_runs_bitwise_identical(self):
        p1, p2 = random_vector(4), random_vector(4)
        for step in range(25):
            g = random_vector(100 + step)
            sgd_step(p1, g, 0.01)
            g = random_vector(100 + step)
            sgd_step(p2, g, 0.01)
        assert np.array_equal(p1, p2)

    def test_block_mismatch_rejected(self):
        with pytest.raises(Exception):
            sgd_step(np.ones(2), np.ones((2, 1)), 0.1)
        with pytest.raises(Exception):
            sgd_step(np.ones(2), np.ones(3), 0.1)


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig(lr=0.01, clip=1.0, max_steps=10)
        assert cfg.batch_size == 16
        assert cfg.eval_every == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lr": 0.0, "clip": 1.0, "max_steps": 1},
            {"lr": 0.1, "clip": 0.0, "max_steps": 1},
            {"lr": 0.1, "clip": 1.0, "max_steps": -1},
            {"lr": 0.1, "clip": 1.0, "max_steps": 1, "batch_size": 0},
            {"lr": 0.1, "clip": 1.0, "max_steps": 1, "eval_every": 0},
            {"lr": float("inf"), "clip": 1.0, "max_steps": 1},
            {"lr": 0.1, "clip": float("inf"), "max_steps": 1},
            {"lr": 0.1, "clip": 1.0, "max_steps": 1, "seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
