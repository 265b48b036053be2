import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irnnlab import DivergenceError, TrainConfig, clip_gradients, make_rng, sgd_step
from irnnlab.ndcore import l2_norm


def random_blocks(seed, scale=1.0):
    """A random vector and its views named and shaped like W (4, 4), b (4,) and U (1, 4)."""
    rng = make_rng(seed)
    flat = np.empty(24)
    blocks = {"W": flat[:16].reshape(4, 4), "b": flat[16:20], "U": flat[20:].reshape(1, 4)}
    for block in blocks.values():
        block[...] = rng.normal(0, scale, block.shape)
    return flat, blocks


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        v = np.array([3.0, 4.0])  # norm 5
        before = v.copy()
        norm = clip_gradients(v, [v], 10.0)
        assert norm == 5.0
        assert np.array_equal(v, before)

    def test_analytic_rescale(self):
        v = np.array([6.0, 8.0])  # norm 10
        norm = clip_gradients(v, [v], 5.0)
        assert norm == 10.0
        np.testing.assert_allclose(v, [3.0, 4.0], rtol=1e-15)

    @given(seed=st.integers(0, 200), gc=st.sampled_from([0.5, 1.0, 10.0, 100.0]))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_norm_is_min_of_norm_and_threshold(self, seed, gc):
        flat, g = random_blocks(seed, scale=3.0)
        before = clip_gradients(flat, g.values(), gc)
        after = l2_norm(g.values())
        assert after == pytest.approx(min(before, gc), rel=1e-12)

    def test_direction_preserved(self):
        flat, g = random_blocks(7, scale=5.0)
        flat_before = np.concatenate([b.ravel() for b in g.values()])
        clip_gradients(flat, g.values(), 1.0)
        flat_after = np.concatenate([b.ravel() for b in g.values()])
        cos = flat_before @ flat_after / (np.linalg.norm(flat_before) * np.linalg.norm(flat_after))
        assert cos == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_exactly(self, seed):
        flat, g = random_blocks(seed, scale=4.0)
        clip_gradients(flat, g.values(), 2.0)
        once = {k: v.copy() for k, v in g.items()}
        clip_gradients(flat, g.values(), 2.0)
        for k in g:
            assert np.array_equal(g[k], once[k])

    def test_non_finite_reports_divergence(self):
        v = np.array([1.0, np.nan])
        with pytest.raises(DivergenceError):
            clip_gradients(v, [v], 1.0)

    def test_overflowing_norm_reports_divergence_without_warning(self):
        flat = np.concatenate([np.full(9, 1e200), np.ones(3)])
        g = {"W": flat[:9].reshape(3, 3), "b": flat[9:]}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2_norm(g.values()) == math.inf
            with pytest.raises(DivergenceError):
                clip_gradients(flat, g.values(), 1.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip_gradients(np.ones(2), [np.ones(2)], 0.0)


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        p, _ = random_blocks(1)
        before = p.copy()
        sgd_step(p, random_blocks(2)[0], 0.0)
        assert np.array_equal(p, before)

    def test_single_coordinate_value(self):
        p = np.array([1.0])
        sgd_step(p, np.array([0.5]), 0.01)
        assert p[0] == pytest.approx(0.995, abs=1e-15)

    def test_zero_gradients_identity(self):
        p, _ = random_blocks(3)
        before = p.copy()
        sgd_step(p, np.zeros_like(p), 0.1)
        assert np.array_equal(p, before)

    def test_two_runs_bitwise_identical(self):
        (p1, _), (p2, _) = random_blocks(4), random_blocks(4)
        for step in range(25):
            g, _ = random_blocks(100 + step)
            sgd_step(p1, g, 0.01)
            g, _ = random_blocks(100 + step)
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
