import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irnnlab import DivergenceError, TrainConfig, clip_gradients, make_rng, sgd_step
from irnnlab.ndcore import l2_norm


def random_blocks(seed, scale=1.0):
    rng = make_rng(seed)
    return {
        "W": rng.normal(0, scale, (4, 4)),
        "b": rng.normal(0, scale, 4),
        "U": rng.normal(0, scale, (1, 4)),
    }


class TestClipGradients:
    def test_below_threshold_unchanged(self):
        g = {"v": np.array([3.0, 4.0])}  # norm 5
        before = g["v"].copy()
        _, norm = clip_gradients(g, 10.0)
        assert norm == 5.0
        assert np.array_equal(g["v"], before)

    def test_analytic_rescale(self):
        g = {"v": np.array([6.0, 8.0])}  # norm 10
        _, norm = clip_gradients(g, 5.0)
        assert norm == 10.0
        np.testing.assert_allclose(g["v"], [3.0, 4.0], rtol=1e-15)

    @given(seed=st.integers(0, 200), gc=st.sampled_from([0.5, 1.0, 10.0, 100.0]))
    @settings(max_examples=50, deadline=None)
    def test_post_clip_norm_is_min_of_norm_and_threshold(self, seed, gc):
        g = random_blocks(seed, scale=3.0)
        _, before = clip_gradients(g, gc)
        after = l2_norm(g.values())
        assert after == pytest.approx(min(before, gc), rel=1e-12)

    def test_direction_preserved(self):
        g = random_blocks(7, scale=5.0)
        flat_before = np.concatenate([b.ravel() for b in g.values()])
        _, norm = clip_gradients(g, 1.0)
        flat_after = np.concatenate([b.ravel() for b in g.values()])
        cos = flat_before @ flat_after / (np.linalg.norm(flat_before) * np.linalg.norm(flat_after))
        assert cos == pytest.approx(1.0, abs=1e-12)

    @given(seed=st.integers(0, 200))
    @settings(max_examples=50, deadline=None)
    def test_idempotent_exactly(self, seed):
        g = random_blocks(seed, scale=4.0)
        clip_gradients(g, 2.0)
        once = {k: v.copy() for k, v in g.items()}
        clip_gradients(g, 2.0)
        for k in g:
            assert np.array_equal(g[k], once[k])

    def test_non_finite_reports_divergence(self):
        g = {"v": np.array([1.0, np.nan])}
        with pytest.raises(DivergenceError):
            clip_gradients(g, 1.0)

    def test_overflowing_norm_reports_divergence_without_warning(self):
        g = {"W": np.full((3, 3), 1e200), "b": np.ones(3)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert l2_norm(g.values()) == math.inf
            with pytest.raises(DivergenceError):
                clip_gradients(g, 1.0)

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ValueError):
            clip_gradients({"v": np.ones(2)}, 0.0)


class TestSgdStep:
    def test_zero_lr_is_identity(self):
        p = random_blocks(1)
        before = {k: v.copy() for k, v in p.items()}
        sgd_step(p, random_blocks(2), 0.0)
        for k in p:
            assert np.array_equal(p[k], before[k])

    def test_single_coordinate_value(self):
        p = {"w": np.array([1.0])}
        sgd_step(p, {"w": np.array([0.5])}, 0.01)
        assert p["w"][0] == pytest.approx(0.995, abs=1e-15)

    def test_zero_gradients_identity(self):
        p = random_blocks(3)
        before = {k: v.copy() for k, v in p.items()}
        sgd_step(p, {k: np.zeros_like(v) for k, v in p.items()}, 0.1)
        for k in p:
            assert np.array_equal(p[k], before[k])

    def test_two_runs_bitwise_identical(self):
        p1, p2 = random_blocks(4), random_blocks(4)
        for step in range(25):
            g = random_blocks(100 + step)
            sgd_step(p1, g, 0.01)
            g = random_blocks(100 + step)
            sgd_step(p2, g, 0.01)
        for k in p1:
            assert np.array_equal(p1[k], p2[k])

    def test_block_mismatch_rejected(self):
        with pytest.raises(Exception):
            sgd_step({"a": np.ones(2)}, {"b": np.ones(2)}, 0.1)
        with pytest.raises(Exception):
            sgd_step({"a": np.ones(2)}, {"a": np.ones(3)}, 0.1)


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
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)
