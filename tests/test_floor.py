"""The complacent floor: no model linear in its inputs beats least squares on the adding problem.

In ``gen_adding`` the two marked steps are a uniform pair and the values are
independent U[0, 1], so the target y = sum_t m_t v_t has Cov(y, v_s) = 1/(6T)
and Cov(y, m_s) = 0. An affine function of the 2T inputs explains at most 2/T
of Var(y) = 1/6, and its population MSE is at least (1/6)(1 - 2/T). On a fixed
test set the bound is exact: no affine predictor scores below the in-sample
least-squares MSE on that set. The ``linear`` identity RNN with a regression
head is an affine predictor at any weights, so none of its eval rows may score
below that floor, while the relu IRNN, whose units switch on the mask, must get
well below it. Gradcheck judges the backward pass against the forward pass, so
a nonlinearity leaking into the ``linear`` forward pass passes it; this test
catches it. At T=20 the same relu RNN started from a small Gaussian W instead of
the identity stays above the floor, so the identity start is what escapes it.
"""

import functools

import numpy as np
import pytest

import irnnlab as il

T = 10


@functools.cache
def adding_sets(t: int):
    rng = il.make_rng(3)
    return il.gen_adding(t, 20_000, rng), il.gen_adding(t, 4_000, rng)


def affine_floor(ds) -> float:
    """In-sample MSE of the least-squares affine predictor of the targets from the 2T inputs."""
    x = np.column_stack([ds.signal, ds.mask, np.ones(len(ds))])
    coef = np.linalg.lstsq(x, ds.target, rcond=None)[0]
    residual = ds.target - x @ coef
    return float(np.mean(residual * residual))


def eval_losses(t: int, activation: str, init: str) -> list[float]:
    """The test MSE at each eval point of a 4000-update run of an H=20 RNN on the T-step sets."""
    spec = il.ModelSpec(cell="rnn", hidden=20, input_dim=2, head="regression", activation=activation,
                        init=il.parse_scheme(init))
    cfg = il.TrainConfig(lr=0.1, clip=1.0, max_steps=4000, eval_every=500, batch_size=16, seed=0)
    result = il.train(spec, cfg, *adding_sets(t))
    assert not result.diverged
    return [row.test_loss for row in result.history]


def test_floor_is_near_its_population_value():
    assert affine_floor(adding_sets(T)[1]) == pytest.approx((1 - 2 / T) / 6, rel=0.05)  # measured 0.13098


@pytest.mark.parametrize("activation", ["linear", "relu"])
def test_only_the_relu_irnn_escapes_the_floor(activation):
    floor = affine_floor(adding_sets(T)[1])
    losses = eval_losses(T, activation, "identity")
    if activation == "linear":  # measured best 0.13167, which float32 evaluation moves by about 1e-11
        assert min(losses) >= floor, losses
    else:  # measured best 0.00784
        assert min(losses) < floor / 2, losses


@pytest.mark.parametrize("init", ["identity", "gauss:0.001"])
def test_only_the_identity_start_escapes_the_floor_at_t20(init):
    floor = affine_floor(adding_sets(20)[1])  # measured 0.1496
    losses = eval_losses(20, "relu", init)
    if init == "identity":  # measured best 0.0352
        assert min(losses) < floor, losses
    else:  # measured best 0.1637
        assert min(losses) >= floor, losses
