import math

import numpy as np
import pytest

from irnnlab import (
    DivergenceError,
    HeadParams,
    InitScheme,
    ModelSpec,
    RnnParams,
    SequenceBatch,
    ShapeError,
    backward,
    forward,
    init_params,
    load_checkpoint,
    make_rng,
    param_blocks,
    predict,
    save_checkpoint,
)
from irnnlab.harness import evaluate
from irnnlab.network import CHECKPOINT_MAGIC


def zero_model(h=3, d=2, head="regression", classes=0, activation="relu", t=1):
    spec = ModelSpec(cell="rnn", hidden=h, input_dim=d, head=head, classes=classes,
                     activation=activation, init=InitScheme("identity"))
    params = RnnParams(W=np.eye(h), V=np.zeros((h, d)), b=np.zeros(h), activation=activation)
    k = spec.head_dim
    head_p = HeadParams(U=np.zeros((k, h)), c=np.zeros(k))
    return spec, params, head_p


def dyadic_bag_instance(rng, h, d, t_steps, b_lanes):
    """Nonnegative dyadic-rational weights and inputs: every add below is exact."""
    inputs = rng.integers(0, 256, size=(t_steps, b_lanes, d)) / 256.0
    v = rng.integers(0, 16, size=(h, d)) / 4096.0
    bias = rng.integers(0, 8, size=h) / 4096.0
    params = RnnParams(W=np.eye(h), V=v, b=bias, activation="relu")
    return inputs, params


class TestForward:
    def test_single_step_zero_params_regression(self):
        spec, params, head = zero_model()
        y = 0.7
        batch = SequenceBatch(inputs=np.zeros((1, 1, 2)), targets=np.array([y]))
        loss, preds, _ = forward(spec, params, head, batch)
        assert preds[0] == 0.0
        assert loss == pytest.approx(y * y, abs=1e-15)

    def test_bag_of_events_closed_form_exact(self):
        # W=I, b >= 0, V >= 0, inputs >= 0: relu never clips and the final
        # state is the order-free sum T*b + V * sum_t x_t, bit for bit
        rng = make_rng(12)
        for t_steps in (3, 50, 400):
            inputs, params = dyadic_bag_instance(rng, h=24, d=2, t_steps=t_steps, b_lanes=4)
            spec = ModelSpec(cell="rnn", hidden=24, input_dim=2, head="regression",
                             activation="relu", init=InitScheme("identity"))
            head = HeadParams(U=np.zeros((1, 24)), c=np.zeros(1))
            batch = SequenceBatch(inputs=inputs, targets=np.zeros(4))
            _, _, tape = forward(spec, params, head, batch)
            closed = t_steps * params.b + inputs.sum(axis=0) @ params.V.T
            assert np.array_equal(tape.h_last, closed)

    def test_bag_of_events_permutation_invariant_exact(self):
        rng = make_rng(13)
        inputs, params = dyadic_bag_instance(rng, h=16, d=2, t_steps=128, b_lanes=3)
        spec = ModelSpec(cell="rnn", hidden=16, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        head = HeadParams(U=np.zeros((1, 16)), c=np.zeros(1))
        _, _, tape = forward(spec, params, head, SequenceBatch(inputs=inputs, targets=np.zeros(3)))
        shuffled = inputs[rng.permutation(inputs.shape[0])]
        _, _, tape2 = forward(spec, params, head, SequenceBatch(inputs=shuffled, targets=np.zeros(3)))
        assert np.array_equal(tape.h_last, tape2.h_last)

    def test_bag_of_events_general_floats_close(self):
        rng = make_rng(14)
        spec = ModelSpec(cell="rnn", hidden=10, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        params = RnnParams(W=np.eye(10), V=np.abs(rng.normal(0, 0.001, (10, 2))),
                           b=np.abs(rng.normal(0, 0.001, 10)), activation="relu")
        head = HeadParams(U=np.zeros((1, 10)), c=np.zeros(1))
        inputs = rng.uniform(size=(200, 2, 2))
        _, _, tape = forward(spec, params, head, SequenceBatch(inputs=inputs, targets=np.zeros(2)))
        closed = 200 * params.b + inputs.sum(axis=0) @ params.V.T
        np.testing.assert_allclose(tape.h_last, closed, rtol=1e-12)

    def test_uniform_softmax_loss_is_log_k(self):
        spec, params, head = zero_model(head="softmax", classes=10)
        batch = SequenceBatch(inputs=np.zeros((1, 4, 2)), targets=np.array([0, 3, 5, 9]))
        loss, probs, _ = forward(spec, params, head, batch)
        assert loss == pytest.approx(math.log(10.0), abs=1e-12)
        assert np.allclose(probs, 0.1)

    def test_probabilities_sum_to_one(self):
        rng = make_rng(15)
        spec = ModelSpec(cell="rnn", hidden=6, input_dim=2, head="softmax", classes=5, activation="tanh")
        params, head = init_params(spec, rng)
        batch = SequenceBatch(inputs=rng.normal(size=(7, 4, 2)), targets=rng.integers(0, 5, 4))
        loss, probs, _ = forward(spec, params, head, batch)
        assert loss >= 0.0
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_forward_determinism_bitwise(self):
        rng = make_rng(16)
        spec = ModelSpec(cell="lstm", hidden=5, input_dim=3, head="regression")
        params, head = init_params(spec, rng)
        batch = SequenceBatch(inputs=rng.normal(size=(9, 2, 3)), targets=rng.normal(size=2))
        first = forward(spec, params, head, batch)
        second = forward(spec, params, head, batch)
        assert first.loss == second.loss
        assert np.array_equal(first.predictions, second.predictions)

    def test_overflow_names_step_index(self):
        h = 4
        spec = ModelSpec(cell="rnn", hidden=h, input_dim=1, head="regression", activation="linear")
        params = RnnParams(W=10.0 * np.eye(h), V=np.ones((h, 1)), b=np.zeros(h), activation="linear")
        head = HeadParams(U=np.ones((1, h)), c=np.zeros(1))
        batch = SequenceBatch(inputs=np.ones((200, 1, 1)), targets=np.zeros(1))
        with pytest.raises(DivergenceError, match=r"step \d+"):
            forward(spec, params, head, batch)

    def test_input_dim_mismatch_rejected(self):
        spec, params, head = zero_model(d=2)
        with pytest.raises(ShapeError):
            forward(spec, params, head, SequenceBatch(inputs=np.zeros((1, 1, 3)), targets=np.zeros(1)))

    def test_label_out_of_range_rejected(self):
        spec, params, head = zero_model(head="softmax", classes=3)
        with pytest.raises(ValueError):
            forward(spec, params, head, SequenceBatch(inputs=np.zeros((1, 1, 2)), targets=np.array([3])))


class _FixedDataset:
    """Serves slices of one batch, the interface ``harness.evaluate`` reads."""

    def __init__(self, batch):
        self._batch = batch

    def __len__(self):
        return self._batch.size

    def batch(self, idx):
        return SequenceBatch(inputs=self._batch.inputs[:, idx], targets=self._batch.targets[idx])


def _tenfold_linear_model():
    h = 4
    spec = ModelSpec(cell="rnn", hidden=h, input_dim=1, head="regression", activation="linear")
    params = RnnParams(W=10.0 * np.eye(h), V=np.ones((h, 1)), b=np.zeros(h), activation="linear")
    return spec, params, HeadParams(U=np.ones((1, h)), c=np.zeros(1)), np.ones((200, 1, 1))


def _lstm_with_nan_input():
    rng = make_rng(5)
    spec = ModelSpec(cell="lstm", hidden=6, input_dim=2, head="regression")
    params, head = init_params(spec, rng)
    inputs = rng.normal(size=(60, 4, 2))
    inputs[37, 2, 1] = np.nan
    return spec, params, head, inputs


class TestDivergenceLocalisation:
    """The taped path checks once per sequence and scans only on failure; the
    tape-free path checks every step. Both must name the step the per-step
    check names: h_t = 1.11...e{t} first exceeds 1e100 at t=100, and a NaN
    fed in at step 37 reaches h and c at step 37."""

    @pytest.mark.parametrize("model,step", [(_tenfold_linear_model, 100), (_lstm_with_nan_input, 37)])
    @pytest.mark.parametrize("path", ["forward", "predict", "evaluate"])
    def test_names_first_bad_step(self, model, step, path):
        spec, params, head, inputs = model()
        batch = SequenceBatch(inputs=inputs, targets=np.zeros(inputs.shape[1]))
        run = {
            "forward": lambda: forward(spec, params, head, batch),
            "predict": lambda: predict(spec, params, head, inputs),
            "evaluate": lambda: evaluate(spec, params, head, _FixedDataset(batch)),
        }[path]
        with pytest.raises(DivergenceError, match=rf"at step {step}$"):
            run()


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        spec, params, head = zero_model()
        batch = SequenceBatch(inputs=np.zeros((4, 2, 2)), targets=np.zeros(2))
        _, _, tape = forward(spec, params, head, batch)
        grads = backward(spec, params, head, tape)
        assert all(not np.any(g) for g in grads.blocks.values())

    def test_delta_at_origin_equals_injected_delta(self):
        # linear activation, W=I: the delta entering t=0 is the one injected at t=T
        rng = make_rng(17)
        h = 12
        spec = ModelSpec(cell="rnn", hidden=h, input_dim=2, head="regression", activation="linear",
                         init=InitScheme("identity"))
        params = RnnParams(W=np.eye(h), V=rng.normal(size=(h, 2)), b=rng.normal(size=h),
                           activation="linear")
        head = HeadParams(U=rng.normal(size=(1, h)), c=rng.normal(size=1))
        batch = SequenceBatch(inputs=rng.normal(size=(400, 3, 2)), targets=rng.normal(size=3))
        _, _, tape = forward(spec, params, head, batch)
        grads = backward(spec, params, head, tape)
        assert np.array_equal(grads.dh0, grads.dh_last)

    def test_block_keys_match_parameters(self):
        for cell in ("rnn", "lstm"):
            spec = ModelSpec(cell=cell, hidden=3, input_dim=2, head="softmax", classes=4)
            params, head = init_params(spec, make_rng(0))
            batch = SequenceBatch(inputs=np.zeros((2, 2, 2)), targets=np.array([0, 1]))
            _, _, tape = forward(spec, params, head, batch)
            grads = backward(spec, params, head, tape)
            assert list(grads.blocks) == list(param_blocks(params, head))

    def test_batch_gradient_is_mean_of_lane_gradients(self):
        # mean-reduced loss: the batch gradient equals the average of the
        # gradients of each lane trained alone
        rng = make_rng(20)
        for cell in ("rnn", "lstm"):
            spec = ModelSpec(cell=cell, hidden=4, input_dim=2, head="regression",
                             activation="tanh", init=InitScheme("gauss", 0.3))
            params, head = init_params(spec, rng)
            inputs = rng.normal(size=(6, 3, 2))
            targets = rng.normal(size=3)
            _, _, tape = forward(spec, params, head, SequenceBatch(inputs=inputs, targets=targets))
            batch_grads = backward(spec, params, head, tape).blocks
            lane_sums = {k: np.zeros_like(v) for k, v in batch_grads.items()}
            for lane in range(3):
                lane_batch = SequenceBatch(inputs=inputs[:, lane : lane + 1, :],
                                           targets=targets[lane : lane + 1])
                _, _, lane_tape = forward(spec, params, head, lane_batch)
                for k, g in backward(spec, params, head, lane_tape).blocks.items():
                    lane_sums[k] += g
            for k in batch_grads:
                np.testing.assert_allclose(batch_grads[k], lane_sums[k] / 3.0,
                                           rtol=1e-12, atol=1e-15, err_msg=f"{cell}:{k}")

    def test_stale_tape_rejected(self):
        spec, params, head = zero_model()
        other_spec = ModelSpec(cell="rnn", hidden=3, input_dim=2, head="regression",
                               activation="tanh", init=InitScheme("identity"))
        batch = SequenceBatch(inputs=np.zeros((1, 1, 2)), targets=np.zeros(1))
        _, _, tape = forward(spec, params, head, batch)
        with pytest.raises(ValueError):
            backward(other_spec, params, head, tape)


class TestPredict:
    def test_softmax_tie_breaks_to_lowest_class(self):
        spec, params, head = zero_model(head="softmax", classes=10)
        got = predict(spec, params, head, np.zeros((3, 2, 2)))
        assert np.array_equal(got, [0, 0])

    def test_regression_zero_params(self):
        spec, params, head = zero_model()
        assert np.array_equal(predict(spec, params, head, np.zeros((2, 3, 2))), np.zeros(3))

    def test_deterministic(self):
        rng = make_rng(18)
        spec = ModelSpec(cell="rnn", hidden=4, input_dim=2, head="softmax", classes=3, activation="relu",
                         init=InitScheme("gauss", 0.5))
        params, head = init_params(spec, rng)
        inputs = rng.normal(size=(6, 5, 2))
        assert np.array_equal(predict(spec, params, head, inputs), predict(spec, params, head, inputs))

    def test_matches_forward_argmax(self):
        rng = make_rng(19)
        spec = ModelSpec(cell="lstm", hidden=4, input_dim=2, head="softmax", classes=6)
        params, head = init_params(spec, rng)
        params.Wg += rng.normal(0, 0.4, params.Wg.shape)
        inputs = rng.normal(size=(5, 8, 2))
        batch = SequenceBatch(inputs=inputs, targets=rng.integers(0, 6, 8))
        _, probs, _ = forward(spec, params, head, batch)
        assert np.array_equal(predict(spec, params, head, inputs), np.argmax(probs, axis=1))


class TestInitParams:
    def test_irnn_recurrent_is_exact_identity(self):
        spec = ModelSpec(cell="rnn", hidden=64, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        params, _ = init_params(spec, make_rng(1))
        assert np.array_equal(params.W, np.eye(64))
        assert np.max(np.abs(params.V)) < 0.006

    def test_tanh_none_init_uses_baseline(self):
        spec = ModelSpec(cell="rnn", hidden=100, input_dim=2, head="regression", activation="tanh")
        params, _ = init_params(spec, make_rng(2))
        assert 0.08 < params.W.std() < 0.12
        assert not np.any(params.b)

    def test_relu_none_init_uses_small_gaussian(self):
        spec = ModelSpec(cell="rnn", hidden=32, input_dim=2, head="regression", activation="relu")
        params, _ = init_params(spec, make_rng(3))
        assert np.max(np.abs(params.W)) < 0.006

    def test_lstm_forget_bias_constant(self):
        spec = ModelSpec(cell="lstm", hidden=8, input_dim=2, head="regression", forget_bias=4.0)
        params, _ = init_params(spec, make_rng(4))
        assert np.array_equal(params.bf, np.full(8, 4.0))
        assert not np.any(params.bi) and not np.any(params.bo) and not np.any(params.bg)

    def test_determinism(self):
        spec = ModelSpec(cell="lstm", hidden=6, input_dim=3, head="softmax", classes=4)
        a_params, a_head = init_params(spec, make_rng(5))
        b_params, b_head = init_params(spec, make_rng(5))
        for k, v in param_blocks(a_params, a_head).items():
            assert np.array_equal(v, param_blocks(b_params, b_head)[k])


class TestCheckpoint:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(cell="rnn", hidden=7, input_dim=2, head="regression",
                      activation="relu", init=InitScheme("identity")),
            ModelSpec(cell="rnn", hidden=5, input_dim=3, head="softmax", classes=10,
                      activation="tanh", init=None),
            ModelSpec(cell="rnn", hidden=4, input_dim=2, head="regression",
                      activation="linear", init=InitScheme("iscale", 0.01)),
            ModelSpec(cell="lstm", hidden=6, input_dim=1, head="softmax", classes=10,
                      forget_bias=20.0),
        ],
    )
    def test_round_trip_bit_identical(self, tmp_path, spec):
        params, head = init_params(spec, make_rng(21))
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        spec2, params2, head2 = load_checkpoint(path)
        assert spec2 == spec
        for name, block in param_blocks(params, head).items():
            assert np.array_equal(block, param_blocks(params2, head2)[name]), name

    def test_magic_is_stable(self, tmp_path):
        spec, params, head = zero_model()
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        assert path.read_bytes()[:8] == CHECKPOINT_MAGIC == b"IRNN0001"

    def test_corrupt_magic_rejected(self, tmp_path):
        spec, params, head = zero_model()
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path):
        spec, params, head = zero_model()
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,offset", [("cell", 8), ("activation", 16), ("head", 40), ("init kind", 56)])
    def test_unknown_header_code_rejected(self, tmp_path, field, offset):
        spec, params, head = zero_model()
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = (7).to_bytes(8, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"unknown {field} code 7 at offset {offset}"):
            load_checkpoint(path)


class TestModelSpecValidation:
    def test_rejects_bad_cell(self):
        with pytest.raises(ValueError):
            ModelSpec(cell="gru", hidden=4, input_dim=2, head="regression")

    def test_rejects_softmax_without_classes(self):
        with pytest.raises(ValueError):
            ModelSpec(cell="rnn", hidden=4, input_dim=2, head="softmax")

    def test_rejects_zero_hidden(self):
        with pytest.raises(ValueError):
            ModelSpec(cell="rnn", hidden=0, input_dim=2, head="regression")
