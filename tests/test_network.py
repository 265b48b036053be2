import math
import struct
import warnings

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
    save_checkpoint,
)
from irnnlab.harness import evaluate
from irnnlab.network import CHECKPOINT_MAGIC, param_vector, score


def zero_model(h=3, d=2, head="regression", classes=0, activation="relu", t=1):
    spec = ModelSpec(cell="rnn", hidden=h, input_dim=d, head=head, classes=classes,
                     activation=activation, init=InitScheme("identity"))
    params = RnnParams.from_blocks(W=np.eye(h), V=np.zeros((h, d)), b=np.zeros(h))
    k = spec.head_dim
    head_p = HeadParams(U=np.zeros((k, h)), c=np.zeros(k))
    return spec, params, head_p


def dyadic_bag_instance(rng, h, d, t_steps, b_lanes):
    """Nonnegative dyadic-rational weights and inputs: every add below is exact."""
    inputs = rng.integers(0, 256, size=(t_steps, b_lanes, d)) / 256.0
    v = rng.integers(0, 16, size=(h, d)) / 4096.0
    bias = rng.integers(0, 8, size=h) / 4096.0
    params = RnnParams.from_blocks(W=np.eye(h), V=v, b=bias)
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
        params = RnnParams.from_blocks(W=np.eye(10), V=np.abs(rng.normal(0, 0.001, (10, 2))),
                           b=np.abs(rng.normal(0, 0.001, 10)))
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
        params = RnnParams.from_blocks(W=10.0 * np.eye(h), V=np.ones((h, 1)), b=np.zeros(h))
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
    params = RnnParams.from_blocks(W=10.0 * np.eye(h), V=np.ones((h, 1)), b=np.zeros(h))
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
    @pytest.mark.parametrize("path", ["forward", "evaluate"])
    def test_names_first_bad_step(self, model, step, path):
        spec, params, head, inputs = model()
        batch = SequenceBatch(inputs=inputs, targets=np.zeros(inputs.shape[1]))
        run = {
            "forward": lambda: forward(spec, params, head, batch),
            "evaluate": lambda: evaluate(spec, params, head, _FixedDataset(batch)),
        }[path]
        with pytest.raises(DivergenceError, match=rf"at step {step}$"):
            run()

    def test_chunk_only_float32_overflows_is_scored_in_float64(self):
        # over 50 steps h_t leaves float32's range (3.4e38) at t = 39 but ends near 1.1e49, far
        # inside OVERFLOW_LIMIT: evaluate returns the float64 score, bit for bit
        spec, params, head, inputs = _tenfold_linear_model()
        batch = SequenceBatch(inputs=inputs[:50], targets=np.zeros(1))
        with pytest.raises(DivergenceError):
            score(spec, RnnParams(params.a.astype(np.float32)), head, batch)
        loss_sum, _ = score(spec, params, head, batch)
        assert math.isfinite(loss_sum)
        assert evaluate(spec, params, head, _FixedDataset(batch)) == (loss_sum, math.sqrt(loss_sum))

    @pytest.mark.parametrize("head_kind", ["regression", "softmax"])
    @pytest.mark.parametrize("path", ["forward", "evaluate"])
    def test_non_finite_loss_raises_without_numpy_warnings(self, head_kind, path):
        # h_T is 0, so the logits are c: a residual of 1e200 overflows its square, and
        # label 0 trails class 1 by 1e5, so its probability underflows to 0 and its log is -inf
        spec, params, head = zero_model(head=head_kind, classes=3 if head_kind == "softmax" else 0)
        head.c[:] = [1e200] if head_kind == "regression" else [0.0, 1e5, 0.0]
        targets = np.zeros(3, dtype=np.int64 if head_kind == "softmax" else np.float64)
        batch = SequenceBatch(inputs=np.zeros((2, 3, 2)), targets=targets)
        run = {
            "forward": lambda: forward(spec, params, head, batch),
            "evaluate": lambda: evaluate(spec, params, head, _FixedDataset(batch)),
        }[path]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="non-finite loss"):
                run()

    def test_operand_past_float32_range_scores_without_numpy_warnings(self):
        # V's 1e39 is inf in the float32 copy, where inf * 0 makes the states NaN; float64 scores the chunk
        spec, params, head = zero_model()
        params.V[0, 0] = 1e39
        batch = SequenceBatch(inputs=np.zeros((2, 3, 2)), targets=np.ones(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert evaluate(spec, params, head, _FixedDataset(batch)) == (1.0, 1.0)


class TestBackward:
    def test_zero_residual_gives_zero_gradients(self):
        spec, params, head = zero_model()
        batch = SequenceBatch(inputs=np.zeros((4, 2, 2)), targets=np.zeros(2))
        _, _, tape = forward(spec, params, head, batch)
        grads = backward(params, head, tape)
        assert all(not np.any(g) for g in grads.blocks.values())

    def test_delta_at_origin_equals_injected_delta(self):
        # linear activation, W=I: the delta entering t=0 is the one injected at t=T
        rng = make_rng(17)
        h = 12
        spec = ModelSpec(cell="rnn", hidden=h, input_dim=2, head="regression", activation="linear",
                         init=InitScheme("identity"))
        params = RnnParams.from_blocks(W=np.eye(h), V=rng.normal(size=(h, 2)), b=rng.normal(size=h))
        head = HeadParams(U=rng.normal(size=(1, h)), c=rng.normal(size=1))
        batch = SequenceBatch(inputs=rng.normal(size=(400, 3, 2)), targets=rng.normal(size=3))
        _, _, tape = forward(spec, params, head, batch)
        grads = backward(params, head, tape)
        assert np.array_equal(grads.dh0, tape.dlogits @ head.U)

    def test_block_keys_match_parameters(self):
        for cell in ("rnn", "lstm"):
            spec = ModelSpec(cell=cell, hidden=3, input_dim=2, head="softmax", classes=4)
            params, head = init_params(spec, make_rng(0))
            batch = SequenceBatch(inputs=np.zeros((2, 2, 2)), targets=np.array([0, 1]))
            _, _, tape = forward(spec, params, head, batch)
            grads = backward(params, head, tape)
            assert list(grads.blocks) == list(param_blocks(params, head))

    def test_batch_gradient_is_mean_of_lane_gradients(self):
        # mean-reduced loss: the batch gradient equals the average of the
        # gradients of each lane trained alone
        rng = make_rng(20)
        rnn_only = {"activation": "tanh", "init": InitScheme("gauss", 0.3)}
        for cell in ("rnn", "lstm"):
            spec = ModelSpec(cell=cell, hidden=4, input_dim=2, head="regression",
                             **(rnn_only if cell == "rnn" else {}))
            params, head = init_params(spec, rng)
            inputs = rng.normal(size=(6, 3, 2))
            targets = rng.normal(size=3)
            _, _, tape = forward(spec, params, head, SequenceBatch(inputs=inputs, targets=targets))
            batch_grads = backward(params, head, tape).blocks
            lane_sums = {k: np.zeros_like(v) for k, v in batch_grads.items()}
            for lane in range(3):
                lane_batch = SequenceBatch(inputs=inputs[:, lane : lane + 1, :],
                                           targets=targets[lane : lane + 1])
                _, _, lane_tape = forward(spec, params, head, lane_batch)
                for k, g in backward(params, head, lane_tape).blocks.items():
                    lane_sums[k] += g
            for k in batch_grads:
                np.testing.assert_allclose(batch_grads[k], lane_sums[k] / 3.0,
                                           rtol=1e-12, atol=1e-15, err_msg=f"{cell}:{k}")


class TestScore:
    @pytest.mark.parametrize("head", ["regression", "softmax"])
    @pytest.mark.parametrize("cell", ["rnn", "lstm"])
    def test_matches_forward(self, cell, head):
        # the tape-free pass sums forward's mean loss over the lanes bit for bit and
        # counts the lanes whose argmax of forward's probabilities is the label
        rng = make_rng(19)
        rnn_only = {"activation": "tanh", "init": InitScheme("gauss", 0.5)} if cell == "rnn" else {}
        spec = ModelSpec(cell=cell, hidden=4, input_dim=2, head=head, classes=6 if head == "softmax" else 0,
                         input_init_std=0.5, **rnn_only)
        params, head_params = init_params(spec, rng)
        targets = rng.integers(0, 6, 8) if head == "softmax" else rng.normal(size=8)
        batch = SequenceBatch(inputs=rng.normal(size=(5, 8, 2)), targets=targets)
        loss, predictions, _ = forward(spec, params, head_params, batch)
        hits = int(np.sum(np.argmax(predictions, axis=1) == targets)) if head == "softmax" else 0
        assert score(spec, params, head_params, batch) == (loss * 8, hits)

    def test_all_zero_logits_count_as_class_0(self):
        # a tie goes to the lowest class
        spec, params, head = zero_model(head="softmax", classes=10)
        batch = SequenceBatch(inputs=np.zeros((3, 4, 2)), targets=np.array([0, 3, 0, 9]))
        loss, hits = score(spec, params, head, batch)
        assert hits == 2
        assert loss == pytest.approx(4 * math.log(10), rel=1e-15)


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

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_baseline_recurrent_draw_is_gaussian_input_std(self, activation):
        spec = ModelSpec(cell="rnn", hidden=6, input_dim=2, head="regression", activation=activation,
                         input_init_std=0.003)
        params, _ = init_params(spec, make_rng(8))
        assert np.array_equal(params.W, make_rng(8).normal(0.0, 0.003, size=(6, 6)))

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


LAYOUT_SPECS = [
    ModelSpec(cell="rnn", hidden=4, input_dim=3, head="regression", activation="relu",
              init=InitScheme("identity")),
    ModelSpec(cell="rnn", hidden=3, input_dim=2, head="softmax", classes=5, activation="tanh"),
    ModelSpec(cell="rnn", hidden=5, input_dim=1, head="regression", activation="linear",
              init=InitScheme("gauss", 0.3)),
    ModelSpec(cell="lstm", hidden=3, input_dim=2, head="regression"),
    ModelSpec(cell="lstm", hidden=4, input_dim=1, head="softmax", classes=3, forget_bias=4.0),
]


def assert_one_vector(spec, vector, blocks):
    """Every block is a view of the float64 ``vector``: the (G*H, H+D+1) operand [W | V | b]
    per gate in i|f|o|g order, then U, then c."""
    h, d, k = spec.hidden, spec.input_dim, spec.head_dim
    gates = ("",) if spec.cell == "rnn" else ("i", "f", "o", "g")
    n = len(gates) * h * (h + d + 1)
    assert vector.dtype == np.float64 and vector.shape == (n + k * h + k,)
    assert all(np.shares_memory(block, vector) for block in blocks.values())
    vector[...] = np.arange(vector.size)  # distinct entries, so equal values mean the same memory
    operand = vector[:n].reshape(len(gates) * h, h + d + 1)
    expected = {}
    for i, gate in enumerate(gates):
        rows = operand[i * h : (i + 1) * h]
        expected.update({f"W{gate}": rows[:, :h], f"V{gate}": rows[:, h : h + d], f"b{gate}": rows[:, h + d]})
    expected.update(U=vector[n : n + k * h].reshape(k, h), c=vector[n + k * h :])
    assert list(blocks) == list(expected)
    for name, block in blocks.items():
        assert np.array_equal(block, expected[name]), name


class TestParameterVector:
    @pytest.mark.parametrize("spec", LAYOUT_SPECS)
    def test_init_params_lays_out_one_vector(self, spec):
        params, head = init_params(spec, make_rng(1))
        assert_one_vector(spec, param_vector(params, head), param_blocks(params, head))

    @pytest.mark.parametrize("spec", LAYOUT_SPECS)
    def test_load_checkpoint_lays_out_one_vector(self, spec, tmp_path):
        params, head = init_params(spec, make_rng(2))
        save_checkpoint(tmp_path / "model.irnn", spec, params, head)
        _, params, head = load_checkpoint(tmp_path / "model.irnn")
        assert_one_vector(spec, param_vector(params, head), param_blocks(params, head))

    @pytest.mark.parametrize("spec", LAYOUT_SPECS)
    def test_gradients_lay_out_one_vector(self, spec):
        rng = make_rng(3)
        params, head = init_params(spec, rng)
        inputs = rng.normal(size=(4, 2, spec.input_dim))
        targets = rng.normal(size=2) if spec.head == "regression" else np.array([0, spec.classes - 1])
        grads = backward(params, head, forward(spec, params, head, SequenceBatch(inputs, targets)).tape)
        assert_one_vector(spec, grads.vector, grads.blocks)


class TestCheckpoint:
    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(cell="rnn", hidden=7, input_dim=2, head="regression",
                      activation="relu", init=InitScheme("identity")),
            ModelSpec(cell="rnn", hidden=5, input_dim=3, head="softmax", classes=10,
                      activation="tanh", init=InitScheme("baseline")),
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

    @pytest.mark.parametrize("field,offset", [("cell", 8), ("activation", 16), ("head", 40), ("init kind", 56)])
    def test_negative_header_code_rejected(self, tmp_path, field, offset):
        spec, params, head = zero_model()
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = struct.pack("<q", -1)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"unknown {field} code -1 at offset {offset}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("field,offset", [("init value", 64), ("input_init_std", 72), ("forget_bias", 80)])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_header_float_rejected(self, tmp_path, field, offset, value):
        spec, params, head = zero_model()
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        data = bytearray(path.read_bytes())
        data[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"non-finite {field} {value} at offset {offset}"):
            load_checkpoint(path)

    @pytest.mark.parametrize("spec,fields", [
        (ModelSpec(cell="rnn", hidden=5, input_dim=1, head="softmax", classes=10,
                   init=InitScheme("iscale", 0.01)),
         (0, 0, 5, 1, 1, 10, 2, 0.01, 0.001, 1.0)),
        (ModelSpec(cell="lstm", hidden=4, input_dim=2, head="regression", forget_bias=20.0),
         (1, 0, 4, 2, 0, 0, 0, 0.0, 0.001, 20.0)),
        (ModelSpec(cell="rnn", hidden=3, input_dim=2, head="regression", activation="tanh"),
         (0, 1, 3, 2, 0, 0, 0, 0.0, 0.001, 1.0)),
    ], ids=["rnn-iscale-softmax", "lstm-forget-bias-20", "rnn-tanh-baseline"])
    def test_header_bytes_pinned(self, tmp_path, spec, fields):
        # (cell, activation, hidden, input_dim, head, classes, init kind, init value,
        #  input_init_std, forget_bias), as the README lists them
        params, head = init_params(spec, make_rng(0))
        path = tmp_path / "model.irnn"
        save_checkpoint(path, spec, params, head)
        assert path.read_bytes()[:88] == struct.pack("<8sqqqqqqqddd", b"IRNN0001", *fields)


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

    @pytest.mark.parametrize("field", ["input_init_std", "forget_bias"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_float(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ModelSpec(cell="lstm", hidden=4, input_dim=2, head="regression", **{field: value})

    def test_init_defaults_to_baseline(self):
        for cell in ("rnn", "lstm"):
            assert ModelSpec(cell=cell, hidden=4, input_dim=2, head="regression").init == InitScheme("baseline")

    def test_rejects_init_none(self):
        with pytest.raises(TypeError, match="init must be an InitScheme"):
            ModelSpec(cell="rnn", hidden=4, input_dim=2, head="regression", init=None)

    @pytest.mark.parametrize("fields", [{"activation": "tanh"}, {"init": InitScheme("identity")},
                                        {"init": InitScheme("gauss", 0.1)}])
    def test_lstm_rejects_rnn_only_choices(self, fields):
        with pytest.raises(ValueError, match="an lstm takes activation relu and init baseline"):
            ModelSpec(cell="lstm", hidden=4, input_dim=2, head="regression", **fields)

    def test_regression_rejects_classes(self):
        with pytest.raises(ValueError, match="regression head takes classes 0, got 7"):
            ModelSpec(cell="rnn", hidden=4, input_dim=2, head="regression", classes=7)
