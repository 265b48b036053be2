import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import peak_traced_bytes
from irnnlab import DivergenceError, LstmParams, RnnParams, ShapeError, make_rng
from irnnlab.cells import lstm_backward, lstm_forward, rnn_backward, rnn_forward, sigmoid_of_negated


def rnn_cell(h, d=1, W=None, V=None, b=None):
    return RnnParams.from_blocks(
        W=np.eye(h) if W is None else np.asarray(W, float),
        V=np.zeros((h, d)) if V is None else np.asarray(V, float),
        b=np.zeros(h) if b is None else np.asarray(b, float),
    )


def zero_lstm(h, d=1, forget_bias=0.0):
    z = lambda *s: np.zeros(s)
    p = LstmParams.from_blocks(
        Wi=z(h, h), Vi=z(h, d), bi=z(h),
        Wf=z(h, h), Vf=z(h, d), bf=np.full(h, float(forget_bias)),
        Wo=z(h, h), Vo=z(h, d), bo=z(h),
        Wg=z(h, h), Vg=z(h, d), bg=z(h),
    )
    return p


def rnn_grads(p, activation, tape, dh):
    """dh_0 and the named gradient blocks from the RNN backward kernel."""
    out = replace(p, a=np.zeros_like(p.a))
    return rnn_backward(p, activation, tape, dh, out), out.blocks()


def lstm_grads(p, tape, dh):
    """dh_0 and the named gradient blocks from the LSTM backward kernel."""
    out = replace(p, a=np.zeros_like(p.a))
    return lstm_backward(p, tape, dh, out), out.blocks()


def seq(*steps):
    """One lane: a list of per-step input vectors as a (T, 1, D) block."""
    return np.asarray(steps, dtype=float)[:, None, :]


def hidden_states(tape, h):
    """h_0 .. h_{T-1} from a tape, as (T, B, H)."""
    return tape[0][1:, :h].transpose(0, 2, 1)


def cell_states(tape):
    """c_0 .. c_{T-1} from an LSTM tape, as (T, B, H)."""
    return tape[2][1:].transpose(0, 2, 1)


def random_lstm(rng, h, d, scale=1.0):
    return LstmParams.from_blocks(**{k: rng.normal(0, scale, size=v.shape) for k, v in zero_lstm(h, d=d).blocks().items()})


def zero_blocks(cell, h, d):
    """Zero copies of the named blocks of a cell with hidden size h and input size d."""
    return {name: np.zeros(view.shape) for name, view in cell(np.zeros(cell.operand_shape(h, d))).blocks().items()}


class TestBlockShapes:
    @pytest.mark.parametrize("cell,gates", [(RnnParams, [""]), (LstmParams, ["i", "f", "o", "g"])],
                             ids=["RnnParams", "LstmParams"])
    def test_blocks_follow_the_shape_table(self, cell, gates):
        # checkpoints write the blocks in ``blocks()`` order: W, V and b per gate
        params = cell.from_blocks(**zero_blocks(cell, 3, 2))
        kinds = (("W", (3, 3)), ("V", (3, 2)), ("b", (3,)))
        table = [(f"{kind}{gate}", shape) for gate in gates for kind, shape in kinds]
        assert [(name, a.shape) for name, a in params.blocks().items()] == table
        assert [(name, getattr(params, name).shape) for name, _ in table] == table

    @pytest.mark.parametrize("cell,name", [(RnnParams, "W"), (RnnParams, "V"), (RnnParams, "b"),
                                           (LstmParams, "Vf"), (LstmParams, "bo")])
    def test_misshaped_block_rejected(self, cell, name):
        blocks = zero_blocks(cell, 3, 2)
        blocks[name] = np.zeros(blocks[name].shape + (1,))
        with pytest.raises(ShapeError):
            cell.from_blocks(**blocks)

    def test_unknown_block_rejected(self):
        # the activation is an argument of the RNN kernels, not a field of the cell
        with pytest.raises(TypeError):
            RnnParams.from_blocks(**zero_blocks(RnnParams, 3, 2), activation="tanh")


class TestRnnStep:
    def test_identity_carries_state(self):
        # step 0 loads [1, 2] through V; the identity carries it through step 1
        p = rnn_cell(2, V=[[2.0], [4.0]])
        h, _ = rnn_forward(p, "relu", seq([0.5], [0.0]))
        assert np.array_equal(h, [[1.0, 2.0]])

    def test_relu_clamps_negative(self):
        p = rnn_cell(2, V=[[-1.0], [2.0]])
        h, _ = rnn_forward(p, "relu", seq([1.0]))
        assert np.array_equal(h, [[0.0, 2.0]])

    def test_tanh_hand_value(self):
        p = rnn_cell(1, W=[[0.5]], V=[[1.0]], b=[0.1])
        h, _ = rnn_forward(p, "tanh", seq([0.1], [0.3]))
        # h_0 = tanh(0.1 + 0.1); h_1 = tanh(0.5 * h_0 + 0.3 + 0.1)
        assert h[0, 0] == pytest.approx(math.tanh(0.5 * math.tanh(0.2) + 0.4), abs=1e-15)

    def test_identity_carry_invariant_many_steps(self):
        # W=I, relu: channel 0 loads a nonnegative state at step 0; the other
        # channels have zero weights, so the state is a fixed point for any input
        rng = make_rng(0)
        h0 = np.abs(rng.normal(size=6))
        v = np.zeros((6, 3))
        v[:, 0] = h0
        p = rnn_cell(6, d=3, V=v)
        inputs = np.zeros((51, 1, 3))
        inputs[0, 0, 0] = 1.0
        inputs[1:, 0, 1:] = rng.normal(size=(50, 2))
        _, tape = rnn_forward(p, "relu", inputs)
        for h in hidden_states(tape, 6):
            assert np.array_equal(h[0], h0)

    def test_batched_matches_per_lane(self):
        rng = make_rng(1)
        p = RnnParams.from_blocks(W=rng.normal(size=(4, 4)), V=rng.normal(size=(4, 3)), b=rng.normal(size=4))
        xs = rng.normal(size=(3, 5, 3))
        h_batch, _ = rnn_forward(p, "tanh", xs)
        for lane in range(5):
            h_lane, _ = rnn_forward(p, "tanh", xs[:, lane : lane + 1])
            assert np.allclose(h_batch[lane], h_lane[0], rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        p = rnn_cell(2)
        with pytest.raises(ShapeError):
            rnn_forward(p, "relu", np.zeros((1, 1, 2)))
        with pytest.raises(ShapeError):
            rnn_forward(p, "relu", np.zeros((1, 1)))

    @pytest.mark.parametrize("activation", ["relu", "tanh", "linear"])
    def test_scratch_run_matches_taped_run(self, activation):
        # an RNN tape is its state block alone, T+1 slots; the tape-free pass returns none
        rng = make_rng(9)
        p = RnnParams.from_blocks(W=rng.normal(size=(4, 4)), V=rng.normal(size=(4, 2)), b=rng.normal(size=4))
        xs = rng.normal(size=(7, 3, 2))
        h_tape, tape = rnn_forward(p, activation, xs, keep=True)
        h_scratch, scratch = rnn_forward(p, activation, xs, keep=False)
        assert np.array_equal(h_tape, h_scratch)
        assert len(tape) == 1 and tape[0].shape[0] == 8 and scratch is None


class TestRnnBackstep:
    def test_linear_identity_delta_unchanged(self):
        p = rnn_cell(3, V=[[1.0], [-2.0], [3.0]])
        _, tape = rnn_forward(p, "linear", seq([0.5]))
        dh = np.array([[0.1, -0.2, 0.3]])
        dh0, _ = rnn_grads(p, "linear", tape, dh)
        assert np.array_equal(dh0, dh)

    def test_dead_relu_zeroes_everything(self):
        p = rnn_cell(2, V=[[-1.0], [-2.0]])
        _, tape = rnn_forward(p, "relu", seq([1.0], [1.0]))
        dh0, grads = rnn_grads(p, "relu", tape, np.ones((1, 2)))
        assert not np.any(dh0) and all(not np.any(g) for g in grads.values())

    def test_single_unit_hand_chain_rule(self):
        p = rnn_cell(1, W=[[0.5]], V=[[1.0]], b=[0.1])
        _, tape = rnn_forward(p, "tanh", seq([0.1], [0.3]))
        dh0, grads = rnn_grads(p, "tanh", tape, np.ones((1, 1)))
        h0 = math.tanh(0.2)
        m1 = 1.0 - math.tanh(0.5 * h0 + 0.4) ** 2  # d h_1 / d z_1
        m0 = 0.5 * m1 * (1.0 - h0 * h0)  # d h_1 / d z_0, through W
        assert grads["b"][0] == pytest.approx(m1 + m0, abs=1e-15)
        assert grads["W"][0, 0] == pytest.approx(m1 * h0 + m0 * 0.0, abs=1e-15)  # times h_prev
        assert grads["V"][0, 0] == pytest.approx(m1 * 0.3 + m0 * 0.1, abs=1e-15)  # times x
        assert dh0[0, 0] == pytest.approx(m0 * 0.5, abs=1e-15)  # times W

    def test_delta_constant_over_long_chain(self):
        # linear activation, W=I: the reverse pass leaves the delta bit-identical
        rng = make_rng(2)
        p = rnn_cell(8, d=2, V=rng.normal(size=(8, 2)), b=rng.normal(size=8))
        _, tape = rnn_forward(p, "linear", rng.normal(size=(400, 1, 2)))
        delta = rng.normal(size=(1, 8))
        dh0, _ = rnn_grads(p, "linear", tape, delta)
        assert np.array_equal(dh0, delta)

    def test_mismatched_delta_rejected(self):
        p = rnn_cell(2)
        _, tape = rnn_forward(p, "relu", seq([0.0]))
        with pytest.raises(ShapeError):
            rnn_grads(p, "relu", tape, np.ones((1, 3)))


class TestLstmStep:
    def test_zero_weights_hand_values(self):
        # zero weight matrices; a candidate bias of 20 gives g = tanh(20) = 1.0 exactly
        p = zero_lstm(1)
        p.bg[:] = 20.0
        h, tape = lstm_forward(p, seq([0.0]))
        c = cell_states(tape)[0, 0]
        # i = f = o = 0.5, g = 1, c = 0.5, h = 0.5 * tanh(0.5)
        assert c[0] == pytest.approx(0.5, abs=1e-15)
        assert h[0, 0] == pytest.approx(0.5 * math.tanh(0.5), abs=1e-15)

    def test_saturated_forget_gate_retains_cell(self):
        # step 0 (x=1) loads c = sigmoid(40) * tanh(20) = 1.0 exactly; step 1 (x=0) keeps f * c
        p = zero_lstm(1, forget_bias=20.0)
        p.Vi[:] = 40.0
        p.Vg[:] = 20.0
        _, tape = lstm_forward(p, seq([1.0], [0.0]))
        c0, c1 = cell_states(tape)[:, 0, 0]
        assert c0 == 1.0
        assert c1 == pytest.approx(1.0 / (1.0 + math.exp(-20.0)), abs=1e-15)
        assert c1 > 1 - 3e-9

    def test_zero_fixed_point(self):
        p = zero_lstm(3, forget_bias=0.0)
        h, tape = lstm_forward(p, np.zeros((4, 1, 1)))
        assert not np.any(hidden_states(tape, 3)) and not np.any(cell_states(tape))
        assert not np.any(h)

    def test_h_bounded_by_tanh_c(self):
        rng = make_rng(3)
        p = random_lstm(rng, 4, 2)
        _, tape = lstm_forward(p, rng.normal(size=(20, 3, 2)))
        for h, c in zip(hidden_states(tape, 4), cell_states(tape)):
            assert np.all(np.abs(h) <= np.abs(np.tanh(c)) + 1e-15)
            assert np.all(np.abs(h) <= 1.0)

    def test_state_shape_mismatch_rejected(self):
        p = zero_lstm(2)
        with pytest.raises(ShapeError):
            lstm_forward(p, np.zeros((1, 1, 3)))

    def test_scratch_run_matches_taped_run(self):
        rng = make_rng(10)
        p = random_lstm(rng, 4, 2)
        xs = rng.normal(size=(7, 3, 2))
        h_tape, _ = lstm_forward(p, xs, keep=True)
        h_scratch, scratch = lstm_forward(p, xs, keep=False)
        assert np.array_equal(h_tape, h_scratch) and scratch is None


class TestLstmBackstep:
    def test_zero_incoming_deltas_give_zero_grads(self):
        rng = make_rng(4)
        p = random_lstm(rng, 3, 2)
        _, tape = lstm_forward(p, rng.normal(size=(3, 1, 2)))
        dh0, grads = lstm_grads(p, tape, np.zeros((1, 3)))
        assert not np.any(dh0)
        assert all(not np.any(g) for g in grads.values())

    def test_finite_difference_oracle_single_step(self):
        # smooth everywhere, so central differences agree tightly; three steps
        # so that the recurrent weights see a nonzero state
        rng = make_rng(8)
        h_dim, d = 3, 2
        p = random_lstm(rng, h_dim, d, scale=0.5)
        x = rng.normal(size=(3, 1, d))
        wh = rng.normal(size=h_dim)  # random linear functional of h_T as the scalar loss

        def loss():
            h, _ = lstm_forward(p, x)
            return float(wh @ h[0])

        _, tape = lstm_forward(p, x)
        _, grads = lstm_grads(p, tape, wh[None, :])
        eps = 1e-5
        for name, block in p.blocks().items():
            for i in range(block.size):
                orig = block.flat[i]
                block.flat[i] = orig + eps
                up = loss()
                block.flat[i] = orig - eps
                down = loss()
                block.flat[i] = orig
                numeric = (up - down) / (2 * eps)
                analytic = grads[name].flat[i]
                denom = max(abs(analytic), abs(numeric), 1e-8)
                assert abs(analytic - numeric) / denom < 1e-6, f"{name}[{i}]"

    def test_delta_shape_mismatch_rejected(self):
        p = zero_lstm(2)
        _, tape = lstm_forward(p, seq([0.0]))
        with pytest.raises(ShapeError):
            lstm_grads(p, tape, np.zeros((1, 3)))


class TestTapeFreeMemory:
    # A slot is one step's (H+D+1, B) float64 operand. A tape holds T+1 of them, and an LSTM's
    # gates and cell states over 2000 more. The tape-free pass reuses 2; the LSTM's also holds
    # one step of gates and two of cell states (7H rows) and its copy of A, 10.4 slots here.
    T, B, H, D = 400, 64, 32, 2
    SLOT = (H + D + 1) * B * 8

    @pytest.mark.parametrize("cell,slots", [("relu", 3), ("tanh", 3), ("linear", 3), ("lstm", 16)])
    def test_peak_does_not_grow_with_t(self, cell, slots):
        rng = make_rng(11)
        xs = rng.normal(size=(self.T, self.B, self.D))
        if cell == "lstm":
            p = random_lstm(rng, self.H, self.D, scale=0.1)
            run = lambda keep: lstm_forward(p, xs, keep)
        else:
            p = rnn_cell(self.H, d=self.D, V=rng.normal(0.0, 0.1, size=(self.H, self.D)))
            run = lambda keep: rnn_forward(p, cell, xs, keep)
        _, peak = peak_traced_bytes(lambda: run(False))
        _, taped_peak = peak_traced_bytes(lambda: run(True))
        assert peak <= slots * self.SLOT
        assert taped_peak >= (self.T + 1) * self.SLOT


class TestFiniteCheck:
    # h_t = g(x_t) exactly, so step 3 of the input sets the state the check sees
    LIMIT = 1e100

    @staticmethod
    def run(value, keep, activation="linear"):
        inputs = np.zeros((6, 1, 1))
        inputs[3] = value
        return rnn_forward(rnn_cell(1, W=[[0.0]], V=[[1.0]]), activation, inputs, keep=keep)

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [LIMIT, -LIMIT])
    def test_limit_passes(self, keep, value):
        _, tape = self.run(value, keep)
        if keep:
            assert tape[0][4, 0, 0] == value

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [np.nextafter(LIMIT, np.inf), -np.nextafter(LIMIT, np.inf),
                                       np.inf, -np.inf, np.nan],
                             ids=["above", "below", "inf", "-inf", "nan"])
    def test_beyond_limit_names_step(self, keep, value):
        with pytest.raises(DivergenceError, match="at step 3$"):
            self.run(value, keep)

    # the rectifier runs in place on the GEMM output: it clamps a negative state to 0
    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [LIMIT, -np.inf, -1e300], ids=["limit", "-inf", "-1e300"])
    def test_relu_limit_and_negatives_pass(self, keep, value):
        _, tape = self.run(value, keep, "relu")
        if keep:
            assert tape[0][4, 0, 0] == max(value, 0.0)

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [np.nextafter(LIMIT, np.inf), np.inf, np.nan], ids=["above", "inf", "nan"])
    def test_relu_beyond_limit_names_step(self, keep, value):
        with pytest.raises(DivergenceError, match="at step 3$"):
            self.run(value, keep, "relu")

    # a tanh state lies in [-1, 1], so the check takes its maximum alone: an infinite input
    # saturates the state and passes, and NaN still fails the one comparison
    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [np.inf, -np.inf], ids=["inf", "-inf"])
    def test_tanh_inf_input_saturates(self, keep, value):
        _, tape = self.run(value, keep, "tanh")
        if keep:
            assert tape[0][4, 0, 0] == np.sign(value)

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    def test_tanh_nan_names_step(self, keep):
        with pytest.raises(DivergenceError, match="at step 3$"):
            self.run(np.nan, keep, "tanh")

    # float32 cannot hold OVERFLOW_LIMIT (1e100 is inf there): an inf state fails at its own step
    # on the tape-free pass that ``harness.evaluate`` runs, also under relu, which clamps the next
    # step's -inf to 0. The taped pass casts every step's input before the loop, under the same
    # error state, so neither pass warns.
    @pytest.mark.parametrize("activation,w,keep", [
        ("linear", 0.0, False), ("relu", -1.0, False), ("lstm", None, False),
        ("linear", 0.0, True), ("relu", -1.0, True), ("lstm", None, True),
    ], ids=["linear-0.0", "relu--1.0", "lstm", "linear-0.0-taped", "relu--1.0-taped", "lstm-taped"])
    def test_float32_inf_names_its_step(self, activation, w, keep):
        inputs = np.zeros((6, 1, 1))
        inputs[3] = 1e39
        with warnings.catch_warnings(), pytest.raises(DivergenceError, match="at step 3$"):
            warnings.simplefilter("error")
            if activation == "lstm":
                lstm_forward(LstmParams(zero_lstm(1).a.astype(np.float32)), inputs, keep=keep)
            else:
                p = rnn_cell(1, W=[[w]], V=[[1.0]])
                rnn_forward(RnnParams(p.a.astype(np.float32)), activation, inputs, keep=keep)

    # the LSTM check reads h alone: |c_t| <= t, and a NaN in c_t is a NaN in h_t
    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    def test_lstm_nan_in_the_o_gate_alone_names_step(self, keep):
        # 2e308 - 2e308 is NaN in the o gate only; the other gates read the input times 0
        p = zero_lstm(1, d=2)
        p.Vo[...] = 2.0
        inputs = np.zeros((6, 1, 2))
        inputs[3] = [1e308, -1e308]
        with pytest.raises(DivergenceError, match="at step 3$"):
            lstm_forward(p, inputs, keep=keep)

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    def test_lstm_nan_input_names_step(self, keep):
        inputs = np.zeros((6, 1, 1))
        inputs[3] = np.nan
        with pytest.raises(DivergenceError, match="at step 3$"):
            lstm_forward(zero_lstm(1), inputs, keep=keep)


class TestSigmoid:
    # sigmoid_of_negated takes -z, as the LSTM kernel's GEMM yields it
    def test_extremes_are_stable(self):
        z = np.array([-800.0, -20.0, 0.0, 20.0, 800.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = sigmoid_of_negated(-z)
        assert np.all(np.isfinite(s))
        assert s[0] == 0.0 and s[-1] == 1.0
        assert s[2] == 0.5

    def test_in_place(self):
        neg_z = -np.array([-1.0, 0.0, 2.0])
        expected = sigmoid_of_negated(neg_z.copy())
        out = sigmoid_of_negated(neg_z, out=neg_z)
        assert out is neg_z and np.array_equal(neg_z, expected)

    def test_matches_reference_forms(self):
        # reference: exp(z)/(1+exp(z)) for z < 0 and 1/(1+exp(-z)) for z >= 0.
        # The grid includes z = -20 and -40, where 0.5*(1+tanh(z/2)) loses
        # 1e-8 relative and underflows to 0.
        z = np.concatenate([np.linspace(-745.0, 745.0, 20001), [-40.0, -20.0, -1e-300, 0.0]])
        neg = np.minimum(z, 0.0)
        with np.errstate(under="ignore"):
            ref = np.where(z < 0, np.exp(neg) / (1.0 + np.exp(neg)), 1.0 / (1.0 + np.exp(-np.maximum(z, 0.0))))
        s = sigmoid_of_negated(-z)
        tiny = np.finfo(np.float64).tiny
        normal = ref >= tiny
        assert normal[-4:].all()
        rel = np.abs(s[normal] - ref[normal]) / ref[normal]
        assert rel.max() <= 1e-15
        # below the normal range float64 carries no relative precision; both
        # forms must still agree to within the smallest normal number
        assert np.abs(s[~normal] - ref[~normal]).max() <= tiny
