import math
import warnings

import numpy as np
import pytest

from irnnlab import DivergenceError, LstmParams, RnnParams, ShapeError, make_rng
from irnnlab.cells import lstm_backward, lstm_forward, rnn_backward, rnn_forward, sigmoid_of_negated


def relu_cell(h, d=1, W=None, V=None, b=None, activation="relu"):
    return RnnParams(
        W=np.eye(h) if W is None else np.asarray(W, float),
        V=np.zeros((h, d)) if V is None else np.asarray(V, float),
        b=np.zeros(h) if b is None else np.asarray(b, float),
        activation=activation,
    )


def zero_lstm(h, d=1, forget_bias=0.0):
    z = lambda *s: np.zeros(s)
    p = LstmParams(
        Wi=z(h, h), Vi=z(h, d), bi=z(h),
        Wf=z(h, h), Vf=z(h, d), bf=np.full(h, float(forget_bias)),
        Wo=z(h, h), Vo=z(h, d), bo=z(h),
        Wg=z(h, h), Vg=z(h, d), bg=z(h),
    )
    return p


def seq(*steps):
    """One lane: a list of per-step input vectors as a (T, 1, D) block."""
    return np.asarray(steps, dtype=float)[:, None, :]


def hidden_states(tape, h):
    """h_0 .. h_{T-1} from a tape, as (T, B, H)."""
    return tape.s[1:, :h].transpose(0, 2, 1)


def cell_states(tape):
    """c_0 .. c_{T-1} from an LSTM tape, as (T, B, H)."""
    return tape.c[1:].transpose(0, 2, 1)


def gate(tape, name, t):
    """Activation of gate i/f/o/g at step t, as (B, H)."""
    h = tape.z.shape[1] // 4
    k = "ifog".index(name)
    return tape.z[t, k * h : (k + 1) * h].T


def random_lstm(rng, h, d, scale=1.0):
    return LstmParams(**{k: rng.normal(0, scale, size=v.shape) for k, v in zero_lstm(h, d=d).blocks().items()})


class TestRnnStep:
    def test_identity_carries_state(self):
        # step 0 loads [1, 2] through V; the identity carries it through step 1
        p = relu_cell(2, V=[[2.0], [4.0]])
        h, _ = rnn_forward(p, seq([0.5], [0.0]))
        assert np.array_equal(h, [[1.0, 2.0]])

    def test_relu_clamps_negative(self):
        p = relu_cell(2, V=[[-1.0], [2.0]])
        h, _ = rnn_forward(p, seq([1.0]))
        assert np.array_equal(h, [[0.0, 2.0]])

    def test_tanh_hand_value(self):
        p = relu_cell(1, W=[[0.5]], V=[[1.0]], b=[0.1], activation="tanh")
        h, _ = rnn_forward(p, seq([0.1], [0.3]))
        # h_0 = tanh(0.1 + 0.1); h_1 = tanh(0.5 * h_0 + 0.3 + 0.1)
        assert h[0, 0] == pytest.approx(math.tanh(0.5 * math.tanh(0.2) + 0.4), abs=1e-15)

    def test_identity_carry_invariant_many_steps(self):
        # W=I, relu: channel 0 loads a nonnegative state at step 0; the other
        # channels have zero weights, so the state is a fixed point for any input
        rng = make_rng(0)
        h0 = np.abs(rng.normal(size=6))
        v = np.zeros((6, 3))
        v[:, 0] = h0
        p = relu_cell(6, d=3, V=v)
        inputs = np.zeros((51, 1, 3))
        inputs[0, 0, 0] = 1.0
        inputs[1:, 0, 1:] = rng.normal(size=(50, 2))
        _, tape = rnn_forward(p, inputs)
        for h in hidden_states(tape, 6):
            assert np.array_equal(h[0], h0)

    def test_batched_matches_per_lane(self):
        rng = make_rng(1)
        p = RnnParams(W=rng.normal(size=(4, 4)), V=rng.normal(size=(4, 3)), b=rng.normal(size=4), activation="tanh")
        xs = rng.normal(size=(3, 5, 3))
        h_batch, _ = rnn_forward(p, xs)
        for lane in range(5):
            h_lane, _ = rnn_forward(p, xs[:, lane : lane + 1])
            assert np.allclose(h_batch[lane], h_lane[0], rtol=0, atol=1e-15)

    def test_shape_mismatch_rejected(self):
        p = relu_cell(2)
        with pytest.raises(ShapeError):
            rnn_forward(p, np.zeros((1, 1, 2)))
        with pytest.raises(ShapeError):
            rnn_forward(p, np.zeros((1, 1)))

    def test_scratch_run_matches_taped_run(self):
        rng = make_rng(9)
        p = RnnParams(W=rng.normal(size=(4, 4)), V=rng.normal(size=(4, 2)), b=rng.normal(size=4), activation="tanh")
        xs = rng.normal(size=(7, 3, 2))
        h_tape, tape = rnn_forward(p, xs, keep=True)
        h_scratch, scratch = rnn_forward(p, xs, keep=False)
        assert np.array_equal(h_tape, h_scratch)
        assert tape.z.shape[0] == 7 and scratch.z.shape[0] == 1


class TestRnnBackstep:
    def test_linear_identity_delta_unchanged(self):
        p = relu_cell(3, V=[[1.0], [-2.0], [3.0]], activation="linear")
        _, tape = rnn_forward(p, seq([0.5]))
        dh = np.array([[0.1, -0.2, 0.3]])
        dh0, _ = rnn_backward(p, tape, dh)
        assert np.array_equal(dh0, dh)

    def test_dead_relu_zeroes_everything(self):
        p = relu_cell(2, V=[[-1.0], [-2.0]])
        _, tape = rnn_forward(p, seq([1.0], [1.0]))
        dh0, grads = rnn_backward(p, tape, np.ones((1, 2)))
        assert not np.any(dh0) and all(not np.any(g) for g in grads.values())

    def test_single_unit_hand_chain_rule(self):
        p = relu_cell(1, W=[[0.5]], V=[[1.0]], b=[0.1], activation="tanh")
        _, tape = rnn_forward(p, seq([0.1], [0.3]))
        dh0, grads = rnn_backward(p, tape, np.ones((1, 1)))
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
        p = relu_cell(8, d=2, V=rng.normal(size=(8, 2)), b=rng.normal(size=8), activation="linear")
        _, tape = rnn_forward(p, rng.normal(size=(400, 1, 2)))
        delta = rng.normal(size=(1, 8))
        dh0, _ = rnn_backward(p, tape, delta)
        assert np.array_equal(dh0, delta)

    def test_mismatched_delta_rejected(self):
        p = relu_cell(2)
        _, tape = rnn_forward(p, seq([0.0]))
        with pytest.raises(ShapeError):
            rnn_backward(p, tape, np.ones((1, 3)))

    def test_scratch_tape_rejected(self):
        p = relu_cell(2)
        _, scratch = rnn_forward(p, seq([0.0], [0.0], [0.0]), keep=False)
        with pytest.raises(ShapeError):
            rnn_backward(p, scratch, np.ones((1, 2)))


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
        h_scratch, _ = lstm_forward(p, xs, keep=False)
        assert np.array_equal(h_tape, h_scratch)


class TestLstmBackstep:
    def test_zero_incoming_deltas_give_zero_grads(self):
        rng = make_rng(4)
        p = random_lstm(rng, 3, 2)
        _, tape = lstm_forward(p, rng.normal(size=(3, 1, 2)))
        dh0, dc0, grads = lstm_backward(p, tape, np.zeros((1, 3)), np.zeros((1, 3)))
        assert not np.any(dh0) and not np.any(dc0)
        assert all(not np.any(g) for g in grads.values())

    def test_saturated_forget_gate_passes_cell_delta(self):
        p = zero_lstm(1, forget_bias=20.0)
        _, tape = lstm_forward(p, seq([0.0]))
        dc = np.array([[1.0]])
        _, dc0, _ = lstm_backward(p, tape, np.zeros((1, 1)), dc)
        # d c_prev = f * dc exactly (one multiply)
        assert np.array_equal(dc0, gate(tape, "f", 0) * dc)
        assert dc0[0, 0] > 1 - 3e-9

    def test_finite_difference_oracle_single_step(self):
        # smooth everywhere, so central differences agree tightly; three steps
        # so that the recurrent weights see a nonzero state
        rng = make_rng(8)
        h_dim, d = 3, 2
        p = random_lstm(rng, h_dim, d, scale=0.5)
        x = rng.normal(size=(3, 1, d))
        wh = rng.normal(size=h_dim)  # random linear functional of (h_T, c_T) as the scalar loss
        wc = rng.normal(size=h_dim)

        def loss():
            h, tape = lstm_forward(p, x)
            return float(wh @ h[0] + wc @ tape.c[-1][:, 0])

        _, tape = lstm_forward(p, x)
        _, _, grads = lstm_backward(p, tape, wh[None, :], wc[None, :])
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
            lstm_backward(p, tape, np.zeros((1, 3)), np.zeros((1, 2)))


class TestFiniteCheck:
    # h_t = x_t exactly, so step 3 of the input sets the state the check sees
    LIMIT = 1e100

    @staticmethod
    def run(value, keep):
        inputs = np.zeros((6, 1, 1))
        inputs[3] = value
        return rnn_forward(relu_cell(1, W=[[0.0]], V=[[1.0]], activation="linear"), inputs, keep=keep)

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [LIMIT, -LIMIT])
    def test_limit_passes(self, keep, value):
        _, tape = self.run(value, keep)
        if keep:
            assert tape.s[4, 0, 0] == value

    @pytest.mark.parametrize("keep", [True, False], ids=["taped", "scratch"])
    @pytest.mark.parametrize("value", [np.nextafter(LIMIT, np.inf), -np.nextafter(LIMIT, np.inf),
                                       np.inf, -np.inf, np.nan],
                             ids=["above", "below", "inf", "-inf", "nan"])
    def test_beyond_limit_names_step(self, keep, value):
        with pytest.raises(DivergenceError, match="at step 3$"):
            self.run(value, keep)


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
