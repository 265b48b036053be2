import numpy as np
import pytest

from irnnlab import InitScheme, ModelSpec, check_model, numeric_gradient
from irnnlab.gradcheck import compare_gradients


class TestNumericGradient:
    def test_quadratic_exact_to_rounding(self):
        # f(theta) = sum(theta^2): central differences are exact for quadratics
        params = {"theta": np.array([3.0, -1.5, 0.25])}
        grads = numeric_gradient(lambda p: float(np.sum(p["theta"] ** 2)), params)
        np.testing.assert_allclose(grads["theta"], [6.0, -3.0, 0.5], atol=1e-9)
        assert np.array_equal(params["theta"], [3.0, -1.5, 0.25])  # restored

    def test_constant_function_zero(self):
        params = {"theta": np.linspace(-1, 1, 7)}
        grads = numeric_gradient(lambda p: 42.0, params)
        np.testing.assert_allclose(grads["theta"], 0.0, atol=1e-10)

    def test_non_finite_loss_reports_coordinate(self):
        params = {"w": np.array([0.5])}

        def exploding(p):
            return float("inf") if p["w"][0] != 0.5 else 1.0

        with pytest.raises(ValueError, match=r"w\["):
            numeric_gradient(exploding, params)


class TestCompareGradients:
    def test_flags_genuine_disagreement(self):
        a = {"w": np.array([1.0, 2.0])}
        n = {"w": np.array([1.0, 2.5])}
        assert compare_gradients(a, n)["w"] == pytest.approx(0.2)

    def test_resolution_guard_certifies_sub_noise_agreement(self):
        # both tiny, absolute agreement below the oracle's resolution budget
        a = {"w": np.array([9.840e-9])}
        n = {"w": np.array([9.837e-9])}
        assert compare_gradients(a, n)["w"] == 0.0  # the raw ratio 3e-4 would have failed the bound

    def test_resolution_guard_does_not_hide_real_bugs(self):
        # a dropped term of size 1e-6 must still fail loudly
        a = {"w": np.array([0.0])}
        n = {"w": np.array([1e-6])}
        assert compare_gradients(a, n)["w"] > 0.9


class TestCheckModel:
    def test_crnn_passes_at_1e_4(self):
        spec = ModelSpec(cell="rnn", hidden=5, input_dim=2, head="regression",
                         activation="relu", init=InitScheme("identity"))
        report = check_model(spec, trials=5, seed=0)
        assert report.max_rel_err < 1e-4

    def test_saturated_lstm_passes_at_1e_4(self):
        spec = ModelSpec(cell="lstm", hidden=5, input_dim=2, head="regression", forget_bias=20.0)
        report = check_model(spec, trials=5, seed=0)
        assert report.max_rel_err < 1e-4

    def test_linear_passes_at_1e_6(self):
        spec = ModelSpec(cell="rnn", hidden=5, input_dim=2, head="regression", activation="linear")
        report = check_model(spec, trials=5, seed=0)
        assert report.max_rel_err < 1e-6

    def test_report_covers_every_block(self):
        spec = ModelSpec(cell="lstm", hidden=3, input_dim=2, head="softmax", classes=4)
        report = check_model(spec, trials=1, seed=0)
        expected = {f"{w}{g}" for g in "ifog" for w in ("W", "V", "b")} | {"U", "c"}
        assert set(report.blocks) == expected

    def test_rejects_zero_trials(self):
        spec = ModelSpec(cell="rnn", hidden=3, input_dim=2, head="regression")
        with pytest.raises(ValueError):
            check_model(spec, trials=0, seed=0)
