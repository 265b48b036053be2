import numpy as np
import pytest

from irnnlab import InitScheme, init_input_and_bias, init_recurrent, init_tanh_baseline, make_rng, parse_scheme


class TestScheme:
    def test_parse_identity(self):
        assert parse_scheme("identity") == InitScheme("identity")

    def test_parse_iscale(self):
        assert parse_scheme("iscale:0.01") == InitScheme("iscale", 0.01)

    def test_parse_gauss(self):
        assert parse_scheme("gauss:0.001") == InitScheme("gauss", 0.001)

    @pytest.mark.parametrize("bad", ["identity:3", "iscale", "gauss", "orthogonal", "iscale:x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_scheme(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InitScheme("iscale", 0.0)
        with pytest.raises(ValueError):
            InitScheme("gauss", -0.1)

    @pytest.mark.parametrize("kind", ["iscale", "gauss"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_parameter_rejected(self, kind, value):
        with pytest.raises(ValueError, match=f"{kind} parameter must be finite"):
            InitScheme(kind, value)

    def test_str_round_trips(self):
        for text in ("identity", "iscale:0.01", "gauss:0.001"):
            assert parse_scheme(str(parse_scheme(text))) == parse_scheme(text)


class TestInitRecurrent:
    def test_identity_scheme_is_exact_identity(self):
        w = init_recurrent(InitScheme("identity"), 100, make_rng(0))
        assert np.array_equal(w, np.eye(100))
        # exact identity: every eigenvalue is 1 by construction
        assert np.array_equal(np.diag(w), np.ones(100))
        assert np.array_equal(init_recurrent(InitScheme("identity"), 1, make_rng(0)), [[1.0]])

    def test_scaled_identity_scheme(self):
        w = init_recurrent(InitScheme("iscale", 0.01), 4, make_rng(0))
        assert np.array_equal(w, 0.01 * np.eye(4))
        assert np.array_equal(init_recurrent(InitScheme("iscale", 1.0), 4, make_rng(0)), np.eye(4))

    def test_gaussian_scheme(self):
        w = init_recurrent(InitScheme("gauss", 0.001), 8, make_rng(3))
        assert w.shape == (8, 8)
        assert np.all(np.abs(w) < 0.01)
        assert w.std() > 0
        big = init_recurrent(InitScheme("gauss", 0.001), 100, make_rng(2))
        assert abs(big.mean()) < 0.0005
        assert 0.0005 < big.std() < 0.0015
        assert np.array_equal(big, init_recurrent(InitScheme("gauss", 0.001), 100, make_rng(2)))

    def test_rejects_zero_hidden(self):
        for scheme in (InitScheme("identity"), InitScheme("iscale", 0.5), InitScheme("gauss", 0.1)):
            with pytest.raises(ValueError):
                init_recurrent(scheme, 0, make_rng(0))


class TestInitInputAndBias:
    def test_zero_std_gives_zeros(self):
        v, b = init_input_and_bias(0.0, 5, 3, make_rng(0))
        assert np.array_equal(v, np.zeros((5, 3)))
        assert np.array_equal(b, np.zeros(5))

    def test_six_sigma_bound(self):
        v, b = init_input_and_bias(0.001, 100, 2, make_rng(11))
        assert v.size == 200
        assert np.max(np.abs(v)) < 0.006
        assert np.max(np.abs(b)) < 0.006

    def test_determinism(self):
        v1, b1 = init_input_and_bias(0.001, 10, 4, make_rng(5))
        v2, b2 = init_input_and_bias(0.001, 10, 4, make_rng(5))
        assert np.array_equal(v1, v2) and np.array_equal(b1, b2)

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError):
            init_input_and_bias(-0.001, 2, 2, make_rng(0))

    @pytest.mark.parametrize("h, d", [(0, 2), (2, 0)])
    def test_rejects_zero_sizes(self, h, d):
        with pytest.raises(ValueError):
            init_input_and_bias(0.001, h, d, make_rng(0))


class TestTanhBaseline:
    def test_degenerate_size(self):
        w, v, b = init_tanh_baseline(1, 1, make_rng(4))
        assert w.shape == (1, 1) and v.shape == (1, 1)
        assert np.array_equal(b, [0.0])

    def test_recurrent_std_near_inverse_sqrt_h(self):
        w, _, _ = init_tanh_baseline(100, 2, make_rng(6))
        assert 0.08 < w.std() < 0.12  # 1/sqrt(100) = 0.1

    def test_determinism(self):
        a = init_tanh_baseline(7, 3, make_rng(9))
        b = init_tanh_baseline(7, 3, make_rng(9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
