import numpy as np
import pytest

from irnnlab import InitScheme, ModelSpec, init_params, make_rng, parse_scheme


def rnn_draw(seed, hidden, input_dim, init=InitScheme("baseline"), activation="relu", input_init_std=0.001):
    """The (W, V, b) that ``init_params`` draws for an RNN spec from ``make_rng(seed)``."""
    spec = ModelSpec(cell="rnn", hidden=hidden, input_dim=input_dim, head="regression",
                     activation=activation, init=init, input_init_std=input_init_std)
    params, _ = init_params(spec, make_rng(seed))
    return params.W, params.V, params.b


class TestScheme:
    def test_parse_baseline(self):
        assert parse_scheme("baseline") == InitScheme("baseline") == InitScheme("baseline", 0.0)

    def test_parse_identity(self):
        assert parse_scheme("identity") == InitScheme("identity")

    def test_parse_iscale(self):
        assert parse_scheme("iscale:0.01") == InitScheme("iscale", 0.01)

    def test_parse_gauss(self):
        assert parse_scheme("gauss:0.001") == InitScheme("gauss", 0.001)

    @pytest.mark.parametrize("bad", ["baseline:0.1", "identity:3", "iscale", "gauss", "orthogonal", "iscale:x"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_scheme(bad)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            InitScheme("iscale", 0.0)
        with pytest.raises(ValueError):
            InitScheme("gauss", -0.1)

    @pytest.mark.parametrize("kind", ["baseline", "identity"])
    def test_nonzero_parameter_rejected_where_none_applies(self, kind):
        with pytest.raises(ValueError, match=f"{kind} takes no parameter, got 3.0"):
            InitScheme(kind, 3.0)

    @pytest.mark.parametrize("kind", ["baseline", "identity", "iscale", "gauss"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_parameter_rejected(self, kind, value):
        with pytest.raises(ValueError, match=f"{kind} parameter must be finite"):
            InitScheme(kind, value)


class TestInitRecurrent:
    def test_identity_scheme_is_exact_identity(self):
        w, _, _ = rnn_draw(0, 100, 2, InitScheme("identity"))
        assert np.array_equal(w, np.eye(100))
        # exact identity: every eigenvalue is 1 by construction
        assert np.array_equal(np.diag(w), np.ones(100))
        assert np.array_equal(rnn_draw(0, 1, 2, InitScheme("identity"))[0], [[1.0]])

    def test_scaled_identity_scheme(self):
        w, _, _ = rnn_draw(0, 4, 2, InitScheme("iscale", 0.01))
        assert np.array_equal(w, 0.01 * np.eye(4))
        assert np.array_equal(rnn_draw(0, 4, 2, InitScheme("iscale", 1.0))[0], np.eye(4))

    def test_gaussian_scheme(self):
        w, _, _ = rnn_draw(3, 8, 2, InitScheme("gauss", 0.001))
        assert w.shape == (8, 8)
        assert np.all(np.abs(w) < 0.01)
        assert w.std() > 0
        big, _, _ = rnn_draw(2, 100, 2, InitScheme("gauss", 0.001))
        assert abs(big.mean()) < 0.0005
        assert 0.0005 < big.std() < 0.0015
        assert np.array_equal(big, rnn_draw(2, 100, 2, InitScheme("gauss", 0.001))[0])

    @pytest.mark.parametrize("activation", ["relu", "linear"])
    def test_baseline_is_gauss_at_input_std_for_relu_and_linear(self, activation):
        for x, y in zip(rnn_draw(8, 6, 2, activation=activation, input_init_std=0.01),
                        rnn_draw(8, 6, 2, InitScheme("gauss", 0.01), activation, input_init_std=0.01)):
            assert np.array_equal(x, y)

    def test_rejects_zero_hidden(self):
        for scheme in (InitScheme("identity"), InitScheme("iscale", 0.5), InitScheme("gauss", 0.1)):
            with pytest.raises(ValueError, match="hidden and input_dim must be >= 1"):
                rnn_draw(0, 0, 2, scheme)


class TestInitInputAndBias:
    def test_zero_std_gives_zeros(self):
        _, v, b = rnn_draw(0, 5, 3, InitScheme("identity"), input_init_std=0.0)
        assert np.array_equal(v, np.zeros((5, 3)))
        assert np.array_equal(b, np.zeros(5))

    def test_zero_std_draws_like_any_other_std(self):
        # every block at the input scale is drawn, N(0, 0) as +0.0, so the stream advances alike
        rngs = []
        for std in (0.0, 0.001):
            spec = ModelSpec(cell="rnn", hidden=5, input_dim=3, head="regression",
                             init=InitScheme("identity"), input_init_std=std)
            rngs.append(make_rng(0))
            params, head = init_params(spec, rngs[-1])
            if std == 0:
                assert not np.any(head.U) and not np.any(head.c)
        assert rngs[0].random() == rngs[1].random()

    def test_six_sigma_bound(self):
        _, v, b = rnn_draw(11, 100, 2, InitScheme("identity"))
        assert v.size == 200
        assert np.max(np.abs(v)) < 0.006
        assert np.max(np.abs(b)) < 0.006

    def test_determinism(self):
        _, v1, b1 = rnn_draw(5, 10, 4, InitScheme("identity"))
        _, v2, b2 = rnn_draw(5, 10, 4, InitScheme("identity"))
        assert np.array_equal(v1, v2) and np.array_equal(b1, b2)

    def test_rejects_negative_std(self):
        with pytest.raises(ValueError, match="input_init_std must be finite and >= 0"):
            rnn_draw(0, 2, 2, InitScheme("identity"), input_init_std=-0.001)

    @pytest.mark.parametrize("h, d", [(0, 2), (2, 0)])
    def test_rejects_zero_sizes(self, h, d):
        with pytest.raises(ValueError, match="hidden and input_dim must be >= 1"):
            rnn_draw(0, h, d, InitScheme("identity"))


class TestTanhBaseline:
    def test_degenerate_size(self):
        w, v, b = rnn_draw(4, 1, 1, activation="tanh")
        assert w.shape == (1, 1) and v.shape == (1, 1)
        assert np.array_equal(b, [0.0])

    def test_recurrent_std_near_inverse_sqrt_h(self):
        w, _, _ = rnn_draw(6, 100, 2, activation="tanh")
        assert 0.08 < w.std() < 0.12  # 1/sqrt(100) = 0.1

    def test_determinism(self):
        a = rnn_draw(9, 7, 3, activation="tanh")
        b = rnn_draw(9, 7, 3, activation="tanh")
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
