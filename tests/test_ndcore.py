import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irnnlab import make_rng
from irnnlab.ndcore import atomic_write, l2_norm


class TestL2Norm:
    def test_three_four_five(self):
        assert l2_norm([np.array([3.0, 4.0])]) == 5.0

    def test_empty(self):
        assert l2_norm([]) == 0.0

    def test_two_unit_vectors(self):
        got = l2_norm([np.array([1.0, 0.0]), np.array([0.0, 1.0])])
        assert got == pytest.approx(math.sqrt(2), rel=1e-15)

    @given(
        c=st.one_of(st.just(0.0), st.floats(1e-6, 1e6), st.floats(-1e6, -1e-6)),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=40, deadline=None)
    def test_scaling_property(self, c, seed):
        # |c| kept in a range where the squared elements neither under- nor overflow
        v = make_rng(seed).normal(size=13)
        assert l2_norm([v * c]) == pytest.approx(abs(c) * l2_norm([v]), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("size", [1, 3, 100])
def test_atomic_write_keeps_exactly_the_bytes_written(size, tmp_path):
    # the size only preallocates: a file said to be shorter or longer holds what was written
    path = tmp_path / "file"
    path.write_bytes(b"old bytes")
    with atomic_write(path, size) as fh:
        fh.write(b"abc")
    assert path.read_bytes() == b"abc"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
