import pytest

from irnnlab.ndcore import atomic_write


@pytest.mark.parametrize("size", [1, 3, 100])
def test_atomic_write_keeps_exactly_the_bytes_written(size, tmp_path):
    # the size only preallocates: a file said to be shorter or longer holds what was written
    path = tmp_path / "file"
    path.write_bytes(b"old bytes")
    with atomic_write(path, size) as fh:
        fh.write(b"abc")
    assert path.read_bytes() == b"abc"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
