"""The binary loaders together: ADDP datasets, IDX images, IDX labels and IRNN checkpoints.

Each reads a header and checks the file's size against it with ``ndcore.check_size``
before it allocates, so a file of any wrong length is a ``ValueError`` and nothing is
allocated for a payload the file does not hold. IDX files and checkpoints then read
their payload through ``ndcore.read_payload``; ``tasks.load_adding`` streams an ADDP
payload a block of examples at a time.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import peak_traced_bytes, write_idx_images, write_idx_labels
from irnnlab import (
    InitScheme,
    ModelSpec,
    gen_adding,
    init_params,
    load_adding,
    load_checkpoint,
    load_mnist,
    make_rng,
    save_adding,
    save_checkpoint,
)
from irnnlab.tasks import DataFormatError

IMAGES = np.random.default_rng(5).integers(0, 256, size=(6, 4, 4), dtype=np.uint8)


@pytest.fixture(scope="module")
def formats(tmp_path_factory):
    """For each format, the bytes of one small valid file and the load that reads a file
    in its place (an IDX file is loaded with the valid file of the other kind)."""
    root = tmp_path_factory.mktemp("formats")
    images, labels = root / "images.idx", root / "labels.idx"
    write_idx_images(images, IMAGES)
    write_idx_labels(labels, np.arange(len(IMAGES)) % 10)
    save_adding(gen_adding(5, 7, make_rng(1)), root / "data.addp")
    spec = ModelSpec(cell="rnn", hidden=3, input_dim=2, head="regression", init=InitScheme("identity"))
    save_checkpoint(root / "model.irnn", spec, *init_params(spec, make_rng(2)))
    return {
        "addp": ((root / "data.addp").read_bytes(), load_adding),
        "idx-images": (images.read_bytes(), lambda path: load_mnist(path, labels)),
        "idx-labels": (labels.read_bytes(), lambda path: load_mnist(images, path)),
        "checkpoint": ((root / "model.irnn").read_bytes(), load_checkpoint),
    }


FORMATS = ["addp", "idx-images", "idx-labels", "checkpoint"]


@pytest.mark.parametrize("fmt", FORMATS)
def test_valid_file_loads(formats, tmp_path, fmt):
    # the files that the tests below cut, extend or rewrite are valid as written
    raw, load = formats[fmt]
    path = tmp_path / fmt
    path.write_bytes(raw)
    load(path)


@pytest.mark.parametrize("fmt", FORMATS)
def test_over_long_file_names_trailing_bytes(formats, tmp_path, fmt):
    raw, load = formats[fmt]
    path = tmp_path / fmt
    path.write_bytes(raw + bytes(8))
    with pytest.raises(DataFormatError, match=f"8 trailing bytes at offset {len(raw)}") as caught:
        load(path)
    assert "truncated" not in str(caught.value)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_cut_or_extended_file_raises_value_error(formats, tmp_path_factory, data):
    # never IndexError, struct.error or MemoryError
    fmt = data.draw(st.sampled_from(FORMATS))
    raw, load = formats[fmt]
    cut = st.integers(0, len(raw) - 1).map(lambda n: raw[:n])
    extended = st.binary(min_size=1, max_size=64).map(lambda tail: raw + tail)
    path = tmp_path_factory.getbasetemp() / f"mutated-{fmt}"
    path.write_bytes(data.draw(st.one_of(cut, extended)))
    with pytest.raises(ValueError):
        load(path)


@pytest.mark.parametrize("fmt", ["checkpoint", "idx-labels"])
def test_large_file_of_zeros_is_rejected_unread(formats, tmp_path, fmt):
    _, load = formats[fmt]
    path = tmp_path / "zeros"
    with open(path, "wb") as fh:
        fh.truncate(20 * 2**20)

    def rejected():
        with pytest.raises(ValueError):
            load(path)

    _, peak = peak_traced_bytes(rejected)
    assert peak < IMAGES.nbytes + 2**20


# for each format, a header field set so the payload it declares would not fit in memory
HUGE = {
    "addp": (16, struct.pack("<q", 2**40)),  # n
    "idx-images": (4, struct.pack(">I", 2**32 - 1)),  # image count
    "idx-labels": (4, struct.pack(">I", 2**32 - 1)),  # label count
    "checkpoint": (24, struct.pack("<q", 2**31)),  # hidden
}


@pytest.mark.parametrize("fmt", FORMATS)
def test_header_declaring_a_huge_payload_is_rejected_unallocated(formats, tmp_path, fmt):
    offset, field = HUGE[fmt]
    raw, load = formats[fmt]
    path = tmp_path / fmt
    path.write_bytes(raw[:offset] + field + raw[offset + len(field):])

    def rejected():
        with pytest.raises(DataFormatError, match="truncated"):
            load(path)

    _, peak = peak_traced_bytes(rejected)
    assert peak < 2**20
