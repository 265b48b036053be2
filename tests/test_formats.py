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
from irnnlab.cli import main
from irnnlab.tasks import ADDING_MAGIC, DataFormatError

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


@pytest.fixture(scope="module")
def trained_checkpoints(tmp_path_factory):
    """An adding test set and the checkpoints that ``train`` writes for an IRNN and an LSTM."""
    root = tmp_path_factory.mktemp("trained")
    save_adding(gen_adding(4, 8, make_rng(3)), root / "data.addp")
    for cell, init in (("rnn", ["--init", "identity"]), ("lstm", [])):
        code = main(["train", "--task", "adding", "--cell", cell, *init, "--hidden", "3", "--lr", "0.01",
                     "--clip", "1", "--steps", "1", "--eval-every", "1", "--data", str(root / "data.addp"),
                     str(root / "data.addp"), "--out-dir", str(root / cell)])
        assert code == 0
    return root


# header fields (offset, 8 bytes) that do not apply to the model, so no spec holds them
NOT_APPLICABLE = [
    ("lstm", [(16, struct.pack("<q", 1))], "an lstm takes activation relu and init baseline, got tanh"),
    ("lstm", [(56, struct.pack("<q", 2)), (64, struct.pack("<d", 0.5))],
     "an lstm takes activation relu and init baseline, got relu and iscale"),
    ("rnn", [(48, struct.pack("<q", 7))], "regression head takes classes 0, got 7"),
    ("lstm", [(48, struct.pack("<q", 7))], "regression head takes classes 0, got 7"),
    ("rnn", [(64, struct.pack("<d", 3.0))], "identity takes no parameter, got 3.0"),
    ("rnn", [(80, struct.pack("<d", 5.0))], "an rnn takes forget_bias 1.0, got 5.0"),
]


@pytest.mark.parametrize("cell,patches,message", NOT_APPLICABLE,
                         ids=["lstm-tanh", "lstm-iscale", "rnn-classes-7", "lstm-classes-7", "identity-3",
                              "rnn-forget-bias-5"])
def test_checkpoint_field_that_does_not_apply_exits_2(trained_checkpoints, tmp_path, capsys, cell, patches,
                                                      message):
    data = bytearray((trained_checkpoints / cell / "checkpoint.irnn").read_bytes())
    for offset, field in patches:
        data[offset : offset + 8] = field
    path = tmp_path / "patched.irnn"
    path.write_bytes(bytes(data))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(path), "--data", str(trained_checkpoints / "data.addp")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("t_steps,n", [(1, 1), (4, 0)], ids=["T1", "n0"])
def test_adding_header_out_of_range_exits_2(trained_checkpoints, tmp_path, capsys, t_steps, n):
    # the header is checked before the file's size, so no payload is needed
    path = tmp_path / "bad.addp"
    path.write_bytes(ADDING_MAGIC + struct.pack("<qq", t_steps, n))
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(trained_checkpoints / "rnn" / "checkpoint.irnn"),
                 "--data", str(path)]) == 2
    assert f"{path}: invalid header T={t_steps}, n={n} at offset 8" in capsys.readouterr().err


def test_non_square_images_exit_2(tmp_path, capsys):
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    write_idx_images(images, np.zeros((3, 28, 14), dtype=np.uint8))
    write_idx_labels(labels, np.zeros(3, dtype=np.uint8))
    out = tmp_path / "run"
    code = main(["train", "--task", "mnist", "--cell", "rnn", "--lr", "0.1", "--clip", "1", "--steps", "1",
                 "--data", *map(str, (images, labels, images, labels)), "--out-dir", str(out)])
    assert code == 2
    assert f"{images}: images must be square, got 28x14" in capsys.readouterr().err
    assert not out.exists()


def _failing_adding_save(path):
    # a target too short for the second block of 256 examples: the first block is written
    ds = gen_adding(5, 600, make_rng(8))
    ds.target = ds.target[:300]
    save_adding(ds, path)


def _failing_checkpoint_save(path):
    # U cannot be written as float64: the header and the cell blocks are written
    spec = ModelSpec(cell="rnn", hidden=3, input_dim=2, head="regression")
    params, head = init_params(spec, make_rng(9))
    head.U = np.array([["not a float"] * 3], dtype=object)
    save_checkpoint(path, spec, params, head)


@pytest.mark.parametrize("save", [_failing_adding_save, _failing_checkpoint_save], ids=["addp", "checkpoint"])
def test_save_failing_mid_write_keeps_old_file(save, tmp_path):
    path = tmp_path / "file"
    path.write_bytes(b"old bytes")
    with pytest.raises(ValueError):
        save(path)
    assert path.read_bytes() == b"old bytes"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
