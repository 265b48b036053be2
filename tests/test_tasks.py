import struct

import numpy as np
import pytest

from irnnlab import (
    InitScheme,
    ModelSpec,
    PixelImageDataset,
    baseline_mse,
    evaluate,
    gen_adding,
    init_params,
    load_adding,
    load_mnist,
    make_permutation,
    make_rng,
    save_adding,
)
from irnnlab.tasks import (
    ANALYTIC_CONSTANT_BASELINE_MSE,
    REPORTED_CONSTANT_BASELINE_MSE,
    DataFormatError,
    prepare_pixel_sequences,
)
from conftest import peak_traced_bytes, write_idx_images, write_idx_labels, write_mask_value


class TestGenAdding:
    def test_target_is_sum_of_marked_signals(self):
        ds = gen_adding(20, 200, make_rng(0))
        for i in range(len(ds)):
            marked = np.flatnonzero(ds.mask[i])
            assert marked.size == 2
            # bit-exact re-sum of the two marked entries
            assert ds.target[i] == ds.signal[i, marked[0]] + ds.signal[i, marked[1]]

    def test_mask_has_exactly_two_ones(self):
        ds = gen_adding(15, 500, make_rng(1))
        assert np.all(ds.mask.sum(axis=1) == 2.0)
        assert np.all((ds.mask == 0.0) | (ds.mask == 1.0))

    def test_figure_example_arithmetic(self):
        # two marked values that sum to 1.2 give target 1.2
        ds = gen_adding(10, 50, make_rng(2))
        ds.signal[0, :] = 0.0
        ds.mask[0, :] = 0.0
        ds.signal[0, 2], ds.signal[0, 7] = 0.5, 0.7
        ds.mask[0, 2] = ds.mask[0, 7] = 1.0
        marked = np.flatnonzero(ds.mask[0])
        assert ds.signal[0, marked].sum() == pytest.approx(1.2)

    def test_mask_is_bool(self):
        # one byte per entry; a batch still sees 0.0/1.0 inputs
        ds = gen_adding(9, 40, make_rng(1))
        assert ds.mask.dtype == bool
        assert set(np.unique(ds.batch(np.arange(40)).inputs[:, :, 1])) == {0.0, 1.0}

    def test_t2_forces_both_positions(self):
        ds = gen_adding(2, 100, make_rng(3))
        assert np.all(ds.mask == 1.0)
        assert np.array_equal(ds.target, ds.signal.sum(axis=1))

    def test_mean_target_near_one(self):
        ds = gen_adding(30, 100_000, make_rng(4))
        assert ds.target.mean() == pytest.approx(1.0, abs=0.01)

    def test_reproducible(self):
        a = gen_adding(12, 64, make_rng(9))
        b = gen_adding(12, 64, make_rng(9))
        assert np.array_equal(a.signal, b.signal)
        assert np.array_equal(a.mask, b.mask)
        assert np.array_equal(a.target, b.target)

    def test_rejects_short_sequences(self):
        with pytest.raises(ValueError):
            gen_adding(1, 10, make_rng(0))

    def test_batch_shapes_and_channels(self):
        ds = gen_adding(7, 32, make_rng(5))
        batch = ds.batch(np.arange(4))
        assert batch.inputs.shape == (7, 4, 2)
        assert np.array_equal(batch.inputs[:, 0, 0], ds.signal[0])
        assert np.array_equal(batch.inputs[:, 0, 1], ds.mask[0])
        assert np.array_equal(batch.targets, ds.target[:4])

    @pytest.mark.parametrize("size", [1, 16, 1000])
    def test_batch_matches_stacked_formula(self, size, tmp_path):
        # reference: stack the channels last, move time first, copy contiguous;
        # checked on generated data and on a loaded file, repeats included
        ds = gen_adding(11, 1500, make_rng(9))
        save_adding(ds, tmp_path / "data.addp")
        idx = make_rng(10).integers(0, 1500, size=size)
        for source in (ds, load_adding(tmp_path / "data.addp")):
            batch = source.batch(idx)
            ref = np.ascontiguousarray(np.stack((ds.signal[idx], ds.mask[idx]), axis=-1).transpose(1, 0, 2))
            assert batch.inputs.dtype == np.float64 and batch.inputs.flags.c_contiguous
            assert batch.inputs.shape == ref.shape and batch.inputs.tobytes() == ref.tobytes()
            assert batch.targets.tobytes() == ds.target[idx].tobytes()


class TestBaselineMse:
    def test_single_perfect_example(self):
        ds = gen_adding(5, 3, make_rng(6))
        ds.target[:] = 1.0
        assert baseline_mse(ds) == 0.0

    def test_matches_analytic_variance(self):
        ds = gen_adding(50, 10_000, make_rng(7))
        assert baseline_mse(ds) == pytest.approx(ANALYTIC_CONSTANT_BASELINE_MSE, abs=0.005)

    def test_reference_constant_recorded_as_reported(self):
        # recorded for context, deliberately not asserted against generated data
        assert REPORTED_CONSTANT_BASELINE_MSE == 0.1767


class TestAddingFiles:
    def test_round_trip_bit_identical(self, tmp_path):
        ds = gen_adding(9, 41, make_rng(8))
        path = tmp_path / "data.addp"
        save_adding(ds, path)
        back = load_adding(path)
        assert np.array_equal(back.signal, ds.signal)
        assert np.array_equal(back.mask, ds.mask)
        assert np.array_equal(back.target, ds.target)

    def test_header_layout(self, tmp_path):
        ds = gen_adding(4, 3, make_rng(8))
        path = tmp_path / "data.addp"
        save_adding(ds, path)
        raw = path.read_bytes()
        assert raw[:8] == b"ADDP0001"
        assert struct.unpack_from("<qq", raw, 8) == (4, 3)
        assert len(raw) == 24 + 8 * 3 * (2 * 4 + 1)

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_file_bytes_match_whole_array_formula(self, n, tmp_path):
        # reference: header, then the (n, 2T+1) concatenation as little-endian doubles;
        # the writer goes in blocks of 256 examples
        ds = gen_adding(5, n, make_rng(n))
        path = tmp_path / "data.addp"
        save_adding(ds, path)
        rows = np.concatenate((ds.signal, ds.mask, ds.target[:, None]), axis=1).astype("<f8")
        assert path.read_bytes() == b"ADDP0001" + struct.pack("<qq", 5, n) + rows.tobytes()

    def test_save_and_load_hold_the_file_at_most_twice(self, tmp_path):
        # writing builds a block at a time and reading fills one array in place
        # (about 1x the file); a whole-file copy per step would reach 3x
        ds = gen_adding(150, 3000, make_rng(8))
        path = tmp_path / "data.addp"

        def round_trip():
            save_adding(ds, path)
            return load_adding(path)

        back, peak = peak_traced_bytes(round_trip)
        assert np.array_equal(back.signal, ds.signal)
        assert peak < 2 * path.stat().st_size

    def test_loaded_mask_is_bool(self, tmp_path):
        ds = gen_adding(6, 300, make_rng(8))
        save_adding(ds, tmp_path / "data.addp")
        assert load_adding(tmp_path / "data.addp").mask.dtype == bool

    def test_load_holds_no_float_payload(self, tmp_path):
        # a T=150 example keeps 8T signal bytes, T mask bytes and an 8-byte target,
        # 0.56x of its 8(2T+1) file bytes; the streaming block adds 616 KB
        path = tmp_path / "data.addp"
        save_adding(gen_adding(150, 10_000, make_rng(8)), path)
        _, peak = peak_traced_bytes(lambda: load_adding(path))
        assert peak < 0.6 * path.stat().st_size

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "data.addp"
        path.write_bytes(b"NOTADDP0" + b"\0" * 64)
        with pytest.raises(DataFormatError, match="magic"):
            load_adding(path)

    def test_truncation_rejected_with_offset(self, tmp_path):
        ds = gen_adding(6, 10, make_rng(8))
        path = tmp_path / "data.addp"
        save_adding(ds, path)
        path.write_bytes(path.read_bytes()[:-16])
        with pytest.raises(DataFormatError, match="offset"):
            load_adding(path)


class TestAddingMaskValues:
    @pytest.mark.parametrize("value", [0.5, 2.0, -1.0, float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("example", [0, 517])  # in the first streamed block and in a later one
    def test_mask_value_other_than_0_or_1_rejected(self, value, example, tmp_path):
        path = tmp_path / "data.addp"
        save_adding(gen_adding(6, 600, make_rng(8)), path)
        offset = write_mask_value(path, example, 4, value)
        with pytest.raises(DataFormatError, match=f"mask value {value!r} of example {example} at offset {offset} "):
            load_adding(path)

    def test_negative_zero_reads_as_zero(self, tmp_path):
        ds = gen_adding(6, 20, make_rng(8))
        step = int(np.flatnonzero(~ds.mask[3])[0])
        path = tmp_path / "data.addp"
        save_adding(ds, path)
        write_mask_value(path, 3, step, -0.0)
        back = load_adding(path)
        assert np.array_equal(back.mask, ds.mask)
        assert back.batch([3]).inputs[step, 0, 1].tobytes() == np.float64(0.0).tobytes()


class TestIdxLoader:
    def test_loads_valid_pair(self, synthetic_mnist):
        img_path, lab_path, images, labels = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        assert isinstance(ds, PixelImageDataset)
        assert len(ds) == len(labels)
        assert (ds.side, ds.factor) == (28, 1) and np.array_equal(ds.permutation, np.arange(784))
        assert ds.labels.dtype == np.uint8 and np.array_equal(ds.labels, labels)
        assert ds.images.dtype == np.uint8 and np.array_equal(ds.images[0], images[0].reshape(-1))

    def test_corrupt_magic_rejected(self, tmp_path, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        bad = tmp_path / "bad.idx"
        data = bytearray(img_path.read_bytes())
        data[:4] = struct.pack(">I", 0xDEADBEEF)
        bad.write_bytes(bytes(data))
        with pytest.raises(DataFormatError, match="magic"):
            load_mnist(bad, lab_path)

    def test_truncated_rejected(self, tmp_path, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        cut = tmp_path / "cut.idx"
        cut.write_bytes(img_path.read_bytes()[:-100])
        with pytest.raises(DataFormatError, match="truncated"):
            load_mnist(cut, lab_path)

    def test_count_mismatch_rejected(self, tmp_path, synthetic_mnist):
        img_path, _, _, labels = synthetic_mnist
        short = tmp_path / "short_labels.idx"
        write_idx_labels(short, labels[:-3])
        with pytest.raises(DataFormatError, match="mismatch"):
            load_mnist(img_path, short)

    @pytest.mark.parametrize("held", ["images", "labels"])
    def test_file_is_held_once(self, tmp_path, held):
        # the label case has 1x1 images, so its label file is as large as its image file
        n, side = (2000, 28) if held == "images" else (1_000_000, 1)
        images = np.random.default_rng(3).integers(0, 256, size=(n, side, side), dtype=np.uint8)
        labels = np.arange(n) % 10
        img_path, lab_path = tmp_path / "images.idx", tmp_path / "labels.idx"
        write_idx_images(img_path, images)
        write_idx_labels(lab_path, labels)
        ds, peak = peak_traced_bytes(lambda: load_mnist(img_path, lab_path))
        assert np.array_equal(ds.images, images.reshape(n, side * side))
        assert np.array_equal(ds.labels, labels)
        if held == "images":
            assert peak < 1.25 * images.nbytes
        else:
            assert peak < images.nbytes + 1.25 * n

    def test_label_above_9_rejected_with_offset(self, tmp_path, synthetic_mnist):
        img_path, _, _, labels = synthetic_mnist
        bad = tmp_path / "bad_labels.idx"
        labels = labels.copy()
        labels[[3, 7]] = [10, 255]
        write_idx_labels(bad, labels)
        with pytest.raises(DataFormatError, match=f"{bad}: label 10 at offset 11 is not a digit 0-9"):
            load_mnist(img_path, bad)


class TestSequenceConversion:
    def test_scanline_order_first_pixel_top_left(self, synthetic_mnist):
        img_path, lab_path, images, labels = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        ds.images[0, 0] = 255  # pixel (0, 0)
        batch = prepare_pixel_sequences(ds).batch(np.arange(2))
        assert batch.inputs.shape == (784, 2, 1)
        assert batch.inputs[0, 0, 0] == 1.0
        assert np.array_equal(batch.targets, labels[:2].astype(np.int64))

    def test_identity_permutation_matches_none(self, synthetic_mnist):
        # and a loaded set batches at T = 784 as it stands, byte for byte as prepared
        img_path, lab_path, _, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        idx = np.array([3, 0, 3, 7, 1])
        plain = prepare_pixel_sequences(ds).batch(idx)
        for other in (ds, prepare_pixel_sequences(ds, permutation=np.arange(784))):
            batch = other.batch(idx)
            assert batch.inputs.tobytes() == plain.inputs.tobytes()
            assert batch.targets.tobytes() == plain.targets.tobytes()

    def test_loaded_set_evaluates_as_prepared(self, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        spec = ModelSpec(cell="rnn", hidden=4, input_dim=1, head="softmax", classes=10,
                         activation="relu", init=InitScheme("identity"))
        params, head = init_params(spec, make_rng(0))
        assert evaluate(spec, params, head, ds) == evaluate(spec, params, head, prepare_pixel_sequences(ds))

    def test_downsample_average_pool_oracle(self, synthetic_mnist):
        img_path, lab_path, images, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        batch = prepare_pixel_sequences(ds, downsample=14).batch(np.array([0]))
        assert batch.inputs.shape == (196, 1, 1)
        img = images[0].astype(float)
        # hand oracle: first pooled value is the mean of the top-left 2x2 block / 255
        expected = img[:2, :2].mean() / 255.0
        assert batch.inputs[0, 0, 0] == pytest.approx(expected, abs=1e-15)
        # and a middle one
        expected_5_3 = img[10:12, 6:8].mean() / 255.0
        assert batch.inputs[5 * 14 + 3, 0, 0] == pytest.approx(expected_5_3, abs=1e-15)

    def test_downsample_must_divide_side(self, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        with pytest.raises(ValueError):
            prepare_pixel_sequences(ds, downsample=5)

    def test_label_alignment_survives_permutation_and_pooling(self, synthetic_mnist):
        img_path, lab_path, _, labels = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        perm = make_permutation(196, seed=11)
        batch = prepare_pixel_sequences(ds, permutation=perm, downsample=14).batch(np.array([3, 1, 4]))
        assert np.array_equal(batch.targets, labels[[3, 1, 4]].astype(np.int64))

    def test_prepared_dataset_matches_batch_conversion(self, synthetic_mnist):
        img_path, lab_path, images, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        perm = make_permutation(784, seed=2)
        prepared = prepare_pixel_sequences(ds, permutation=perm)
        # hand oracle: scanline pixels / 255, reordered by perm, laid out as (T, B, 1)
        direct = (images[:4].reshape(4, 784).astype(np.float64) / 255.0)[:, perm].T[:, :, None]
        assert np.array_equal(prepared.batch(np.arange(4)).inputs, direct)

    def test_wrong_length_permutation_rejected(self, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        with pytest.raises(ValueError):
            prepare_pixel_sequences(ds, permutation=np.arange(100))

    @staticmethod
    def loaded(images, labels):
        """A set as ``load_mnist`` returns it for 28x28 images: T = 784, unpooled, unpermuted."""
        return PixelImageDataset(images=images, labels=labels, side=28, factor=1, permutation=np.arange(784))

    @classmethod
    def random_bytes(cls, n, seed=0):
        images = np.random.default_rng(seed).integers(0, 256, size=(n, 784), dtype=np.uint8)
        return cls.loaded(images, np.arange(n) % 10)

    @pytest.mark.parametrize("permute", [False, True], ids=["plain", "permuted"])
    @pytest.mark.parametrize("side", [None, 28, 14, 7, 4, 2, 1])
    def test_floats_match_float64_block_mean(self, side, permute):
        # reference: the float64 formula, block mean, / 255.0, then permute;
        # side 4 pools blocks of 49, not a power of two
        ds = self.random_bytes(50)
        s = 28 if side is None else side
        perm = make_permutation(s * s, seed=s) if permute else None
        factor = 28 // s
        ref = ds.images.astype(np.float64).reshape(-1, s, factor, s, factor)
        ref = (ref.mean(axis=(2, 4)) if factor > 1 else ref).reshape(-1, s * s) / 255.0
        if permute:
            ref = ref[:, perm]
        prepared = prepare_pixel_sequences(ds, permutation=perm, downsample=side)
        floats = prepared.floats
        assert floats.dtype == np.float64 and floats.shape == ref.shape
        assert floats.tobytes() == ref.tobytes()
        # batches: random rows with repeats, laid out (T, B, 1)
        idx = np.random.default_rng(s).integers(0, 50, size=60)
        assert len(np.unique(idx)) < len(idx)
        inputs = prepared.batch(idx).inputs
        expected = np.ascontiguousarray(ref[idx].T[:, :, None])
        assert inputs.dtype == np.float64 and inputs.shape == expected.shape and inputs.flags.c_contiguous
        assert inputs.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("side", [None, 28, 14, 7, 4, 2, 1])
    def test_all_white_is_exactly_one_at_every_side(self, side):
        # side 1 sums 255 * 784 = 199,920, which would overflow a uint16 accumulator
        ds = self.loaded(np.full((3, 784), 255, dtype=np.uint8), np.zeros(3))
        t = 784 if side is None else side * side
        prepared = prepare_pixel_sequences(ds, permutation=make_permutation(t, seed=t), downsample=side)
        assert np.array_equal(prepared.floats, np.ones((3, t)))
        assert np.array_equal(prepared.batch(np.array([2, 0, 2])).inputs, np.ones((t, 3, 1)))

    @pytest.mark.parametrize("side", [None, 14, 7])
    def test_builds_no_whole_set_float_array(self, side):
        # nor a whole-set integer copy: pooled uint16 sums would take n * t * 2 bytes
        n = 2000
        ds = self.random_bytes(n)
        t = 784 if side is None else side * side
        _, peak = peak_traced_bytes(
            lambda: prepare_pixel_sequences(ds, permutation=make_permutation(t, seed=1), downsample=side)
        )
        assert peak < n * t * 2 / 4

    @pytest.mark.parametrize("side", [None, 14, 7])
    def test_batch_allocates_for_its_rows_only(self, side):
        t = 784 if side is None else side * side
        prepared = prepare_pixel_sequences(self.random_bytes(2000), permutation=make_permutation(t, seed=1),
                                           downsample=side)
        idx = np.random.default_rng(2).integers(0, 2000, size=16)
        batch, peak = peak_traced_bytes(lambda: prepared.batch(idx))
        assert batch.inputs.shape == (t, 16, 1)
        # 24 bytes a pixel of the 16 rows drawn is 301 KB; the whole set's bytes alone are 1.5 MB
        assert peak < 16 * 784 * 24

    def test_set_holds_the_image_bytes_at_every_side(self, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        for side in (None, 14, 7):
            t = 784 if side is None else side * side
            prepared = prepare_pixel_sequences(ds, permutation=make_permutation(t, seed=1), downsample=side)
            assert prepared.images is ds.images and np.shares_memory(prepared.images, ds.images)
            assert prepared.labels is ds.labels and np.shares_memory(prepared.labels, ds.labels)

    def test_preparing_a_prepared_set_starts_from_the_image_bytes(self, synthetic_mnist):
        img_path, lab_path, _, _ = synthetic_mnist
        ds = load_mnist(img_path, lab_path)
        perm = make_permutation(49, seed=4)
        twice = prepare_pixel_sequences(prepare_pixel_sequences(ds, make_permutation(196, seed=3), 14), perm, 7)
        once = prepare_pixel_sequences(ds, perm, 7)
        assert (twice.side, twice.factor) == (once.side, once.factor) == (28, 4)
        idx = np.arange(len(ds))
        assert twice.batch(idx).inputs.tobytes() == once.batch(idx).inputs.tobytes()


class TestPermutation:
    def test_deterministic(self):
        assert np.array_equal(make_permutation(784, 7), make_permutation(784, 7))

    def test_bijection(self):
        perm = make_permutation(196, 3)
        assert np.array_equal(np.sort(perm), np.arange(196))

    def test_two_seeds_differ(self):
        assert not np.array_equal(make_permutation(784, 0), make_permutation(784, 1))
