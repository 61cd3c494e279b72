"""Synthetic datasets, deterministic batching, and CIFAR-10 binary IO."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rcnas.cli import main
from rcnas.data import (
    BatchStream,
    Dataset,
    FormatError,
    cutout,
    load_cifar10_binary,
    make_blobs,
    make_dataset,
    make_shapes,
    normalization_stats,
    normalize,
    split_dataset,
)


def _rng(seed=0):
    return np.random.default_rng(np.random.SeedSequence(seed))


@pytest.mark.parametrize("maker,n_classes", [(make_shapes, 4), (make_blobs, 3)])
def test_generators_produce_valid_datasets(maker, n_classes):
    ds = maker(64, (16, 16), seed=3)
    assert len(ds) == 64
    assert ds.images.shape == (64, 3, 16, 16)
    assert ds.images.dtype == np.float64
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    assert ds.labels.dtype == np.int64
    assert ds.n_classes == n_classes
    assert set(np.unique(ds.labels)) <= set(range(n_classes))
    # every class actually appears at this sample size
    assert len(np.unique(ds.labels)) == n_classes


def test_generators_are_deterministic_in_seed():
    a = make_shapes(32, (16, 16), seed=9)
    b = make_shapes(32, (16, 16), seed=9)
    c = make_shapes(32, (16, 16), seed=10)
    np.testing.assert_array_equal(a.images, b.images)
    np.testing.assert_array_equal(a.labels, b.labels)
    assert not np.array_equal(a.images, c.images)


def test_make_dataset_dispatch():
    ds = make_dataset("blobs", 16, (8, 8), seed=0)
    assert ds.name == "blobs" and len(ds) == 16
    with pytest.raises(ValueError):
        make_dataset("imagenet", 16)


def test_dataset_validation():
    with pytest.raises(ValueError):
        Dataset("x", np.zeros((4, 3, 8, 8)), np.zeros(5, dtype=np.int64), 2, 0)
    with pytest.raises(ValueError):
        Dataset("x", np.zeros((4, 3, 8, 8)), np.array([0, 1, 2, 5]), 3, 0)
    with pytest.raises(ValueError):
        Dataset("x", np.zeros((4, 3, 8)), np.zeros(4, dtype=np.int64), 2, 0)


def test_split_is_a_partition():
    ds = make_blobs(100, (8, 8), seed=1)
    a, b = split_dataset(ds, fraction=0.5, seed=4)
    assert len(a) == 50 and len(b) == 50
    key = lambda im, lab: sorted((im[i].tobytes(), int(lab[i])) for i in range(len(lab)))
    whole = key(ds.images, ds.labels)
    parts = sorted(key(a.images, a.labels) + key(b.images, b.labels))
    assert parts == whole


def test_split_fraction_and_seed():
    ds = make_blobs(100, (8, 8), seed=1)
    a, b = split_dataset(ds, fraction=0.3, seed=4)
    assert len(a) == 30 and len(b) == 70
    a2, _ = split_dataset(ds, fraction=0.3, seed=4)
    np.testing.assert_array_equal(a.images, a2.images)
    a3, _ = split_dataset(ds, fraction=0.3, seed=5)
    assert not np.array_equal(a.images, a3.images)
    with pytest.raises(ValueError):
        split_dataset(ds, fraction=0.001, seed=0)
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        split_dataset(ds, fraction=1.5, seed=0)


def test_normalization_round_trip():
    ds = make_shapes(64, (8, 8), seed=2)
    mean, std = normalization_stats(ds)
    normed = normalize(ds, mean, std)
    m2, s2 = normalization_stats(normed)
    np.testing.assert_allclose(m2, 0.0, atol=1e-12)
    np.testing.assert_allclose(s2, 1.0, rtol=1e-12)


def test_normalization_std_floor():
    flat = Dataset("flat", np.full((4, 3, 8, 8), 0.5), np.zeros(4, dtype=np.int64), 1, 0)
    _, std = normalization_stats(flat)
    assert np.all(std == 1e-8)


def test_stream_is_pure_function_of_seed_and_epoch():
    ds = make_blobs(40, (8, 8), seed=0)
    a = BatchStream(ds, batch_size=8, seed=11)
    b = BatchStream(ds, batch_size=8, seed=11)
    for _ in range(12):  # crosses into epoch 2
        xa, ya = a.next_batch()
        xb, yb = b.next_batch()
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(ya, yb)
    assert a.epoch == 2

    c = BatchStream(ds, batch_size=8, seed=12)
    c_first = c.next_batch()[1]
    a0 = BatchStream(ds, batch_size=8, seed=11).next_batch()[1]
    assert not np.array_equal(c_first, a0)


def test_stream_epoch_covers_dataset_exactly_once():
    ds = make_blobs(40, (8, 8), seed=0)
    s = BatchStream(ds, batch_size=8, seed=3)
    seen = []
    for _ in range(s.batches_per_epoch):
        _, y = s.next_batch()
        seen.extend(y.tolist())
    assert len(seen) == 40
    assert sorted(seen) == sorted(ds.labels.tolist())


def test_stream_drop_last_and_batch_count():
    ds = make_blobs(41, (8, 8), seed=0)
    assert BatchStream(ds, batch_size=8, seed=0).batches_per_epoch == 5
    with pytest.raises(ValueError):
        BatchStream(ds, batch_size=0, seed=0)
    with pytest.raises(ValueError):
        BatchStream(ds, batch_size=50, seed=0)


def test_cifar_zero_record_is_black_label_zero(tmp_path):
    p = tmp_path / "batch.bin"
    p.write_bytes(bytes(3073))
    ds = load_cifar10_binary([p])
    assert len(ds) == 1
    assert ds.labels[0] == 0
    assert not ds.images.any()
    assert ds.images.shape == (1, 3, 32, 32)


def test_cifar_pixel_layout_and_scaling(tmp_path):
    rec = bytearray(3073)
    rec[0] = 7  # label
    rec[1] = 255  # red channel, pixel (0, 0)
    rec[1 + 1024 + 32 * 2 + 3] = 51  # green channel, pixel (2, 3)
    p = tmp_path / "batch.bin"
    p.write_bytes(bytes(rec))
    ds = load_cifar10_binary([p])
    assert ds.labels[0] == 7
    assert ds.images[0, 0, 0, 0] == 1.0
    assert ds.images[0, 1, 2, 3] == pytest.approx(51 / 255)
    assert ds.images.sum() == pytest.approx(1.0 + 51 / 255)


def test_cifar_truncation_names_byte_offset(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(bytes(3073 + 100))  # one full record plus a torn one
    with pytest.raises(FormatError, match=r"truncated at byte 3073.*3173 bytes"):
        load_cifar10_binary([p])


def test_cifar_label_out_of_range_names_record(tmp_path):
    rec = bytearray(3073 * 2)
    rec[3073] = 11  # second record's label byte
    p = tmp_path / "bad.bin"
    p.write_bytes(bytes(rec))
    with pytest.raises(FormatError, match=r"record 1 has label 11"):
        load_cifar10_binary([p])


def test_cifar_round_trip(tmp_path):
    rng = _rng(4)
    images = np.round(rng.random((5, 3, 32, 32)) * 255) / 255
    labels = rng.integers(0, 10, size=5).astype(np.int64)
    p = tmp_path / "rt.bin"
    pixels = np.rint(images * 255).astype(np.uint8).reshape(5, -1)
    p.write_bytes(np.concatenate([labels.astype(np.uint8)[:, None], pixels], axis=1).tobytes())
    back = load_cifar10_binary([p])
    np.testing.assert_array_equal(back.labels, labels)
    np.testing.assert_allclose(back.images, images, atol=1e-12)


def test_cifar_multiple_files_concatenate(tmp_path):
    paths = []
    for i in range(5):
        rec = bytearray(3073 * 2)
        rec[0] = i
        rec[3073] = 9 - i
        p = tmp_path / f"b{i}.bin"
        p.write_bytes(bytes(rec))
        paths.append(p)
    ds = load_cifar10_binary(paths)
    assert len(ds) == 10
    assert ds.labels.tolist() == [0, 9, 1, 8, 2, 7, 3, 6, 4, 5]


def _record(label: int, pattern: bytes) -> bytes:
    return bytes([label]) + (pattern * 3072)[:3072]


# a file of whole records, any label byte and a repeated pixel pattern each,
# then a tail: none, a few arbitrary bytes or a torn record of zeros
_CIFAR_FILE = st.builds(
    lambda records, tail: b"".join(_record(*r) for r in records) + tail,
    st.lists(st.tuples(st.integers(0, 255), st.binary(min_size=1, max_size=8)), max_size=3),
    st.just(b"") | st.binary(max_size=8) | st.integers(1, 3072).map(bytes),
)


@settings(max_examples=200, deadline=None)
@given(files=st.lists(_CIFAR_FILE, min_size=1, max_size=2))
def test_any_cifar_bytes_load_whole_records_or_raise_format_error(tmp_path_factory, files):
    root = tmp_path_factory.mktemp("cifar")
    paths = []
    for i, raw in enumerate(files):
        paths.append(root / f"b{i}.bin")
        paths[-1].write_bytes(raw)
    well_formed = all(raw and len(raw) % 3073 == 0 for raw in files)
    labels = [raw[r] for raw in files for r in range(0, len(raw) - len(raw) % 3073, 3073)]
    if well_formed and max(labels) <= 9:
        ds = load_cifar10_binary(paths)
        assert ds.images.shape == (len(labels), 3, 32, 32)
        assert ds.labels.tolist() == labels
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    else:
        with pytest.raises(FormatError):
            load_cifar10_binary(paths)
    # the CLI reads the same files: a bad one exits 4, a good one goes on to
    # the enumeration, which a ceiling of 1 refuses with exit 2
    cfg = {"data": {"name": "cifar10", "paths": [str(p) for p in paths]}, "enumerate": {"ceiling": 1}}
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["enumerate", "--config", str(cfg_path)]) == (2 if well_formed and max(labels) <= 9 else 4)


def test_cutout_zeroes_a_clipped_patch():
    images = np.ones((8, 3, 16, 16))
    out = cutout(images, _rng(5))
    assert images.all()  # input untouched
    for i in range(8):
        zero_mask = out[i, 0] == 0.0
        assert zero_mask.any()
        assert zero_mask.sum() <= 16  # at most side^2, less when clipped
        np.testing.assert_array_equal(out[i, 0] == 0, out[i, 1] == 0)
        ys, xs = np.where(zero_mask)
        # the zeroed region is a solid rectangle
        assert zero_mask[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1].all()


def test_blobs_labels_match_component_count():
    ds = make_blobs(60, (16, 16), seed=8)
    # labels are count-1; heavier label means more lit pixels on average
    means = [ds.images[ds.labels == k].mean() for k in range(3)]
    assert means[0] < means[1] < means[2]
