import struct

import numpy as np
import pytest

from driftlab.data import (
    DatasetFormatError,
    LabeledDataset,
    gen_gaussian_clusters,
    read_csv_dataset,
    read_idx,
    write_csv_dataset,
)


def test_cluster_cardinality():
    ds = gen_gaussian_clusters(n_classes=4, per_class=3, dim=5, spread=0.1, seed=0)
    assert ds.features.shape == (12, 5)
    assert ds.labels.shape == (12,)
    assert ds.n_classes == 4


def test_zero_spread_collapses_classes():
    ds = gen_gaussian_clusters(3, 4, 6, spread=0.0, seed=7)
    for c in range(3):
        rows = ds.features[ds.labels == c]
        assert np.all(rows == rows[0])
        assert np.linalg.norm(rows[0]) == pytest.approx(1.0)


def test_same_seed_bit_identical():
    a = gen_gaussian_clusters(5, 10, 4, 0.3, seed=42)
    b = gen_gaussian_clusters(5, 10, 4, 0.3, seed=42)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = gen_gaussian_clusters(5, 10, 4, 0.3, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_empirical_means_converge_to_centers():
    # law of large numbers: class mean within 3*spread/sqrt(n) of its center
    spread, n = 0.2, 4000
    ds = gen_gaussian_clusters(3, n, 8, spread, seed=1)
    centers = gen_gaussian_clusters(3, 1, 8, 0.0, seed=1).features
    for c in range(3):
        mean = ds.features[ds.labels == c].mean(axis=0)
        assert np.linalg.norm(mean - centers[c]) < 3 * spread / np.sqrt(n) * np.sqrt(8)


def test_counts_must_be_positive():
    with pytest.raises(ValueError):
        gen_gaussian_clusters(0, 5, 2, 0.1, seed=0)
    with pytest.raises(ValueError):
        gen_gaussian_clusters(2, 5, 0, 0.1, seed=0)


def write_idx_pair(tmp_path, images: np.ndarray, labels: np.ndarray):
    n, r, c = images.shape
    img = tmp_path / "imgs.idx"
    lab = tmp_path / "labs.idx"
    img.write_bytes(struct.pack(">4i", 0x803, n, r, c) + images.astype(np.uint8).tobytes())
    lab.write_bytes(struct.pack(">2i", 0x801, n) + labels.astype(np.uint8).tobytes())
    return img, lab


def test_idx_round_trip(tmp_path, rng):
    images = rng.integers(0, 256, size=(5, 4, 3), dtype=np.uint8)
    labels = np.array([3, 1, 4, 1, 5], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, labels)
    ds = read_idx(img, lab)
    assert ds.features.shape == (5, 12)
    assert np.allclose(ds.features, images.reshape(5, 12) / 255.0)
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0
    assert np.array_equal(ds.labels, [3, 1, 4, 1, 5])


def test_idx_first_label_matches_hexdump(tmp_path):
    """The first label byte sits at file offset 8; check against a raw read."""
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.array([7, 0, 2], dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, labels)
    raw = lab.read_bytes()
    assert raw[8] == 7
    assert read_idx(img, lab).labels[0] == 7


def test_idx_rejects_little_endian_counterfeit(tmp_path):
    img = tmp_path / "le.idx"
    lab = tmp_path / "le_lab.idx"
    img.write_bytes(struct.pack("<4i", 0x803, 1, 2, 2) + bytes(4))
    lab.write_bytes(struct.pack(">2i", 0x801, 1) + bytes(1))
    with pytest.raises(DatasetFormatError, match="magic"):
        read_idx(img, lab)


def test_idx_truncation_names_byte_offset(tmp_path):
    images = np.zeros((4, 3, 3), dtype=np.uint8)
    labels = np.zeros(4, dtype=np.uint8)
    img, lab = write_idx_pair(tmp_path, images, labels)
    img.write_bytes(img.read_bytes()[:-5])
    with pytest.raises(DatasetFormatError, match=r"byte 47.*expected 52"):
        read_idx(img, lab)


def test_idx_count_mismatch(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(3, dtype=np.uint8)
    img, _ = write_idx_pair(tmp_path, images, labels)
    lab2 = tmp_path / "short.idx"
    lab2.write_bytes(struct.pack(">2i", 0x801, 2) + bytes(2))
    with pytest.raises(DatasetFormatError, match="3 images but 2 labels"):
        read_idx(img, lab2)


def test_csv_two_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0,f1\n0,1.5,2.5\n1,3.0,4.0\n")
    ds = read_csv_dataset(p)
    assert ds.features.shape == (2, 2)
    assert np.array_equal(ds.labels, [0, 1])


def test_csv_first_appearance_remap(tmp_path):
    p = tmp_path / "remap.csv"
    p.write_text("label,f0\n7,0.0\n7,0.1\n3,0.2\n")
    ds = read_csv_dataset(p)
    assert np.array_equal(ds.labels, [0, 0, 1])
    assert ds.original_labels == (7, 3)


def test_csv_round_trip(tmp_path, rng):
    ds = gen_gaussian_clusters(3, 5, 4, 0.2, seed=9)
    p = tmp_path / "rt.csv"
    write_csv_dataset(p, ds)
    back = read_csv_dataset(p)
    assert np.max(np.abs(back.features - ds.features)) < 1e-9
    assert np.array_equal(back.labels, ds.labels)


def test_csv_errors_carry_line_numbers(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("label,f0,f1\n0,1.0,2.0\n1,3.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_csv_dataset(ragged)

    alpha = tmp_path / "alpha.csv"
    alpha.write_text("label,f0\n0,1.0\nx,2.0\n")
    with pytest.raises(DatasetFormatError, match="line 3"):
        read_csv_dataset(alpha)

    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(DatasetFormatError, match="line 1"):
        read_csv_dataset(empty)

    binary = tmp_path / "binary.csv"
    binary.write_bytes(b"label,f0\n0,\xff1.0\n")
    with pytest.raises(DatasetFormatError, match="not an ASCII text file"):
        read_csv_dataset(binary)


@pytest.mark.parametrize("label", ["1.5", "nan", "inf", "-inf"])
def test_csv_rejects_non_integer_labels(tmp_path, label):
    p = tmp_path / "labels.csv"
    p.write_text(f"label,f0\n0,1.0\n{label},2.0\n")
    with pytest.raises(DatasetFormatError, match=f"line 3: label '{label}' is not an integer"):
        read_csv_dataset(p)


def test_csv_accepts_integer_valued_float_labels(tmp_path):
    p = tmp_path / "floats.csv"
    p.write_text("label,f0\n7.0,0.0\n3,0.1\n7,0.2\n")
    ds = read_csv_dataset(p)
    assert np.array_equal(ds.labels, [0, 1, 0])
    assert ds.original_labels == (7, 3)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dataset_rejects_non_finite_features(tmp_path, bad):
    feats = np.zeros((4, 3))
    feats[2, 1] = feats[3, 0] = bad
    with pytest.raises(DatasetFormatError, match="feature row 2 holds NaN or inf"):
        LabeledDataset(feats, np.arange(4))
    p = tmp_path / "nan.csv"
    p.write_text(f"label,f0\n0,1.0\n1,{bad}\n")
    with pytest.raises(DatasetFormatError, match="nan.csv: feature row 1"):
        read_csv_dataset(p)


def test_dataset_rejects_count_mismatch():
    with pytest.raises(DatasetFormatError):
        LabeledDataset(np.zeros((3, 2)), np.zeros(2, dtype=int))


def test_subset_keeps_global_labels():
    ds = gen_gaussian_clusters(4, 3, 2, 0.1, seed=0)
    sub = ds.subset(ds.labels >= 2)
    assert set(sub.labels) == {2, 3}
    assert sub.features.shape[0] == 6
