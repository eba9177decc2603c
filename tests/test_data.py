import hashlib
import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from conftest import allocated_bytes, write_csv_dataset
from driftlab import data
from driftlab.data import (
    SIDECAR_SUFFIX,
    DatasetFormatError,
    LabeledDataset,
    distinct_labels,
    gen_gaussian_clusters,
    read_csv_dataset,
    read_idx,
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


@pytest.mark.parametrize("header, n_lab, expected", [
    ((2, -1, -1), 2, "imgs.idx: negative rows -1 in header"),  # loaded as shape (2, 1) before
    ((-1, 1, 1), -1, "imgs.idx: negative count -1 in header"),  # was "64 feature rows vs 8 labels"
    ((2, 3, -3), 2, "imgs.idx: negative cols -3 in header"),
    ((2, 2, 2), -2, "labs.idx: negative count -2 in header"),
])
def test_idx_rejects_negative_header_fields(tmp_path, header, n_lab, expected):
    img, lab = tmp_path / "imgs.idx", tmp_path / "labs.idx"
    img.write_bytes(struct.pack(">4i", 0x803, *header) + bytes(64))
    lab.write_bytes(struct.pack(">2i", 0x801, n_lab) + bytes(8))
    with pytest.raises(DatasetFormatError, match=expected):
        read_idx(img, lab)


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


INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@given(st.lists(st.one_of(st.integers(-3, 3), INT64), max_size=40))
@example([])
@example([7])
@example([2, -1, 2, -1, 0])
def test_distinct_labels_matches_np_unique(values):
    labels = np.array(values, dtype=np.int64)
    got, want = distinct_labels(labels), np.unique(labels)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_dataset_rejects_zero_feature_columns(tmp_path):
    with pytest.raises(DatasetFormatError, match="no feature columns"):
        LabeledDataset(np.zeros((4, 0)), np.arange(4))
    p = tmp_path / "labels_only.csv"
    p.write_text("label\n0\n0\n1\n1\n")
    with pytest.raises(DatasetFormatError, match="labels_only.csv: no feature columns"):
        read_csv_dataset(p)
    img, lab = write_idx_pair(tmp_path, np.zeros((3, 0, 4)), np.zeros(3))
    with pytest.raises(DatasetFormatError, match="imgs.idx: no feature columns"):
        read_idx(img, lab)


# ---- the streaming CSV reader against the per-cell loop it replaced


def loop_read_csv(path) -> LabeledDataset:
    """The per-line, per-cell reader the single np.loadtxt pass replaced,
    kept as its oracle."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise DatasetFormatError(f"{path}: not an ASCII text file") from None
    if not lines or (len(lines) == 1 and not lines[0].strip()):
        raise DatasetFormatError(f"{path}: empty file (line 1)")
    header = lines[0].split(",")
    if header[0] != "label":
        raise DatasetFormatError(f"{path}: line 1: header must start with 'label'")
    width = len(header)

    feats = []
    raw_labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise DatasetFormatError(
                f"{path}: line {lineno}: {len(cells)} cells, expected {width}"
            )
        try:
            values = [float(c) for c in cells]
        except ValueError:
            raise DatasetFormatError(
                f"{path}: line {lineno}: non-numeric cell"
            ) from None
        if not values[0].is_integer():
            raise DatasetFormatError(
                f"{path}: line {lineno}: label {cells[0]!r} is not an integer"
            )
        raw_labels.append(int(values[0]))
        feats.append(values[1:])
    if not feats:
        raise DatasetFormatError(f"{path}: no data rows (line 2)")

    remap: dict[int, int] = {}
    for lab in raw_labels:
        if lab not in remap:
            remap[lab] = len(remap)
    labels = np.array([remap[lab] for lab in raw_labels], dtype=np.int64)
    original = tuple(sorted(remap, key=remap.get))
    try:
        return LabeledDataset(np.array(feats), labels, original_labels=original)
    except DatasetFormatError as e:  # a NaN or inf cell
        raise DatasetFormatError(f"{path}: {e}") from None


def read_outcome(reader, path):
    """Everything a reader hands back: the exact error text, or the feature
    bytes, labels and original label ids with their types."""
    try:
        ds = reader(path)
    except DatasetFormatError as e:
        return str(e)
    return (ds.features.shape, ds.features.dtype, ds.features.tobytes(),
            ds.labels.dtype, ds.labels.tolist(),
            ds.original_labels, [type(v) for v in ds.original_labels])


PAD = st.sampled_from(["", "", "", " ", "\t", "\v", "\f", " \t "])
LABELS = st.one_of(st.integers(-3, 3).map(str),
                   st.sampled_from(["7", "7.0", "1e300", "-0.0", "+2", " 5 "]))
FEATURES = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                     st.floats(width=32, allow_nan=False, allow_infinity=False)
                     .map(lambda v: f"{v:.17g}"),
                     st.integers(-10**20, 10**20).map(str),
                     st.sampled_from([".5", "5.", "-0", "1e-400", "+1E3"]))
# Faults a row may carry: (cell index, 0 for the label, or None for a
# ragged row, replacement text). 0x1c-0x1f are whitespace to str.strip()
# but not to float().
FAULTS = st.sampled_from([
    (0, "1.5"), (0, "nan"), (0, "inf"), (0, "-inf"), (0, "1e400"), (0, "x"), (0, ""),
    (1, "nan"), (1, "-Infinity"), (1, "inf"), (1, ""), (1, "abc"), (1, "#"),
    (1, "1#2"), (1, "#1"), (1, "1e"), (1, "--1"), (1, "1 2"), (1, "0x10"),
    (1, "\x001"), (1, "\x1c1.0"), (1, "2\x1f"), (1, " \x1d3"), (None, ""),
])
BLANKS = st.sampled_from(["", " ", "\t", " \x1c\v ", "\f", "\x1f"])
ENDS = st.sampled_from(["\n", "\n", "\r\n", "\r"])


@st.composite
def csv_files(draw):
    """Bytes of a CSV dataset with blank and whitespace-only lines, mixed
    line ends, padded cells and, now and then, rows with a fault, a bad
    header or a non-ASCII byte. Never a '_' (see
    test_csv_rejects_digit_separators)."""
    width = draw(st.sampled_from([2, 1, 2, 3, 4]))
    header = "label" + "".join(f",f{i}" for i in range(width - 1))
    if draw(st.integers(0, 9)) == 0:
        header = draw(st.sampled_from(["", "lab,f0", " label,f0", "label ,f0"]))
    lines = [header]
    for _ in range(draw(st.integers(0, 7))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(BLANKS))
            continue
        cells = [draw(LABELS)] + [draw(FEATURES) for _ in range(width - 1)]
        if draw(st.integers(0, 5)) == 0:
            at, text = draw(FAULTS)
            if at is None:
                cells = cells[:-1] if draw(st.booleans()) else cells + ["0"]
            else:
                cells[min(at, len(cells) - 1)] = text
        lines.append(",".join(draw(PAD) + c + draw(PAD) for c in cells))
    text = "".join(line + draw(ENDS) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no trailing newline
    data = text.encode("ascii")
    if draw(st.integers(0, 11)) == 0:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3\xa9", b"\x80"])) + data[at:]
    return data


FUZZ = st.text("0123456789.,-+eE \t\n\r#nafiNIl\x1c\x00", max_size=60).map(
    lambda body: b"label,f0\n" + body.encode("ascii"))


@settings(max_examples=400, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(csv_files(), FUZZ))
@example(b"label,f0\n0,1.0\nx,2.0\n3,1.0,2.0\n")  # two faults: the first wins
@example(b"label,f0\n0,nan\n1.5,2.0\n")  # a later label fault beats a NaN feature
@example(b"label,f0\r\n7.0,1\r\n\r\n \t\n3,2\r1e300,3")
@example(b"label,f0\n0,1#2\n")
@example(b"label,f0\n0, \x1c1.0\n")
def test_streaming_reader_matches_per_cell_loop(tmp_path, data):
    p = tmp_path / "d.csv"
    p.write_bytes(data)
    assert read_outcome(read_csv_dataset, p) == read_outcome(loop_read_csv, p)


def test_csv_reports_first_of_faults_far_apart(tmp_path):
    ds = gen_gaussian_clusters(4, 1000, 3, 0.2, seed=2)
    p = tmp_path / "long.csv"
    write_csv_dataset(p, ds)
    lines = p.read_text().split("\n")
    lines[2500] = "1.5,0,0,0"  # line 2501: a label fault, seen after the bulk parse
    lines[3900] = "1,0,zero,0"  # line 3901: a bulk parse fault
    p.write_text("\n".join(lines))
    with pytest.raises(DatasetFormatError, match="line 2501: label '1.5'"):
        read_csv_dataset(p)
    lines[1200] = "0,0,0"
    p.write_text("\n".join(lines))
    with pytest.raises(DatasetFormatError, match="line 1201: 3 cells, expected 4"):
        read_csv_dataset(p)


def test_csv_rejects_digit_separators(tmp_path):
    # float("1_0") == 10.0, but a cell is a plain decimal
    p = tmp_path / "underscore.csv"
    p.write_text("label,f0\n0,1.0\n1,1_0\n")
    with pytest.raises(DatasetFormatError, match="line 3: non-numeric cell"):
        read_csv_dataset(p)


def test_csv_read_allocates_little_beyond_its_features(tmp_path):
    p = tmp_path / "big.csv"
    write_csv_dataset(p, gen_gaussian_clusters(100, 60, 64, 0.35, seed=0))
    out = []
    peak = allocated_bytes(lambda: out.append(read_csv_dataset(p)))
    assert out[0].features.shape == (6000, 64)
    assert peak <= 3 * out[0].features.nbytes  # the per-cell loop peaked near 8x


# ---- the parsed table cached beside the CSV, keyed by the file's bytes


def sidecar_of(path):
    return path.with_name(path.name + SIDECAR_SUFFIX)


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def count_parses(monkeypatch) -> list:
    calls = []
    parse = data._parse

    def counted(lines):
        calls.append(1)
        return parse(lines)

    monkeypatch.setattr(data, "_parse", counted)
    return calls


def key_line(digest, reader=data.CSV_READER) -> bytes:
    """The key line the reader writes for CSV bytes of ``digest``."""
    return f"{digest} {reader}\n".encode("ascii")


def forge(sidecar, key, table):
    """A sidecar as the reader writes one, with any key line or table."""
    with open(sidecar, "wb") as fh:
        fh.write(key)
        np.lib.format.write_array(fh, table)


def stored(sidecar):
    """The key line and the table of a sidecar."""
    with open(sidecar, "rb") as fh:
        return fh.readline(), np.lib.format.read_array(fh, allow_pickle=False)


def write_remapped_csv(path):
    """Labels out of order (7, 3) and a -0.0 cell, which only a bit-level
    comparison tells from 0.0."""
    path.write_text("label,f0,f1\n7,0.1,-0.0\n3,1e-300,2.5\n7,1.0,3.0\n")


def assert_same_dataset(got, want):
    assert got.features.tobytes() == want.features.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert got.original_labels == want.original_labels


def test_csv_second_read_loads_the_sidecar_bit_for_bit(tmp_path, monkeypatch):
    p = tmp_path / "d.csv"
    write_remapped_csv(p)
    first = read_csv_dataset(p)
    calls = count_parses(monkeypatch)
    second = read_csv_dataset(p)
    assert calls == []
    assert_same_dataset(second, first)
    assert second.original_labels == (7, 3)
    assert np.signbit(second.features[0, 1])


def test_csv_rewrite_with_same_size_and_mtime_is_reparsed(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("label,f0\n0,1.5\n1,2.5\n")
    read_csv_dataset(p)
    old = p.stat()
    p.write_text("label,f0\n1,1.5\n0,3.5\n")  # same size
    os.utime(p, ns=(old.st_atime_ns, old.st_mtime_ns))
    assert (p.stat().st_size, p.stat().st_mtime_ns) == (old.st_size, old.st_mtime_ns)
    ds = read_csv_dataset(p)
    assert ds.original_labels == (1, 0)
    assert ds.features[:, 0].tolist() == [1.5, 3.5]
    assert stored(sidecar_of(p))[0] == key_line(sha256_of(p))


@pytest.mark.parametrize("fault", ["garbage", "empty file", "a plain .npy",
                                   "another file's digest", "one column short",
                                   "fractional label", "nan feature",
                                   "a stale reader", "a key without the reader",
                                   "table cut short after the key line",
                                   "a zip sidecar of earlier versions"])
def test_csv_bad_sidecar_is_parsed_and_rewritten(tmp_path, monkeypatch, fault):
    p = tmp_path / "d.csv"
    write_remapped_csv(p)
    want = read_csv_dataset(p)
    side = sidecar_of(p)
    first = side.read_bytes()
    key, table = stored(side)
    digest = sha256_of(p)
    if fault == "garbage":
        side.write_bytes(b"PK\x03\x04 not a zip")
    elif fault == "empty file":
        side.write_bytes(b"")
    elif fault == "a plain .npy":
        with open(side, "wb") as fh:
            np.save(fh, table)
    elif fault == "another file's digest":
        forge(side, key_line(hashlib.sha256(b"label,f0,f1\n").hexdigest()), table + 1)
    elif fault == "one column short":
        forge(side, key, table[:, :-1])
    elif fault == "a stale reader":  # stored under older CSV rules or numpy
        forge(side, key_line(digest, "csv rules 0, numpy 1.24.0"), table + 1)
    elif fault == "a key without the reader":
        forge(side, f"{digest}\n".encode("ascii"), table + 1)
    elif fault == "table cut short after the key line":
        side.write_bytes(side.read_bytes()[:-8])  # the last cell is missing
    elif fault == "a zip sidecar of earlier versions":  # the same path and members
        np.savez(side, sha256=digest, reader=data.CSV_READER, table=table)
    else:  # the right key, but a table that breaks a rule the parsed one passed
        if fault == "fractional label":
            table[0, 0] = 0.5
        else:
            table[0, 1] = np.nan
        forge(side, key, table)
    calls = count_parses(monkeypatch)
    assert_same_dataset(read_csv_dataset(p), want)
    assert len(calls) == 1
    assert sorted(f.name for f in tmp_path.iterdir()) == ["d.csv", side.name]
    assert stored(side)[0] == key_line(digest)
    assert side.read_bytes() == first


def test_csv_read_survives_a_sidecar_it_cannot_write(tmp_path, monkeypatch):
    # the failure is injected: a read-only directory does not stop root
    p = tmp_path / "d.csv"
    write_remapped_csv(p)
    tried = []

    def refuse(src, dst):
        tried.append(os.path.basename(dst))
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    ds = read_csv_dataset(p)
    assert ds.original_labels == (7, 3) and ds.features.shape == (3, 2)
    assert tried == ["d.csv" + SIDECAR_SUFFIX]
    assert [f.name for f in tmp_path.iterdir()] == ["d.csv"]  # no temp file left


def test_cold_csv_read_writes_the_sidecar_without_a_copy(tmp_path):
    """A first read holds the parsed table and little more while it
    writes the sidecar: the table goes to the file straight from its
    buffer (np.savez copied it out in 16 MiB chunks, a whole second table
    here). A second read loads the same bytes."""
    p = tmp_path / "big.csv"
    write_csv_dataset(p, gen_gaussian_clusters(100, 60, 64, 0.35, seed=0))
    out = []
    peak = allocated_bytes(lambda: out.append(read_csv_dataset(p)))
    n, d = out[0].features.shape
    assert (n, d) == (6000, 64)
    assert peak <= 1.5 * n * (d + 1) * 8
    assert_same_dataset(read_csv_dataset(p), out[0])
    key, table = stored(sidecar_of(p))
    assert key == key_line(sha256_of(p))
    assert table.shape == (n, d + 1)


def test_warm_csv_read_holds_the_table_once(tmp_path):
    """A sidecar hit allocates the table plus a fixed amount: the hash's
    one 256 KiB read chunk, and well under 128 KiB more. The table is
    read straight into its array; a zip sidecar's reader held two 256 KiB
    buffers on top."""
    p = tmp_path / "big.csv"
    write_csv_dataset(p, gen_gaussian_clusters(100, 60, 64, 0.35, seed=0))
    read_csv_dataset(p)  # parses and writes the sidecar
    out = []
    peak = allocated_bytes(lambda: out.append(read_csv_dataset(p)))
    n, d = out[0].features.shape
    assert (n, d) == (6000, 64)
    assert peak <= n * (d + 1) * 8 + 256 * 1024 + 128 * 1024
