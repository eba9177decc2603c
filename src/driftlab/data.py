"""Dataset acquisition: synthetic Gaussian clusters, IDX binary images,
and a plain CSV reader that caches each parsed table beside its file.
All readers are deterministic; nothing here ever reorders samples.
``write_whole`` writes that cache, the result files and the plots.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import os
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
SIDECAR_SUFFIX = ".driftlab.npz"  # beside a CSV: a key line, then its table as .npy


class DatasetFormatError(ValueError):
    """Input file violates its declared format."""


@dataclass
class LabeledDataset:
    """Finite features [n, d] with integer labels forming a contiguous
    0..K-1 range.

    ``original_labels[k]`` records which source label was remapped to k, so
    the ingestion remap stays a recoverable bijection.
    """

    features: np.ndarray
    labels: np.ndarray
    original_labels: tuple = ()

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.shape[0] != self.labels.shape[0]:
            raise DatasetFormatError(
                f"{self.features.shape[0]} feature rows vs {self.labels.shape[0]} labels"
            )
        if self.features.ndim != 2 or self.features.shape[1] == 0:
            raise DatasetFormatError(
                f"no feature columns: features of shape {self.features.shape}"
            )
        # min and max propagate NaN and reach any inf without a mask the
        # size of the table; the mask is built only to name the row
        x = self.features
        if x.size and not (np.isfinite(x.min()) and np.isfinite(x.max())):
            row = int(np.argwhere(~np.isfinite(x))[0, 0])
            raise DatasetFormatError(f"feature row {row} holds NaN or inf")
        if not self.original_labels:
            self.original_labels = tuple(range(self.n_classes))

    @property
    def n_classes(self) -> int:
        return int(self.labels.max()) + 1 if self.labels.size else 0

    def subset(self, mask) -> "LabeledDataset":
        """Row subset; labels keep their global ids (no remapping)."""
        sub = LabeledDataset.__new__(LabeledDataset)
        sub.features = self.features[mask]
        sub.labels = self.labels[mask]
        sub.original_labels = self.original_labels
        return sub


def distinct_labels(labels) -> np.ndarray:
    """The sorted distinct values of ``labels``, flattened: the values and
    dtype of ``np.unique(labels)``.

    A plain ``np.unique`` asks ``np.ma.is_masked`` first, which imports
    numpy.ma (over 1 MB of resident memory, kept until the process exits);
    sorting and keeping each value that differs from the one before it
    needs nothing beyond the array.
    """
    v = np.sort(np.asarray(labels), axis=None)
    keep = np.empty(v.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(v[1:], v[:-1], out=keep[1:])
    return v[keep]


def check_spread(spread: float) -> None:
    """Raise ValueError unless ``spread`` is a noise scale the generator can use."""
    if not 0 <= spread < np.inf:  # NaN fails too
        raise ValueError(f"spread must be finite and nonnegative, got {spread!r}")


def gen_gaussian_clusters(
    n_classes: int, per_class: int, dim: int, spread: float, seed: int
) -> LabeledDataset:
    """Isotropic Gaussian blobs around seeded random unit-sphere centers;
    ``check_spread`` holds the rule of ``spread``."""
    if n_classes < 1 or per_class < 1 or dim < 1:
        raise ValueError("n_classes, per_class and dim must be positive")
    check_spread(spread)
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, dim))
    centers /= np.linalg.norm(centers, axis=1, keepdims=True)
    feats = np.repeat(centers, per_class, axis=0)
    feats = feats + spread * rng.normal(size=feats.shape)
    labels = np.repeat(np.arange(n_classes), per_class)
    return LabeledDataset(feats, labels)


def _read_be_ints(buf: bytes, path: str, offset: int, count: int) -> tuple:
    end = offset + 4 * count
    if len(buf) < end:
        raise DatasetFormatError(
            f"{path}: truncated at byte {len(buf)}, needed {end} for header"
        )
    return struct.unpack(f">{count}i", buf[offset:end])


def _read_header(buf: bytes, path: str, magic: int, names: tuple) -> tuple:
    """The header's size fields after its magic; a wrong magic or a
    negative size is a DatasetFormatError naming the file (and the field)."""
    (found,) = _read_be_ints(buf, path, 0, 1)
    if found != magic:
        raise DatasetFormatError(f"{path}: bad magic 0x{found & 0xFFFFFFFF:08x}, "
                                 f"expected 0x{magic:08x}")
    sizes = _read_be_ints(buf, path, 4, len(names))
    for name, value in zip(names, sizes):
        if value < 0:
            raise DatasetFormatError(f"{path}: negative {name} {value} in header")
    return sizes


def read_idx(images_path, labels_path) -> LabeledDataset:
    """Read an IDX image/label file pair (big-endian, magic 0x803/0x801).

    Pixels come back flattened to [n, rows*cols] and scaled to [0, 1].
    """
    with open(images_path, "rb") as fh:
        img_buf = fh.read()
    with open(labels_path, "rb") as fh:
        lab_buf = fh.read()

    n, rows, cols = _read_header(img_buf, str(images_path), IDX_IMAGES_MAGIC,
                                 ("count", "rows", "cols"))
    need = 16 + n * rows * cols
    if len(img_buf) < need:
        raise DatasetFormatError(
            f"{images_path}: truncated at byte {len(img_buf)}, expected {need}"
        )

    (n_lab,) = _read_header(lab_buf, str(labels_path), IDX_LABELS_MAGIC, ("count",))
    if n_lab != n:
        raise DatasetFormatError(f"{n} images but {n_lab} labels")
    if len(lab_buf) < 8 + n_lab:
        raise DatasetFormatError(
            f"{labels_path}: truncated at byte {len(lab_buf)}, expected {8 + n_lab}"
        )

    pixels = np.frombuffer(img_buf, dtype=np.uint8, count=n * rows * cols, offset=16)
    feats = pixels.reshape(n, rows * cols).astype(np.float64) / 255.0
    labels = np.frombuffer(lab_buf, dtype=np.uint8, count=n, offset=8).astype(np.int64)
    try:
        return LabeledDataset(feats, labels)
    except DatasetFormatError as e:  # rows * cols == 0
        raise DatasetFormatError(f"{images_path}: {e}") from None


# What a sidecar's table was read by. The number goes up whenever the
# decoding, _data_lines or _parse change what a CSV's bytes read as, so a
# table stored under older rules, or by another numpy, is parsed again.
CSV_READER = f"csv rules 1, numpy {np.__version__}"


def _parse(lines) -> np.ndarray:
    """Comma-separated decimal rows as one float64 table. Each cell goes
    through CPython's correctly rounded strtod, the parser of ``float()``;
    unlike ``float()`` it rejects ``_`` digit separators."""
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2)


def _data_lines(fh):
    """The lines of ``fh`` that are not whitespace-only. ``np.loadtxt``
    strips the separator controls 0x1c-0x1f around a cell, which
    ``float()`` rejects, so a line holding one ends the stream with an
    error."""
    for line in fh:
        if not line.isspace():
            if "\x1c" in line or "\x1d" in line or "\x1e" in line or "\x1f" in line:
                raise DatasetFormatError("separator control character")
            yield line


def _first_fault(path) -> str:
    """The error of the first line that breaks the CSV rules, checked one
    line at a time in file order. Only a faulty file, or one without data
    rows, gets here."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        return f"{path}: not an ASCII text file"
    if not lines or (len(lines) == 1 and not lines[0].strip()):
        return f"{path}: empty file (line 1)"
    header = lines[0].split(",")
    if header[0] != "label":
        return f"{path}: line 1: header must start with 'label'"
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(header):
            return f"{path}: line {lineno}: {len(cells)} cells, expected {len(header)}"
        try:
            label = _parse(_data_lines([line]))[0, 0]
        except ValueError:
            return f"{path}: line {lineno}: non-numeric cell"
        if not label.is_integer():
            return f"{path}: line {lineno}: label {cells[0]!r} is not an integer"
    return f"{path}: no data rows (line 2)"


def write_whole(path, fill) -> None:
    """Call ``fill`` with a binary file open on a temp sibling of
    ``path``, then rename that over ``path``: a reader never sees a
    half-written file, and a failure, in ``fill`` or in the writing,
    leaves no temp file."""
    head, name = os.path.split(os.fspath(path))
    tmp = os.path.join(head, f".{name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fill(fh)
        os.replace(tmp, path)
    finally:
        # gone once renamed, or never made; a name the file system cannot
        # encode fails here as it failed at open, with a UnicodeEncodeError
        with contextlib.suppress(OSError, ValueError):
            os.remove(tmp)


def _labeled(table, width: int) -> LabeledDataset | None:
    """The dataset of a ``label,f0,...`` table, labels remapped to 0..K-1
    in first-appearance order; None when there is no table, it is not a
    float64 matrix ``width`` columns wide, or a label is not an integer.
    A NaN or inf feature, or no feature column, raises
    DatasetFormatError."""
    if table is None or table.dtype != np.float64 or table.ndim != 2 \
            or table.shape[1] != width:
        return None
    raw = table[:, 0]
    if not np.all(np.isfinite(raw) & (raw == np.trunc(raw))):
        return None
    uniq, first_at, inverse = np.unique(raw, return_index=True, return_inverse=True)
    order = np.argsort(first_at)  # unique labels in first-appearance order
    original = tuple(int(v) for v in uniq[order])
    return LabeledDataset(table[:, 1:], np.argsort(order)[inverse],
                          original_labels=original)


def read_csv_dataset(path) -> LabeledDataset:
    """Read `label,f0,f1,...` rows; labels must be integer-valued and are
    remapped to 0..K-1 in first-appearance order. Whitespace-only lines
    are skipped.

    The file's bytes are hashed (SHA-256) in one streaming pass, then
    parsed in one ``np.loadtxt`` call. If that fails, or its table breaks
    a rule, ``_first_fault`` rereads the file line by line to name the
    first bad line. A file that passes leaves its table in the sidecar
    ``<path>.driftlab.npz``: one ASCII key line, ``<sha256 hex>
    <CSV_READER>``, then the table as ``.npy`` bytes. A later read of the
    same bytes by the same reader loads that table in place of the parse;
    the checks and the remap run on it as on a parsed one. Any other file
    at that path, a zip sidecar of earlier versions included, is ignored
    and overwritten.
    """
    sidecar = f"{path}{SIDECAR_SUFFIX}"
    table, width = None, 0
    try:
        with open(path, "rb") as fh:
            sha = hashlib.sha256()
            for chunk in iter(lambda: fh.read(1 << 18), b""):
                sha.update(chunk)
            key = f"{sha.hexdigest()} {CSV_READER}\n".encode("ascii")
            fh.seek(0)
            text = io.TextIOWrapper(fh, encoding="ascii")
            header = text.readline().rstrip("\n").split(",")
            width = len(header)
            if header[0] == "label":
                # exactly len(key) bytes, as a zip has no early newline; a
                # sidecar is only a cache, so any fault in it (a short
                # table, a mangled header, a NaN) means a parse
                with contextlib.suppress(Exception), open(sidecar, "rb") as side:
                    if side.read(len(key)) == key:
                        cached = _labeled(
                            np.lib.format.read_array(side, allow_pickle=False), width)
                        if cached is not None:
                            return cached
                rows = _data_lines(text)
                first = next(rows, None)  # loadtxt warns on empty input
                if first is not None:
                    table = _parse(itertools.chain((first,), rows))
    except ValueError:  # a bad cell or row, or a non-ASCII byte
        pass
    try:
        dataset = _labeled(table, width)
    except DatasetFormatError as e:  # a NaN or inf cell, or no feature column
        raise DatasetFormatError(f"{path}: {e}") from None
    if dataset is None:
        raise DatasetFormatError(_first_fault(path))

    def fill(fh):
        fh.write(key)
        np.lib.format.write_array(fh, table, allow_pickle=False)  # tofile, no copy
    with contextlib.suppress(OSError):  # an unwritable directory leaves no sidecar
        write_whole(sidecar, fill)
    return dataset
