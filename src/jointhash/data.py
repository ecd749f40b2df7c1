"""Dataset container, feature/label file formats, and synthetic data.

Feature files are binary: magic "FEAT", version u16, N u32, D u32, element
width u16 (32 or 64), then N*D row-major little-endian IEEE-754 values.
Label files are plain text with one class index per line; the first line may
be "classes=C". 32-bit feature values are widened to float64 on load.

This module alone decides what a valid label is (`class_indices`, which
`Dataset`, `StreamedDataset`, the training objective and `write_label_file`
call, so the writer refuses before it writes any labels that
`read_label_file` would reject) and how rows
are cut into blocks (`_row_ranges`). A block holds `_block_rows(D)` rows:
BLOCK_ROWS, or fewer when D is so wide that BLOCK_ROWS float64 rows pass
_BLOCK_BYTES; an empty source gives one empty block, so its width is still
checked. `row_blocks` cuts an array and `_feature_blocks` a feature file.
A 64-bit file is read straight into the float64 block; a 32-bit file is read
into one buffer of stored values of the block's shape and widened into the
block in one assignment. Each block is checked for values that are not finite
by its min and max, with no (rows, D) mask. A StreamedDataset (encode, eval)
holds one block at a time; `load_dataset` (train, sweep) gathers its blocks
into the (N, D) float64 matrix, as `read_feature_file` (query) does.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._files import U32_MAX, open_binary, read_into, write_binary
from .errors import ConfigError, DataError, FormatError

FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHIIH")
# the most rows per block when features are read from disk or hashed into
# codes, and the float64 bytes a block may take (1024 rows of D = 128)
BLOCK_ROWS = 8192
_BLOCK_BYTES = 1 << 20
# a block never has fewer rows, however wide D is. Its row count can change
# the last bits of u (on an AVX-512 host, at 64 rows and at some counts in the
# hundreds), so encode and encode_database share this one cut; codes and
# labels matched those of 8192-row blocks at every D 16-8192, K 16-64 tried
_MIN_BLOCK_ROWS = 64


def _block_rows(dim: int) -> int:
    """Rows per block of D-wide float64 features, for reads and for encode."""
    return max(_MIN_BLOCK_ROWS, min(BLOCK_ROWS, _BLOCK_BYTES // (8 * max(dim, 1))))


def _row_ranges(n: int, dim: int):
    """Slices of n D-wide rows, `_block_rows(D)` each (the last shorter);
    n = 0 gives one empty slice, so an empty source still has a block."""
    step = _block_rows(dim)
    return (slice(start, min(start + step, n))
            for start in range(0, max(n, 1), step))


def row_blocks(features: np.ndarray):
    """Views of the rows of a 2-D array, in the blocks of `_row_ranges`."""
    return (features[rows] for rows in _row_ranges(len(features),
                                                   features.shape[-1]))


def _all_finite(values: np.ndarray) -> bool:
    # exact with no (N, D) mask: NaN propagates, an infinity is an extreme
    return bool(np.isfinite(values.min(initial=0.0))
                and np.isfinite(values.max(initial=0.0)))


def _label_array(labels, error) -> np.ndarray:
    try:
        return np.asarray(labels)
    except ValueError:  # numpy refuses ragged nested sequences
        raise error("labels have a ragged shape, not one class index per "
                    "row") from None


def class_indices(labels, rows: int, classes: int, error=DataError) -> np.ndarray:
    """Bool, integer or float labels as int64, one per row, each an integer
    in [0, classes); any other labels raise `error`, naming the first bad one."""
    raw = _label_array(labels, error)
    if raw.dtype.kind == "c":
        raise error(f"labels have complex dtype {raw.dtype}; class "
                    "indices must be integers")
    if raw.dtype.kind not in "biuf":
        raise error(f"labels of dtype {raw.dtype} are not integer class indices")
    if raw.dtype.kind == "f":  # np.errstate costs ~2 µs per training batch
        with np.errstate(invalid="ignore"):
            y = raw.astype(np.int64)
    else:
        y = raw.astype(np.int64, copy=False)
    if y.shape != (rows,):
        raise error(f"labels have shape {y.shape}, expected one "
                    f"class index per row ({rows})")
    if raw.dtype.kind == "f" and np.any(y != raw):
        row = int(np.argmax(y != raw))
        if raw[row] == np.floor(raw[row]) and np.isfinite(raw[row]):
            # an integral float beyond int64 has no exact int64 cast
            raise error(f"class index {raw[row]} outside [0, {classes})")
        raise error(f"label {raw[row]} in row {row} is not an integer class index")
    if rows and (np.minimum.reduce(y) < 0 or np.maximum.reduce(y) >= classes):
        # an unsigned label of 2**63 or more wraps to a negative int64
        bad = (raw if raw.dtype.kind == "u" else y)[(y < 0) | (y >= classes)][0]
        raise error(f"class index {bad} outside [0, {classes})")
    return y


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        if self.features.ndim != 2:
            raise DataError("features must form an (N, D) matrix")
        self.labels = class_indices(self.labels, len(self.features), self.num_classes)
        if not _all_finite(self.features):
            raise DataError("features contain non-finite values")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)

    def blocks(self):
        """The feature rows in order, as views in `row_blocks`."""
        return row_blocks(self.features)


class StreamedDataset:
    """A feature file and its label file, for one pass over the features.

    Construction reads and checks the feature header and the whole label
    file. The feature values are read only by iterating `blocks()`, once,
    one block at a time, so the (N, D) matrix is never held.
    """

    def __init__(self, feature_path, label_path):
        self._blocks = _feature_blocks(feature_path)
        rows, self.feature_dim = next(self._blocks)
        labels, self.num_classes = read_label_file(label_path)
        if len(labels) != rows:
            raise DataError(f"{feature_path} holds {rows} rows but "
                            f"{label_path} holds {len(labels)} labels")
        self.labels = class_indices(labels, rows, self.num_classes)

    def __len__(self) -> int:
        return len(self.labels)

    def blocks(self):
        """The float64 feature rows in blocks; each overwrites the last."""
        if self._blocks is None:
            raise ValueError("a StreamedDataset's features can be read once")
        blocks, self._blocks = self._blocks, None
        return blocks


def write_feature_file(path, features: np.ndarray, width: int = 64) -> None:
    """Write (N, D) features as 32- or 64-bit floats; a value that is not
    finite as stored raises DataError, and path keeps its old contents."""
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DataError("feature files hold (N, D) matrices")
    if width not in (32, 64):
        raise DataError(f"element width must be 32 or 64, got {width}")
    with np.errstate(over="ignore"):
        stored = np.ascontiguousarray(feats, dtype="<f4" if width == 32 else "<f8")
    if not _all_finite(stored):
        bad = int(np.argmin(np.isfinite(stored).ravel()))
        raise DataError(f"{path}: element {bad} ({float(feats.flat[bad])!r}) "
                        f"is not finite as a {width}-bit float")
    write_binary(path, _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION,
                                            *feats.shape, width), (stored, None))


def _feature_blocks(path):
    """Read a feature file block by block, checking it as it goes.

    Yields the header's (N, D) first, then the rows as float64 (rows, D)
    arrays in the blocks of `_row_ranges`, in file order.
    Each block is read into one reused float64 buffer (a 32-bit file through
    one stored-width buffer of the same shape, then widened) and checked for
    non-finite values before it is yielded; the next block overwrites it.
    """
    def payload(n, d, width):
        if width not in (32, 64):
            raise FormatError(f"{path}: element width {width} at offset 14 "
                              "must be 32 or 64")
        return n * d * width // 8

    with open_binary(path, _FEATURE_HEADER, FEATURE_MAGIC, FEATURE_VERSION,
                     "feature-file", payload) as (fh, (n, d, width)):
        yield n, d
        wide = np.empty((min(n, _block_rows(d)), d))
        dtype = np.dtype("<f4" if width == 32 else "<f8")
        stored = None if dtype == wide.dtype else np.empty(wide.shape, dtype)
        for rows in _row_ranges(n, d):
            block = wide[:rows.stop - rows.start]
            if stored is None:
                read_into(fh, path, block)
            else:
                block[...] = read_into(fh, path, stored[:len(block)])
            if not _all_finite(block):
                bad = rows.start * d + int(np.argmin(np.isfinite(block)))
                raise DataError(
                    f"{path}: non-finite value at element {bad} "
                    f"(offset {_FEATURE_HEADER.size + bad * width // 8})"
                )
            yield block


def _matrix(blocks, n: int, dim: int) -> np.ndarray:
    """The (n, D) float64 matrix of a feature file's blocks."""
    feats = np.empty((n, dim))
    for block, rows in zip(blocks, _row_ranges(n, dim)):
        feats[rows] = block
    return feats


def read_feature_file(path) -> np.ndarray:
    """(N, D) float64 features, read and checked one block at a time."""
    blocks = _feature_blocks(path)
    return _matrix(blocks, *next(blocks))


def write_label_file(path, labels: np.ndarray,
                     num_classes: int | None = None) -> None:
    """Write one label per line, after a "classes=C" line when num_classes
    is given. What `read_label_file` would reject (no labels, labels that
    `class_indices` refuses for C classes, or for 2^32 when C is not given,
    or C outside [1, U32_MAX]) raises DataError naming the path and the
    first bad value, and path keeps its old contents."""
    def fail(message):
        return DataError(f"{path}: {message}")

    labels = _label_array(labels, fail)
    if num_classes is not None and not (isinstance(num_classes, (int, np.integer))
                                        and 1 <= num_classes <= U32_MAX):
        raise fail(f"class count must be an integer in [1, {U32_MAX}], "
                   f"got {num_classes!r}")
    if labels.ndim != 1 or not labels.size:
        raise fail(f"labels must form a non-empty 1-D array, got shape "
                   f"{labels.shape}")
    classes = U32_MAX + 1 if num_classes is None else int(num_classes)
    y = class_indices(labels, len(labels), classes, fail)
    lines = [] if num_classes is None else [f"classes={classes}"]
    lines.extend(map(str, y.tolist()))
    write_binary(path, ("\n".join(lines) + "\n").encode())


# a label file whose labels parse all at once: an optional classes=C line,
# then lines of 1 to 10 ASCII digits, each ended by a newline
_CANONICAL_HEADER = re.compile(rb"classes=([0-9]{1,10})\n")


def _parse_canonical(raw: bytes) -> tuple[np.ndarray, int | None] | None:
    """Labels and declared class count of a canonical label file whose
    labels and count are all in range, or None for any other file."""
    header = _CANONICAL_HEADER.match(raw)
    declared = int(header[1]) if header else None
    if declared is not None and not 1 <= declared <= U32_MAX:
        return None
    body = np.frombuffer(raw, np.uint8, offset=header.end() if header else 0)
    if not body.size or body[-1] != ord("\n"):
        return None
    ends = np.flatnonzero(body == ord("\n"))
    digits = body - np.uint8(ord("0"))  # a newline or any non-digit wraps past 9
    if np.count_nonzero(digits > 9) != ends.size:
        return None
    lengths = np.diff(ends, prepend=-1) - 1
    if lengths.min() < 1 or lengths.max() > 10:
        return None
    labels = np.zeros(ends.size, np.int64)
    for back in range(int(lengths.max()), 0, -1):
        digit = digits[np.maximum(ends - back, 0)]
        labels = labels * 10 + np.where(lengths >= back, digit, 0)
    top = U32_MAX if declared is None else declared - 1
    if labels.max() > top:
        return None
    return labels, declared


def read_label_file(path) -> tuple[np.ndarray, int]:
    """Labels plus the class count (declared, or max label + 1).

    A canonical file (see `_parse_canonical`) is parsed as one array; any
    other file line by line, which gives the same labels and names the first
    bad line.
    """
    raw = Path(path).read_bytes()
    parsed = _parse_canonical(raw)
    labels, declared = _parse_label_lines(path, raw) if parsed is None else parsed
    return labels, declared if declared is not None else int(labels.max()) + 1


def _parse_label_lines(path, raw: bytes) -> tuple[np.ndarray, int | None]:
    """Labels and declared class count of any label file, line by line."""
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text at offset {exc.start}") from None
    declared = None
    values = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if lineno == 1 and line.startswith("classes="):
            try:
                declared = int(line.split("=", 1)[1])
            except ValueError:
                raise FormatError(f"{path}:{lineno}: malformed classes header "
                                  f"{line!r}") from None
            if not 1 <= declared <= U32_MAX:
                raise DataError(f"{path}:{lineno}: class count must lie in "
                                f"[1, {U32_MAX}], got {declared}")
            continue
        try:
            value = int(line)
        except ValueError:
            raise FormatError(
                f"{path}:{lineno}: expected an integer label, got {line!r}"
            ) from None
        if not 0 <= value <= U32_MAX:
            raise DataError(f"{path}:{lineno}: label {value} must lie in "
                            f"[0, {U32_MAX}]")
        if declared is not None and value >= declared:
            raise DataError(
                f"{path}:{lineno}: label {value} out of range for "
                f"classes={declared}"
            )
        values.append(value)
    if not values:
        raise FormatError(f"{path}: no labels found")
    return np.asarray(values, dtype=np.int64), declared


def load_dataset(feature_path, label_path) -> Dataset:
    """A StreamedDataset's rows gathered into one (N, D) matrix."""
    stream = StreamedDataset(feature_path, label_path)
    return Dataset(_matrix(stream.blocks(), len(stream), stream.feature_dim),
                   stream.labels, stream.num_classes)


def save_dataset(dataset: Dataset, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    feature_path = out_dir / "features.feat"
    label_path = out_dir / "labels.txt"
    # the labels first: their writer refuses an empty dataset, and a
    # Dataset's finite float64 features cannot fail their check
    write_label_file(label_path, dataset.labels, dataset.num_classes)
    write_feature_file(feature_path, dataset.features)
    return feature_path, label_path


def synth_dataset(classes: int, per_class: int, dim: int, separation: float,
                  seed: int, out_dir=None) -> Dataset:
    """Gaussian class clusters: separation * center_c + noise.

    separation is the ratio of center spread to noise spread; 0 makes the
    features class-blind. Centers and noise both have expected unit norm
    (per-dimension std 1/sqrt(D)) so feature scale stays O(separation) at
    any dimension. When out_dir is given the feature/label files are written
    there as well.
    """
    if classes < 2:
        raise ValueError(f"need at least 2 classes, got {classes}")
    if per_class < 2:
        raise ValueError(f"need at least 2 samples per class, got {per_class}")
    rng = np.random.default_rng(seed)
    scale = 1.0 / np.sqrt(dim)
    centers = rng.normal(0.0, scale, (classes, dim))
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    noise = rng.normal(0.0, scale, (classes * per_class, dim))
    features = separation * centers[labels] + noise
    dataset = Dataset(features, labels, classes)
    if out_dir is not None:
        save_dataset(dataset, out_dir)
    return dataset


def train_test_split(dataset: Dataset, test_fraction: float,
                     seed: int) -> tuple[Dataset, Dataset]:
    """Stratified split: the same fraction of every class goes to the test set."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")
    if not len(dataset):
        raise ValueError("cannot split a dataset with no rows")
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    # one stable sort: classes ascend, each drawing one permutation of its rows
    order = np.argsort(dataset.labels, kind="stable")
    cuts = np.flatnonzero(np.diff(dataset.labels[order])) + 1
    for members in np.split(order, cuts):
        perm = members[rng.permutation(members.size)]
        n_test = int(round(test_fraction * members.size))
        n_test = min(max(n_test, 1), members.size - 1)
        test_idx.append(perm[:n_test])
        train_idx.append(perm[n_test:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def parse_run_config(path, keys) -> dict[str, str]:
    """key=value lines; keys outside the given set are rejected by name."""
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text at offset {exc.start}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = value.strip()
    return values
