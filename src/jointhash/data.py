"""Dataset container, feature/label file formats, and synthetic data.

Feature files are binary: magic "FEAT", version u16, N u32, D u32, element
width u16 (32 or 64), then N*D row-major little-endian IEEE-754 values.
Label files are plain text with one class index per line; the first line may
be "classes=C". 32-bit feature values are widened to float64 on load.

Feature files are read BLOCK_ROWS rows at a time through one reused buffer,
so loading holds the float64 result plus one block of stored values, never
the whole file as bytes; `train.encode` hashes rows in blocks of the same
size.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, FormatError
from .index import U32_MAX

FEATURE_MAGIC = b"FEAT"
FEATURE_VERSION = 1
_FEATURE_HEADER = struct.Struct("<4sHIIH")
# rows per block when features are read from disk or hashed into codes
BLOCK_ROWS = 8192


@dataclass
class Dataset:
    """Feature matrix with integer class labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels)
        if labels.dtype.kind == "c":
            raise DataError(f"labels have complex dtype {labels.dtype}; class "
                            "indices must be integers")
        with np.errstate(invalid="ignore"):
            self.labels = labels.astype(np.int64, copy=False)
        if self.features.ndim != 2:
            raise DataError("features must form an (N, D) matrix")
        if self.labels.shape != (self.features.shape[0],):
            raise DataError(
                f"{self.labels.shape[0]} labels for {self.features.shape[0]} "
                "feature rows"
            )
        if labels.dtype.kind == "f" and np.any(self.labels != labels):
            row = int(np.argmax(self.labels != labels))
            raise DataError(f"label {labels[row]} in row {row} is not an "
                            "integer class index")
        # exact with no (N, D) mask: NaN propagates, an infinity is an extreme
        if not (np.isfinite(self.features.min(initial=0.0))
                and np.isfinite(self.features.max(initial=0.0))):
            raise DataError("features contain non-finite values")
        if self.labels.size and (self.labels.min() < 0
                                 or self.labels.max() >= self.num_classes):
            raise DataError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{self.labels.min()}, {self.labels.max()}]"
            )

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, idx: np.ndarray) -> "Dataset":
        return Dataset(self.features[idx], self.labels[idx], self.num_classes)


def write_feature_file(path, features: np.ndarray, width: int = 64) -> None:
    feats = np.asarray(features, dtype=np.float64)
    if feats.ndim != 2:
        raise DataError("feature files hold (N, D) matrices")
    if width not in (32, 64):
        raise DataError(f"element width must be 32 or 64, got {width}")
    n, d = feats.shape
    dtype = "<f4" if width == 32 else "<f8"
    blob = _FEATURE_HEADER.pack(FEATURE_MAGIC, FEATURE_VERSION, n, d, width)
    Path(path).write_bytes(blob + feats.astype(dtype).tobytes())


def read_feature_file(path) -> np.ndarray:
    """(N, D) float64 features, read and checked BLOCK_ROWS rows at a time."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(_FEATURE_HEADER.size)
        if len(head) < _FEATURE_HEADER.size:
            raise FormatError(
                f"{path}: truncated header ({len(head)} bytes, "
                f"need {_FEATURE_HEADER.size})"
            )
        magic, version, n, d, width = _FEATURE_HEADER.unpack(head)
        if magic != FEATURE_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r} at offset 0")
        if version != FEATURE_VERSION:
            raise FormatError(f"{path}: unsupported feature-file version {version}")
        if width not in (32, 64):
            raise FormatError(f"{path}: element width {width} at offset 14 "
                              "must be 32 or 64")
        itemsize = width // 8
        expected = _FEATURE_HEADER.size + n * d * itemsize
        if size != expected:
            raise FormatError(
                f"{path}: file length {size} does not match header "
                f"(expected {expected} bytes)"
            )
        count = n * d
        step = BLOCK_ROWS * max(d, 1)
        feats = np.empty(count)
        buf = np.empty(min(count, step), dtype="<f4" if width == 32 else "<f8")
        for start in range(0, count, step):
            block = buf[:min(step, count - start)]
            if fh.readinto(block) != block.nbytes:
                raise FormatError(
                    f"{path}: file shrank while being read (short read at "
                    f"offset {_FEATURE_HEADER.size + start * itemsize})"
                )
            out = feats[start:start + block.size]
            out[...] = block
            finite = np.isfinite(out)
            if not finite.all():
                bad = start + int(np.argmin(finite))
                raise DataError(
                    f"{path}: non-finite value at element {bad} "
                    f"(offset {_FEATURE_HEADER.size + bad * itemsize})"
                )
    return feats.reshape(n, d)


def write_label_file(path, labels: np.ndarray,
                     num_classes: int | None = None) -> None:
    lines = []
    if num_classes is not None:
        lines.append(f"classes={num_classes}")
    lines.extend(str(int(v)) for v in np.asarray(labels))
    Path(path).write_text("\n".join(lines) + "\n")


def read_label_file(path) -> tuple[np.ndarray, int]:
    """Labels plus the class count (declared, or max label + 1)."""
    try:
        text = Path(path).read_text(encoding="utf-8")
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
    labels = np.asarray(values, dtype=np.int64)
    return labels, declared if declared is not None else int(labels.max()) + 1


def load_dataset(feature_path, label_path) -> Dataset:
    features = read_feature_file(feature_path)
    labels, num_classes = read_label_file(label_path)
    if labels.shape[0] != features.shape[0]:
        raise DataError(
            f"{feature_path} holds {features.shape[0]} rows but "
            f"{label_path} holds {labels.shape[0]} labels"
        )
    return Dataset(features, labels, num_classes)


def save_dataset(dataset: Dataset, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    feature_path = out_dir / "features.feat"
    label_path = out_dir / "labels.txt"
    write_feature_file(feature_path, dataset.features)
    write_label_file(label_path, dataset.labels, dataset.num_classes)
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
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size == 0:
            continue
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
