"""Fuzzed loaders: a corrupt input file raises FormatError or DataError.

Each valid file is mutated by a truncation, a single-byte flip or an
oversized header count; any other exception escaping a loader fails the test.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointhash.data import (
    read_feature_file,
    read_label_file,
    write_feature_file,
    write_label_file,
)
from jointhash.errors import DataError, FormatError
from jointhash.index import CodeTable, load_code_table, save_code_table
from jointhash.model import pack_codes
from jointhash.objective import Hyperparams
from jointhash.train import Checkpoint, init_params, load_checkpoint, save_checkpoint


def write_features(path):
    write_feature_file(path, np.random.default_rng(0).normal(size=(6, 3)),
                       width=32)


def write_labels(path):
    write_label_file(path, [0, 1, 2, 3, 1, 0, 2, 3], num_classes=4)


def write_table(path):
    signs = np.where(np.random.default_rng(1).random((20, 8)) > 0.5, 1, -1)
    labels = np.arange(20) % 3
    save_code_table(CodeTable(np.atleast_2d(pack_codes(signs)), np.arange(20),
                              labels, labels, code_bits=8), path)


def write_checkpoint(path):
    # one feature, bit and class keep the hyperparameter block a large share
    # of the file; with eta at its upper end, most flips of eta's bytes put it
    # out of range
    hyper = Hyperparams(eta=1.0, code_bits=1)
    save_checkpoint(Checkpoint(init_params(1, 1, 1, seed=0), hyper, 5), path)


def u32_counts(*offsets):
    """Writes an oversized value into the u32 header count at an offset."""
    def oversize(raw, field, value):
        out = bytearray(raw)
        struct.pack_into("<I", out, offsets[field % len(offsets)], value)
        return bytes(out)
    return oversize


def class_count(raw, field, value):
    return raw.replace(b"classes=4", b"classes=%d" % value, 1)


# name -> (writer of a valid file, loader, oversize(raw, field, value))
FORMATS = {
    "feature": (write_features, read_feature_file, u32_counts(6, 10)),
    "label": (write_labels, read_label_file, class_count),
    "code_table": (write_table, load_code_table, u32_counts(6, 10)),
    "checkpoint": (write_checkpoint, load_checkpoint, u32_counts(6, 10, 14)),
}


def flip(raw, at, mask):
    out = bytearray(raw)
    out[at] ^= mask
    return bytes(out)


def mutations(raw, oversize):
    last = len(raw) - 1
    return st.one_of(
        st.integers(0, last).map(lambda cut: raw[:cut]),
        st.builds(flip, st.just(raw), st.integers(0, last), st.integers(1, 255)),
        st.builds(oversize, st.just(raw), st.integers(0, 2),
                  st.integers(2**20, 2**32 - 1)),
    )


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_corrupt_file_raises_typed_error(name, tmp_path_factory):
    write, load, oversize = FORMATS[name]
    root = tmp_path_factory.mktemp(name)
    write(root / "valid")
    load(root / "valid")
    raw = (root / "valid").read_bytes()
    target = root / "mutated"

    @settings(max_examples=200, derandomize=True, deadline=None,
              database=None)
    @given(mutations(raw, oversize))
    def check(mutated):
        target.write_bytes(mutated)
        try:
            load(target)
        except (FormatError, DataError):
            pass

    check()
