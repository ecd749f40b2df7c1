"""File input and output shared by the package's formats.

FEAT, HTBL and DHCN files each hold a little-endian header (magic, u16
version, format fields) and then arrays whose size the header fixes.
`open_binary` checks magic, version, the format's `payload` (which may reject
a field, as FEAT's width does) and the exact file length, in that order.
`read_into` is the one short-read check. Every output file is bytes
written through `atomic_open`. `write_binary` writes a whole file, a head
and then arrays; a text file is its head, encoded once. The eval report
writers stream their chunks through `atomic_open` themselves.
"""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import FormatError

# HTBL stores ids and labels, DHCN the class count, as u32
U32_MAX = 2**32 - 1


@contextmanager
def atomic_open(path):
    """Open a new temporary file beside path for writing bytes; on a clean
    exit it replaces path with os.replace.

    If the block raises, path keeps its old contents (or stays absent) and
    the temporary file is removed. The temporary file is created like
    open(path, "wb") would create path, so the umask sets its permissions.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_binary(path, header, magic: bytes, version: int, kind: str, payload):
    """Yield the file after its checked header and the header fields after
    magic and version; payload(*fields) is the byte count after the header."""
    with Path(path).open("rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(header.size)
        if len(head) < header.size:
            raise FormatError(f"{path}: truncated header ({len(head)} bytes, "
                              f"need {header.size})")
        found, found_version, *fields = header.unpack(head)
        if found != magic:
            raise FormatError(f"{path}: bad magic {found!r} at offset 0")
        if found_version != version:
            raise FormatError(f"{path}: unsupported {kind} version {found_version}")
        expected = header.size + payload(*fields)
        if size != expected:
            raise FormatError(f"{path}: file length {size} does not match "
                              f"header (expected {expected} bytes)")
        yield fh, fields


def read_into(fh, path, out: np.ndarray) -> np.ndarray:
    """Fill the contiguous array out from fh and return it."""
    offset = fh.tell()
    if fh.readinto(out) != out.nbytes:
        raise FormatError(f"{path}: file shrank while being read (short read "
                          f"at offset {offset})")
    return out


def write_binary(path, head: bytes, *arrays) -> None:
    """Write head, then each (array, dtype) pair as dtype via atomic_open."""
    with atomic_open(path) as fh:
        fh.write(head)
        for array, dtype in arrays:
            fh.write(np.ascontiguousarray(array, dtype=dtype))
