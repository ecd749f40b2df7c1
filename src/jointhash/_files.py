"""Crash-safe file output: write a temporary file, then rename it over the target."""

from __future__ import annotations

import os
import uuid
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a new temporary file beside path for writing; on a clean exit it
    replaces path with os.replace.

    mode is "w" or "wb"; kwargs go to open(). If the block raises, path keeps
    its old contents (or stays absent) and the temporary file is removed.
    The temporary file is created like open(path, mode) would create path,
    so the umask sets its permissions.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, mode.replace("w", "x"), **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
