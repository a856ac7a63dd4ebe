"""Whole-file replacement for every artifact the toolkit writes.

A writer fills a temporary file in the target's directory and renames it
onto the target only after the last byte is written and the file is closed.
A reader therefore sees either the previous file or the complete new one,
never a partial write, and a failed write leaves no temporary file behind.
"""

from __future__ import annotations

import contextlib
import os
import secrets
from pathlib import Path


@contextlib.contextmanager
def atomic_open(path, mode: str = "w", encoding: str | None = None):
    """Open a file that replaces ``path`` when the ``with`` block ends cleanly.

    ``mode`` is ``"w"`` (text) or ``"wb"`` (binary). The temporary file is
    created with the permissions a plain ``open`` would give the target.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    fh = open(tmp, mode.replace("w", "x"), encoding=encoding)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
