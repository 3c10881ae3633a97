"""Atomic file output: a file is either the old one or the complete new one."""

from __future__ import annotations

import contextlib
import os


@contextlib.contextmanager
def atomic_write(path, mode: str = "w", **open_kwargs):
    """Open `<path>.<pid>.tmp` in `path`'s directory for writing, and move it
    onto `path` when the block ends. On any error the temporary file is
    removed and `path` is left as it was.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise
