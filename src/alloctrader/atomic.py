"""Atomic file output: a file is either the old one or the complete new one.

Every CSV written through `write_csv` has one dialect: a header row,
comma-separated fields, CRLF line ends, floats as `repr` and timestamps as
ISO-8601. None of its fields holds a comma, a quote or a line break, so no
field is quoted and the bytes match the `csv` module's default dialect. The
calendar and `synthetic_regimes.csv` are written outside it, with LF ends.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from typing import Iterable, Sequence


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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write `header`, then each row, in the package's CSV dialect. Fields
    are formatted with `str`, so a float comes out as its `repr`; rows are
    streamed, so the file is never held in memory whole."""
    line = ",".join(["{}"] * len(header)) + "\r\n"
    with atomic_write(path, newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        fh.writelines(itertools.starmap(line.format, rows))


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys and a final newline."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
