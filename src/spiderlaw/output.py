"""The on-disk format of every CSV table and JSON sidecar the package writes.

CSV follows the ``csv.writer`` default dialect: fields joined by ``,``, lines
ended by ``\\r\\n``, and no field that needs quoting.  A field is ``str`` of
the ``.tolist()`` value, which for a float is its shortest repr, so floats
read back bit-exact; flags are passed as strings, and a :class:`Blanked`
column's fields are empty on the rows its mask picks.  The bytes come from
numpy, not from ``str`` (``fields.csv_rows``: a shortest-digits float
kernel, ints by digit arithmetic, each block of rows one byte matrix).  A table is written in
chunks of ``_CHUNK_ROWS`` rows, chunk k being the columns a pure function of
k returns: an in-memory table slices its columns (:func:`sliced`), and a
sample draws the chunk's rows from the chunk's own stream
(``samplers.ChunkedSample``), so the chunk size is also part of a sample's
stream layout.  Each chunk is made, formatted and written as one task on the
process's usable CPUs (``parallel.ordered_map``): the process that formats a
chunk writes its bytes at the chunk's offset, which a table of chunk offsets
in shared memory hands on from chunk to chunk.  So no table bytes cross a
pipe, a worker holds one chunk at a time, and the bytes do not depend on the
CPU count.  JSON is indented by two, with sorted keys and a final newline.
"""
from __future__ import annotations

import json
import mmap
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import UsageError
from .parallel import ordered_map

_CHUNK_ROWS = 1 << 14  # rows per chunk: one formatting task, one sample stream
_WAIT_S = 2e-4  # poll interval of a chunk waiting for its offset


@dataclass(frozen=True)
class Blanked:
    """A column whose fields are empty where the boolean row mask ``blank``
    is true; it slices by rows as an array does."""

    values: np.ndarray
    blank: np.ndarray

    def __len__(self):
        return len(self.values)

    def __getitem__(self, rows):
        return Blanked(self.values[rows], self.blank[rows])


def sliced(columns):
    """The chunks of equal-length in-memory columns: chunk k is their rows
    from ``k * _CHUNK_ROWS``, with a tally of 0."""
    def chunk(k):
        lo = k * _CHUNK_ROWS
        return [column[lo:lo + _CHUNK_ROWS] for column in columns], 0

    return chunk


def write_csv(path, header, rows, chunk) -> int:
    """Write a header row, then ``rows`` rows, ``_CHUNK_ROWS`` at a time.

    ``chunk(k)`` returns chunk k as ``(columns, tally)``: equal-length columns
    for rows ``k * _CHUNK_ROWS`` up to ``(k + 1) * _CHUNK_ROWS``, and a count
    the chunk made, such as a sample's redraws.  It must be a pure function of
    k.  Returns the sum of the tallies.

    The caller writes the header; each task then formats chunk k, waits until
    entry k of a shared table of chunk offsets is set (entry 0 is the header's
    length, and 0 means not known yet), sets entry k + 1 to its own end,
    and writes its bytes at its offset through its own handle.  Chunk k + 1
    so waits for chunk k to be formatted, not written.  Run serially, the
    tasks take the same path and never wait.  Only the tallies come back.
    """
    # imported, and its tables built, by the first table written rather than
    # by the package, and before the workers fork, so they inherit both
    from .fields import csv_rows

    path = str(path)
    count = -(-rows // _CHUNK_ROWS)
    head = (",".join(header) + "\r\n").encode()
    with open(path, "wb") as fh:
        fh.write(head)
    # anonymous and shared, so a forked worker sets the entries the others read
    starts = np.frombuffer(mmap.mmap(-1, 8 * (count + 1)), np.int64)
    starts[0] = len(head)

    def task(k):
        columns, tally = chunk(k)
        blocks = csv_rows(columns)
        while not starts[k]:
            time.sleep(_WAIT_S)
        start = int(starts[k])
        starts[k + 1] = start + sum(map(len, blocks))
        with open(path, "r+b") as fh:
            fh.seek(start)
            fh.writelines(blocks)
        return tally

    return sum(ordered_map(task, count))


def write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def sidecar_path(csv_path) -> str:
    """The JSON sidecar beside a CSV table: ``x.csv`` -> ``x.json``."""
    csv_path = str(csv_path)
    return csv_path[:-4] + ".json" if csv_path.endswith(".csv") else csv_path + ".json"


def prepare_out(path) -> Path:
    """Create the parent directory of an output file.  A parent that cannot be
    a directory (say, a regular file), or a file path that names an existing
    directory, is a usage error naming the path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror} ({exc.filename})") from exc
    if path.is_dir():
        raise UsageError(f"cannot write {path}: it is a directory")
    return path
