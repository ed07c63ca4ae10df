"""The on-disk format of every CSV table and JSON sidecar the package writes.

CSV follows the ``csv.writer`` default dialect: fields joined by ``,``, lines
ended by ``\\r\\n``, and no field that needs quoting.  A field is ``str`` of
the ``.tolist()`` value, which for a float is its shortest repr, so floats
read back bit-exact; flags are passed as strings and a masked entry is an
empty field.  The bytes come from numpy, not from ``str``
(``fields.csv_rows``: a shortest-digits float kernel, ints by digit
arithmetic, each block of rows one byte matrix).  A table is written in
chunks of ``_CHUNK_ROWS`` rows, chunk k being the columns a pure function of
k returns: an in-memory table slices its columns (:func:`sliced`), and a
sample draws the chunk's rows from the chunk's own stream
(``samplers.ChunkedSample``), so the chunk size is also part of a sample's
stream layout.  Each chunk is made and formatted as one task on the
process's usable CPUs (``parallel.ordered_map``), its bytes sent back and
written in order as they arrive, so no more than a few chunks are held at a
time and the bytes do not depend on the CPU count.  JSON is indented by two,
with sorted keys and a final newline.
"""
from __future__ import annotations

import json
from pathlib import Path

from .errors import UsageError
from .parallel import ordered_map

_CHUNK_ROWS = 1 << 14  # rows per chunk: one formatting task, one sample stream


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
    """
    # imported, and its tables built, by the first table written rather than
    # by the package, and before the workers fork, so they inherit both
    from .fields import csv_rows

    def task(k):
        columns, tally = chunk(k)
        return csv_rows(columns), tally

    total = 0
    with open(str(path), "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        for data, tally in ordered_map(task, -(-rows // _CHUNK_ROWS)):
            fh.write(data)
            total += tally
    return total


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
