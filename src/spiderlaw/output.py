"""The on-disk format of every CSV table and JSON sidecar the package writes.

CSV follows the ``csv.writer`` default dialect: fields joined by ``,``, lines
ended by ``\\r\\n``, and no field that needs quoting.  A field is ``str`` of
the ``.tolist()`` value, which for a float is its shortest repr, so floats
read back bit-exact; flags are passed as strings and a masked entry is an
empty field.  JSON is indented by two, with sorted keys and a final newline.
"""
from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import UsageError

_CHUNK_ROWS = 1 << 14  # rows formatted at a time, so no table is held as strings


def _fields(column) -> list[str]:
    values = column.tolist()
    if np.ma.isMaskedArray(column):
        return ["" if v is None else str(v) for v in values]
    return list(map(str, values))


def write_csv(path, header, columns):
    """Write a header row, then one row per index of the equal-length columns."""
    with open(str(path), "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for lo in range(0, len(columns[0]), _CHUNK_ROWS):
            cells = [_fields(column[lo:lo + _CHUNK_ROWS]) for column in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


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
