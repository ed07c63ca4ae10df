"""The CSV format shared by every table, pinned against ``csv.writer``.

Each writer must emit exactly what ``csv.writer`` writes with
``repr(float(x))`` and ``str(int(x))`` fields, an empty field for a masked
entry (CRLF line ends included), and every float must read back bit-exact.
"""
import csv
import io

import numpy as np

from spiderlaw import LawKind, LawSpec, SpiderConfig, StopBatch, output, save_sample_batch
from spiderlaw.figures import write_curve_csv
from spiderlaw.laws import DensityCurve
from spiderlaw.walk import write_batch_csv

FLOATS = [0.0, 1.0, 5e-324, 1e-05, 1e+16, 0.1 + 0.2]


def _csv_writer_bytes(rows) -> bytes:
    buf = io.StringIO(newline="")
    csv.writer(buf).writerows(rows)
    return buf.getvalue().encode()


def _read_back(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_sample_batch_format(tmp_path):
    # enough rows to span several write chunks
    values = np.resize(FLOATS, (40_000, 2))
    path = tmp_path / "s.csv"
    save_sample_batch(path, values, "occupation", {"n": 2}, seed=0)
    rows = [["occupation_n2_ray1", "occupation_n2_ray2"]]
    rows += [[repr(float(x)) for x in row] for row in values]
    assert path.read_bytes() == _csv_writer_bytes(rows)
    parsed = np.array(_read_back(path)[1:], dtype=float)
    assert np.array_equal(parsed, values)

    path = tmp_path / "one.csv"
    save_sample_batch(path, np.array(FLOATS), "arcsine", {}, seed=0)
    assert path.read_bytes() == _csv_writer_bytes(
        [["arcsine"]] + [[repr(x)] for x in FLOATS])


def test_curve_csv_format(tmp_path):
    curve = DensityCurve(LawSpec(LawKind.ARC_SINE), np.array(FLOATS),
                         np.array(FLOATS[::-1]), np.array(FLOATS))
    path = tmp_path / "c.csv"
    write_curve_csv(curve, path)
    rows = [["z", "pdf", "cdf"]]
    rows += [[repr(z), repr(p), repr(c)] for z, p, c in zip(FLOATS, FLOATS[::-1], FLOATS)]
    assert path.read_bytes() == _csv_writer_bytes(rows)
    parsed = np.array(_read_back(path)[1:], dtype=float)
    assert np.array_equal(parsed, np.array([FLOATS, FLOATS[::-1], FLOATS]).T)


def test_batch_csv_format(tmp_path):
    # stopped_step = 1 makes each written fraction the count itself
    counts = np.array([FLOATS[0:2], FLOATS[2:4], [7.0, 9.0], FLOATS[4:6]])
    batch = StopBatch(
        config=SpiderConfig(n=2, steps=10, paths=4),
        rule=None, run_id=0, counts=counts,
        stopped_step=np.array([1, 1, 0, 1]),
        zero_visits=np.array([1, 2, 0, 10**15]),
        last_zero_step=np.array([0, 1, 0, 1]),
        discarded=np.array([False, False, True, False]),
    )
    path = tmp_path / "w.csv"
    write_batch_csv(path, batch)
    rows = [["path_id", "frac_ray1", "frac_ray2", "zero_visits",
             "last_zero_fraction", "stopped_step", "discarded"]]
    for p in range(4):
        if batch.discarded[p]:
            rows.append([p, "", "", "", "", "", "true"])
        else:
            rows.append([p] + [repr(float(x)) for x in counts[p]]
                        + [int(batch.zero_visits[p]),
                           repr(float(batch.last_zero_step[p])),
                           int(batch.stopped_step[p]), "false"])
    assert path.read_bytes() == _csv_writer_bytes(rows)
    kept = [row for row in _read_back(path)[1:] if row[-1] == "false"]
    parsed = np.array([row[1:3] for row in kept], dtype=float)
    assert np.array_equal(parsed, counts[[0, 1, 3]])


def _cell(value, masked=False):
    if masked:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def test_every_column_kind_is_written_as_csv_writer_would(tmp_path):
    # two full chunks, the second all masked, and a short third
    rows = 2 * output._CHUNK_ROWS + 123
    rng = np.random.default_rng(3)
    info = np.iinfo(np.int64)
    ints = rng.integers(info.min, info.max, rows, endpoint=True)
    ints[:6] = [info.min, info.max, -1, 0, -(10**18), 10**18]
    floats = rng.standard_normal(rows) * 10.0 ** rng.integers(-30, 30, rows)
    floats[:len(FLOATS)] = FLOATS
    floats[-3:] = [-0.0, np.inf, -5e-324]
    mask = rng.random(rows) < 0.3
    mask[output._CHUNK_ROWS:2 * output._CHUNK_ROWS] = True
    columns = [np.arange(rows), ints, floats,
               np.ma.masked_array(floats[::-1].copy(), mask=mask),
               np.ma.masked_array(ints[::-1].copy(), mask=mask),
               np.where(mask, "true", "false")]
    header = ["id", "int", "float", "masked_float", "masked_int", "flag"]
    path = tmp_path / "t.csv"
    output.write_csv(path, header, rows, output.sliced(columns))
    expected = [header]
    for i in range(rows):
        expected.append([_cell(int(i)), _cell(int(ints[i])), _cell(float(floats[i])),
                         _cell(float(floats[::-1][i]), mask[i]),
                         _cell(int(ints[::-1][i]), mask[i]), "true" if mask[i] else "false"])
    assert path.read_bytes() == _csv_writer_bytes(expected)


def test_a_one_column_table_is_written_as_csv_writer_would(tmp_path):
    rows = output._CHUNK_ROWS + 5
    values = np.arange(rows) - 7
    path = tmp_path / "one.csv"
    output.write_csv(path, ["v"], rows, output.sliced([values]))
    assert path.read_bytes() == _csv_writer_bytes([["v"]] + [[str(v)] for v in values.tolist()])
