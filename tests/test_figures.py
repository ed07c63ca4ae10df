import json
import xml.etree.ElementTree as ET

import numpy as np

from spiderlaw import LawSpec, build_density_curve
from spiderlaw.figures import render_curves_svg, write_curve_csv


def test_curve_csv_roundtrip(tmp_path):
    law = LawSpec.spider(4)
    curve = build_density_curve(law)
    path = tmp_path / "curve.csv"
    write_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "z,pdf,cdf"
    assert len(lines) == 1002
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert np.array_equal(parsed[:, 0], curve.grid)
    assert np.array_equal(parsed[:, 1], curve.pdf_values)
    sidecar = json.loads((tmp_path / "curve.json").read_text())
    assert sidecar["law"] == {"kind": "spider_occupation", "n": 4}


def test_svg_structure(tmp_path):
    laws = [LawSpec.ratio_a(mu) for mu in (0.25, 0.5, 0.75)]
    curves = [build_density_curve(law) for law in laws]
    path = tmp_path / "plot.svg"
    render_curves_svg(curves, ["a", "b", "c"], path, title="demo")
    tree = ET.parse(path)  # well-formed XML
    root = tree.getroot()
    assert root.tag.endswith("svg")
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 3
    texts = [el.text for el in root.iter() if el.tag.endswith("text")]
    assert "demo" in texts and "a" in texts


def test_svg_deterministic_rendering(tmp_path):
    curve = build_density_curve(LawSpec.arcsine())
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    render_curves_svg([curve], ["arc"], p1, title="t")
    render_curves_svg([curve], ["arc"], p2, title="t")
    assert p1.read_bytes() == p2.read_bytes()
