"""CSV and SVG emitters for density curves.

SVG output is dependency-free: a fixed 800x600 viewBox, one ``<path>``
element per curve, axis lines and tick labels, and a colour legend.  CSV is
the canonical data output; the SVG is a qualitative overlay whose densities
are clamped at the plot ceiling (the laws here diverge at the endpoints).
"""
from __future__ import annotations

import numpy as np

from .laws import DensityCurve
from .output import sidecar_path, sliced, write_csv, write_json

_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
    "#ff7f0e", "#8c564b", "#17becf", "#e377c2",
)

_WIDTH, _HEIGHT = 800, 600
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 24, 42, 54
_Y_MAX = 3.0  # the plot ceiling


def write_curve_csv(curve: DensityCurve, csv_path):
    """Write (z, pdf, cdf) rows plus a JSON sidecar describing the law."""
    write_csv(csv_path, ["z", "pdf", "cdf"], len(curve.grid),
              sliced([curve.grid, curve.pdf_values, curve.cdf_values]))
    sidecar = sidecar_path(csv_path)
    write_json(sidecar, {"law": curve.law.as_dict(), "points": len(curve.grid)})
    return sidecar


def _x_pixel(z):
    return _MARGIN_L + z * (_WIDTH - _MARGIN_L - _MARGIN_R)


def _y_pixel(v):
    usable = _HEIGHT - _MARGIN_T - _MARGIN_B
    return _HEIGHT - _MARGIN_B - min(v, _Y_MAX) / _Y_MAX * usable


def render_curves_svg(curves, labels, svg_path, *, title):
    """Overlay density curves in one SVG file, one path element per curve.
    The file is a function of its arguments alone."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_WIDTH} {_HEIGHT}" '
        f'width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
    ]
    parts.append(
        f'<text x="{_WIDTH / 2}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>'
    )

    # axes
    x0, y0 = _x_pixel(0.0), _y_pixel(0.0)
    x1, y1 = _x_pixel(1.0), _y_pixel(_Y_MAX)
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y0}" stroke="black"/>')
    parts.append(f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{y1}" stroke="black"/>')
    for tick in np.linspace(0.0, 1.0, 5):
        tx = _x_pixel(tick)
        parts.append(f'<line x1="{tx}" y1="{y0}" x2="{tx}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{tx}" y="{y0 + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{tick:g}</text>'
        )
    for tick in np.linspace(0.0, _Y_MAX, 4):
        ty = _y_pixel(tick)
        parts.append(f'<line x1="{x0 - 5}" y1="{ty}" x2="{x0}" y2="{ty}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 9}" y="{ty + 4}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick:g}</text>'
        )

    for i, (curve, label) in enumerate(zip(curves, labels)):
        color = _PALETTE[i % len(_PALETTE)]
        z, pdf, _ = curve.interior()
        coords = [f"{_x_pixel(zz):.2f} {_y_pixel(pp):.2f}"
                  for zz, pp in zip(z, pdf)]
        d = "M " + " L ".join(coords)
        parts.append(f'<path d="{d}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = _MARGIN_T + 16 * i
        lx = _WIDTH - _MARGIN_R - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly}" x2="{lx + 28}" y2="{ly}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{lx + 34}" y="{ly + 4}" font-family="sans-serif" '
            f'font-size="12">{label}</text>'
        )
    parts.append("</svg>")
    with open(str(svg_path), "w") as fh:
        fh.write("\n".join(parts))
        fh.write("\n")
