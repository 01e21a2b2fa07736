"""Dependency-free SVG 1.1 emission for band diagrams and IDS staircases.

Output carries no timestamps or other run metadata, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

HEADER = (
    '<?xml version="1.0" encoding="UTF-8" standalone="no"?>\n'
    '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
    'width="{w}" height="{h}" viewBox="0 0 {w} {h}">\n'
    '<rect x="0" y="0" width="{w}" height="{h}" fill="#ffffff"/>\n'
)
FOOTER = "</svg>\n"


def _fmt(x: float) -> str:
    return f"{x:.2f}"


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = width
        self.height = height
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, color="#000000", width=1.0):
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"/>'
        )

    def rects(self, x, y, w, h, fill):
        """One rect per entry of the arrays x and w, all at y with height h."""
        one = f'<rect x="%.2f" y="{_fmt(y)}" width="%.2f" height="{_fmt(h)}" fill="{fill}"/>'
        values = np.stack([x, w], axis=1).ravel().tolist()
        self.parts.append("\n".join([one] * len(x)) % tuple(values))

    def polyline(self, points, color="#1f3d99", width=1.2):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="{width}"/>'
        )

    def text(self, x, y, s, size=11, color="#333333"):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'font-family="monospace" fill="{color}">{s}</text>'
        )

    def render(self) -> str:
        body = "\n".join(self.parts)
        return HEADER.format(w=self.width, h=self.height) + body + "\n" + FOOTER

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


def _axis(canvas, x0, x1, y, e_lo, e_hi, ticks=9):
    canvas.line(x0, y, x1, y, color="#777777", width=0.8)
    for e in np.linspace(e_lo, e_hi, ticks):
        px = x0 + (e - e_lo) / (e_hi - e_lo) * (x1 - x0)
        canvas.line(px, y, px, y + 4, color="#777777", width=0.8)
        canvas.text(px - 12, y + 16, f"{e:.2f}", size=9)


def band_diagram(per_period, merged, path):
    """Stacked band rows, one per period, with the merged union at the bottom.

    per_period maps period -> the arrays (lo, hi) of its merged bands;
    merged is a SpectrumApprox.
    """
    periods = sorted(per_period)
    left, right, row_h, top = 60, 740, 22, 30
    height = top + row_h * (len(periods) + 2) + 40
    canvas = SvgCanvas(800, height)
    e_lo, e_hi = merged.hull
    pad = 0.05 * (e_hi - e_lo) or 1.0
    e_lo, e_hi = e_lo - pad, e_hi + pad

    def row(lo, hi, y, fill):  # px of each edge, the same float operations as a scalar's
        x0, x1 = (left + (e - e_lo) / (e_hi - e_lo) * (right - left) for e in (lo, hi))
        canvas.rects(x0, y, np.maximum(x1 - x0, 0.5), row_h - 8, fill)

    for i, p in enumerate(periods):
        y = top + i * row_h
        canvas.text(10, y + 10, f"p={p}", size=10)
        row(*per_period[p], y, "#4a6fce")
    y = top + (len(periods) + 1) * row_h
    canvas.text(10, y + 10, "union", size=10)
    row(merged.lo, merged.hi, y, "#163a7a")
    _axis(canvas, left, right, y + row_h + 6, e_lo, e_hi)
    canvas.write(path)


def ids_staircase(table, merged, path):
    """k(E) polyline over the energy axis, shaded over the bands of merged, a SpectrumApprox."""
    left, right, top, bottom = 60, 740, 30, 330
    canvas = SvgCanvas(800, 380)
    e_lo, e_hi = float(table.energies[0]), float(table.energies[-1])

    def px(e):
        return left + (e - e_lo) / (e_hi - e_lo) * (right - left)

    def py(k):
        return bottom - k * (bottom - top)

    x0, x1 = px(merged.lo), px(merged.hi)
    canvas.rects(x0, top, np.maximum(x1 - x0, 0.5), bottom - top, "#e3e9f7")
    for frac in (0.0, 0.5, 1.0):
        canvas.line(left, py(frac), right, py(frac), color="#cccccc", width=0.6)
        canvas.text(20, py(frac) + 4, f"{frac:.1f}", size=9)
    pts = [(px(e), py(k)) for e, k in zip(table.energies, table.k_values)]
    canvas.polyline(pts)
    _axis(canvas, left, right, bottom + 8, e_lo, e_hi)
    canvas.write(path)
