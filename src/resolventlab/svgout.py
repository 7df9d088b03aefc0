"""Deterministic SVG rendering of pseudospectrum scans.

Filled contour bands at the requested epsilon levels (darker = smaller
epsilon) plus black eigenvalue markers. Output is byte-identical across
runs apart from the version comment line.
"""

from __future__ import annotations

import numpy as np

from . import __version__
from .pspec import PseudospectrumGrid

WIDTH = 640     # pixels; the height follows the region's aspect ratio

# light -> dark blues, used from the largest level down
_BAND_COLORS = ["#c6dbef", "#9ecae1", "#6baed6", "#3182bd", "#08519c", "#08306b"]


def _band_color(i: int, n: int) -> str:
    if n <= 1:
        return _BAND_COLORS[3]
    lo = len(_BAND_COLORS) - n if n <= len(_BAND_COLORS) else 0
    return _BAND_COLORS[min(lo + i, len(_BAND_COLORS) - 1)]


def render_svg(grid: PseudospectrumGrid, levels, eigenvalues) -> str:
    """Render sublevel bands {smin < level} and eigenvalue dots as SVG."""
    region = grid.region
    span_re = region.re_max - region.re_min
    span_im = region.im_max - region.im_min
    height = int(round(WIDTH * span_im / span_re))

    def px(re: float) -> float:
        return (re - region.re_min) / span_re * WIDTH

    def py(im: float) -> float:
        return (region.im_max - im) / span_im * height

    cell_w = WIDTH / (region.nx - 1)
    cell_h = height / (region.ny - 1)
    xs = grid.region.re_points()
    ys = grid.region.im_points()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- resolventlab {__version__} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{height}" '
        f'viewBox="0 0 {WIDTH} {height}">',
        f'<rect width="{WIDTH}" height="{height}" fill="#ffffff"/>',
    ]
    ordered = sorted(set(float(e) for e in levels), reverse=True)
    for i, level in enumerate(ordered):
        parts.append(f'<g fill="{_band_color(i, len(ordered))}">')
        # each row's sublevel runs start at the +1 and end at the -1 steps of the padded mask
        below = np.pad(grid.smin < level, ((1, 1), (0, 0))).astype(np.int8)
        steps = np.diff(below, axis=0).T
        iy, start = np.nonzero(steps == 1)
        end = np.nonzero(steps == -1)[1]
        x0 = px(xs[start]) - 0.5 * cell_w
        x1 = px(xs[end - 1]) + 0.5 * cell_w
        y0 = py(ys[iy]) - 0.5 * cell_h
        parts.extend(f'<rect x="{a:.2f}" y="{c:.2f}" width="{b - a:.2f}" height="{cell_h:.2f}"/>'
                     for a, b, c in zip(x0.tolist(), x1.tolist(), y0.tolist()))
        parts.append("</g>")
    for lam in eigenvalues:
        lam = complex(lam)
        if region.re_min <= lam.real <= region.re_max and region.im_min <= lam.imag <= region.im_max:
            parts.append(f'<circle cx="{px(lam.real):.2f}" cy="{py(lam.imag):.2f}" '
                         f'r="3" fill="#000000"/>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
