"""Pinned contour polylines, SVG bands and grid CSV on exact inputs.

The grids are polynomial fields with small dyadic coefficients, sampled on
dyadic nodes (linspace over [-1, 1] with 2^k + 1 points), so every grid
value is exact and the expected output is the same on any IEEE host. The
expected polylines are stored as ``float.hex`` strings in
``data/pspec_pinned.json``, in output order, together with the SVG of each
grid; they pin marching-squares case handling (saddles, NaN cells, values
tied to the level), polyline order and SVG run order byte for byte.

Regenerate the data only for an intended change of output:
``PYTHONPATH=src python tests/test_pspec_pinned.py``.
"""

import json
import os

import numpy as np
import pytest

from resolventlab.cli import main
from resolventlab.matio import save_matrix
from resolventlab.pspec import PseudospectrumGrid, Region, contours, scan
from resolventlab.svgout import render_svg

DATA = os.path.join(os.path.dirname(__file__), "data", "pspec_pinned.json")
EIGENVALUES = [0.25 + 0.25j, 5.0 + 0j]   # one marker inside the window, one outside
SADDLE_LEVELS = [1 + 2.0 ** -12, 1 - 2.0 ** -12]


def _bowl(x, y):
    # not symmetric under x <-> y, so a transposed grid cannot pass
    return 1 + x * x + 0.5 * y * y + x / 8


def _saddle(sign):
    # saddle centred in the cell [0, 1/16]^2 of a 33 x 33 grid on [-1, 1]^2:
    # corner values 1 +- 1/1024 (+ x^3/8), centre average 1 + 2^-16, so the
    # two SADDLE_LEVELS give the centre below and above the level
    return lambda x, y: 1 + sign * (x - 1 / 32) * (y - 1 / 32) + x ** 3 / 8


def _grid(field, region, nan_nodes=()):
    x = region.re_points()[:, None]
    y = region.im_points()[None, :]
    values = np.array(field(x, y), dtype=float)
    for ix, iy in nan_nodes:
        values[ix, iy] = np.nan
    return PseudospectrumGrid(region, values)


SQUARE = Region(-1.0, 1.0, -1.0, 1.0, 33, 33)
CASES = {
    # closed loop (1.3), boundary-terminated arcs (2.2) and a level equal to
    # the grid value at (0.5, 0) (1.3125), three levels in one call
    "bowl": (lambda: _grid(_bowl, SQUARE), [1.3, 2.2, 1.3125]),
    # NaN corners: one on the loop, which opens it, and one inside it
    "bowl_nan": (lambda: _grid(_bowl, SQUARE, [(24, 20), (16, 16)]), [1.3]),
    # the centre cell is marching-squares case 10, then case 5
    "saddle10": (lambda: _grid(_saddle(1), SQUARE), SADDLE_LEVELS),
    "saddle5": (lambda: _grid(_saddle(-1), SQUARE), SADDLE_LEVELS),
    # nx != ny
    "wide": (lambda: _grid(_bowl, Region(-1.0, 1.0, -0.5, 0.5, 33, 17)), [1.3, 1.9]),
}


def _polyline_text(polylines) -> list:
    return [[" ".join(f"{x.hex()},{y.hex()}" for x, y in line.tolist()) for line in lines]
            for lines in polylines]


def _svg_lines(grid, levels) -> list:
    return [ln for ln in render_svg(grid, levels, EIGENVALUES).splitlines()
            if not ln.startswith("<!--")]


def _outputs(name) -> dict:
    make, levels = CASES[name]
    grid = make()
    return {"polylines": _polyline_text(contours(grid, levels)),
            "svg": _svg_lines(grid, levels)}


@pytest.fixture(scope="module")
def pinned():
    with open(DATA, encoding="utf-8") as fh:
        return json.load(fh)


def test_saddle_cells_have_the_intended_cases():
    for name, case in (("saddle10", 10), ("saddle5", 5)):
        f = CASES[name][0]().smin
        v00, v10, v01, v11 = f[16, 16], f[17, 16], f[16, 17], f[17, 17]
        centre = 0.25 * (v00 + v10 + v01 + v11)
        for level, centre_below in zip(SADDLE_LEVELS, (True, False)):
            idx = (v00 < level) | (v10 < level) << 1 | (v11 < level) << 2 | (v01 < level) << 3
            assert idx == case
            assert (centre < level) == centre_below


@pytest.mark.parametrize("name", sorted(CASES))
def test_contours_match_pinned_polylines(name, pinned):
    make, levels = CASES[name]
    polylines = contours(make(), levels)
    for lines in polylines:
        for line in lines:
            assert line.dtype == np.float64 and line.ndim == 2 and line.shape[1] == 2
    assert _polyline_text(polylines) == pinned[name]["polylines"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_svg_matches_pinned_lines(name, pinned):
    assert _outputs(name)["svg"] == pinned[name]["svg"]


def test_grid_csv_matches_per_cell_repr(tmp_path, capsys):
    a = np.array([[0.5, 1.0], [0.0, -0.25j]], dtype=complex)
    path = tmp_path / "m.json"
    csv_path = tmp_path / "grid.csv"
    save_matrix(path, a)
    region = Region(-1.0, 1.25, -0.75, 0.5, 7, 5)
    assert main(["pspec", "scan", "--matrix", str(path), "--region", "-1,1.25,-0.75,0.5",
                 "--nx", "7", "--ny", "5", "--out", str(csv_path)]) == 0
    capsys.readouterr()
    smin = scan(a, region).smin
    want = ["re,im,smin"] + [
        f"{float(re)!r},{float(im)!r},{float(smin[ix, iy])!r}"
        for ix, re in enumerate(region.re_points())
        for iy, im in enumerate(region.im_points())]
    assert csv_path.read_text() == "\n".join(want) + "\n"


if __name__ == "__main__":
    os.makedirs(os.path.dirname(DATA), exist_ok=True)
    with open(DATA, "w", encoding="utf-8") as fh:
        json.dump({name: _outputs(name) for name in sorted(CASES)}, fh, indent=1)
        fh.write("\n")
