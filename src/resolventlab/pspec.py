"""Grid-based pseudospectrum computation, contours, and component analysis.

The epsilon-pseudospectrum is the strict sublevel set {smin(A - zI) <
epsilon}; :func:`scan` samples smin on a rectangular grid, :func:`contours`
extracts marching-squares isolines, and :func:`components` labels the
sublevel set (4-connected) and counts holes via the 8-connected complement.

:func:`contours` takes the marching-squares case, the NaN-corner mask and
the saddle-resolving centre average of every cell from numpy over the whole
grid; crossing nodes are integer edge ids whose points are interpolated as
arrays. Python runs only over the crossing cells, to chain their segments.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import EigenvalueOutsideRegion
from .matcore import ensure_matrix, smin_points, spectrum

FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]])
EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


@dataclass(frozen=True)
class Region:
    """Rectangular scan window with grid resolution."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("region must have re_min < re_max and im_min < im_max")
        if self.nx < 2 or self.ny < 2:
            raise ValueError("grid needs nx, ny >= 2")

    def re_points(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.nx)

    def im_points(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.ny)

    def mesh(self) -> np.ndarray:
        """nx x ny complex samples, index [ix, iy] at re[ix] + i im[iy]."""
        return self.re_points()[:, None] + 1j * self.im_points()[None, :]


@dataclass(frozen=True)
class PseudospectrumGrid:
    region: Region
    smin: np.ndarray

    def __post_init__(self):
        self.smin.setflags(write=False)


@dataclass(frozen=True)
class ComponentReport:
    epsilon: float
    n_components: int
    eigenvalues_per_component: tuple
    n_holes: tuple


def scan(a, region: Region) -> PseudospectrumGrid:
    """Sample smin(A - zI) over the region grid.

    Points where the SVD fails to converge are recorded as NaN and
    reported through a warning; with dense desk-scale matrices this does
    not happen in practice.
    """
    m = ensure_matrix(a)
    zz = region.mesh()
    try:
        values = smin_points(m, zz)
    except np.linalg.LinAlgError:
        values = np.empty(zz.shape)
        failures = 0
        for ix in range(region.nx):
            for iy in range(region.ny):
                try:
                    values[ix, iy] = smin_points(m, np.array([zz[ix, iy]]))[0]
                except np.linalg.LinAlgError:
                    values[ix, iy] = np.nan
                    failures += 1
        warnings.warn(f"SVD failed to converge at {failures} grid points (recorded as NaN)")
    return PseudospectrumGrid(region, values)


def membership(a, z: complex, epsilon: float) -> bool:
    """Strict test smin(A - zI) < epsilon."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return float(smin_points(a, [z])[0]) < epsilon


# Marching-squares segments per cell case, as pairs of the cell's bottom,
# top, left and right edges. Case bit k is set when corner k of (v00, v10,
# v11, v01) lies below the level. The saddle cases 5 and 10 are listed with
# the cell centre not below, and again as cases 16 and 17 with it below.
_SEGMENTS = tuple(tuple(("btlr".index(e1), "btlr".index(e2)) for e1, e2 in case.split())
                  for case in ("", "lb", "br", "lr", "rt", "lb rt", "bt", "lt", "tl", "tb",
                               "tl br", "tr", "rl", "rb", "bl", "", "lt br", "tr bl"))


def contours(grid: PseudospectrumGrid, levels) -> list:
    """Marching-squares isolines of smin at each level.

    Returns one list of polylines per level; each polyline is an (k, 2)
    array of (re, im) points, closed when the first and last points
    coincide and grid-boundary-terminated otherwise. Cells with a NaN
    corner are skipped.
    """
    f = grid.smin
    nx, ny = f.shape
    xs = grid.region.re_points()
    ys = grid.region.im_points()
    nan = np.isnan(f)
    nan_cell = nan[:-1, :-1] | nan[1:, :-1] | nan[1:, 1:] | nan[:-1, 1:]
    centre = 0.25 * (f[:-1, :-1] + f[1:, :-1] + f[:-1, 1:] + f[1:, 1:])
    # a node is a crossing on a unique grid edge, numbered in the order of
    # (kind, ix, iy) with the horizontal edges (ix, iy)-(ix + 1, iy) first,
    # then the vertical ones (ix, iy)-(ix, iy + 1); chaining is then exact
    n_horizontal = (nx - 1) * ny
    out = []
    for level in levels:
        if level <= 0:
            raise ValueError("contour levels must be positive")
        below = (f < level).astype(np.int8)
        case = below[:-1, :-1] | below[1:, :-1] << 1 | below[1:, 1:] << 2 | below[:-1, 1:] << 3
        centre_below = centre < level
        case[(case == 5) & centre_below] = 16
        case[(case == 10) & centre_below] = 17
        case[nan_cell] = 0
        ix, iy = np.nonzero((case != 0) & (case != 15))
        bottom = ix * ny + iy
        left = n_horizontal + ix * (ny - 1) + iy
        edges = np.stack([bottom, bottom + 1, left, left + ny - 1], axis=1)
        adjacency: dict = {}
        for nodes, c in zip(edges.tolist(), case[ix, iy].tolist()):
            for e1, e2 in _SEGMENTS[c]:
                n1, n2 = nodes[e1], nodes[e2]
                adjacency.setdefault(n1, []).append(n2)
                adjacency.setdefault(n2, []).append(n1)

        chains = []
        visited = set()
        open_ends = sorted(n for n, nbrs in adjacency.items() if len(nbrs) == 1)
        for start in open_ends + sorted(adjacency):
            if start in visited:
                continue
            chain = [start]
            visited.add(start)
            while True:
                nbrs = adjacency[chain[-1]]
                nxt = next((n for n in nbrs if n not in visited), None)
                if nxt is None:
                    if len(chain) > 2:
                        chain.extend(n for n in nbrs if n == start)   # closed loop
                    break
                chain.append(nxt)
                visited.add(nxt)
            chains.append(chain)

        ids = np.array([n for chain in chains for n in chain], dtype=int)
        horizontal = ids < n_horizontal
        i0 = np.where(horizontal, ids // ny, (ids - n_horizontal) // (ny - 1))
        j0 = np.where(horizontal, ids % ny, (ids - n_horizontal) % (ny - 1))
        i1 = i0 + horizontal
        j1 = j0 + ~horizontal
        t = (level - f[i0, j0]) / (f[i1, j1] - f[i0, j0])
        points = np.stack([np.where(horizontal, xs[i0] + t * (xs[i1] - xs[i0]), xs[i0]),
                           np.where(horizontal, ys[j0], ys[j0] + t * (ys[j1] - ys[j0]))], axis=1)
        out.append(np.split(points, np.cumsum([len(c) for c in chains])[:-1]) if chains else [])
    return out


def components(a, grid: PseudospectrumGrid, epsilon: float) -> ComponentReport:
    """Label the sublevel set and assign eigenvalues and holes per component.

    Cells use 4-connectivity; the complement uses 8-connectivity so that
    hole counting avoids the checkerboard paradox. A hole is a complement
    component that does not touch the region boundary; it is attributed to
    the sublevel component surrounding it (modal neighboring label).
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    m = ensure_matrix(a)
    mask = grid.smin < epsilon
    labels, n_comp = ndimage.label(mask, structure=FOUR_CONNECTED)

    spec = spectrum(m)
    region = grid.region
    dre = (region.re_max - region.re_min) / (region.nx - 1)
    dim = (region.im_max - region.im_min) / (region.ny - 1)
    eig_lists = [[] for _ in range(n_comp)]
    for lam in spec.eigenvalues:
        ix = round((lam.real - region.re_min) / dre)
        iy = round((lam.imag - region.im_min) / dim)
        if not (0 <= ix < region.nx and 0 <= iy < region.ny):
            warnings.warn(f"eigenvalue {lam} lies outside the scanned region",
                          EigenvalueOutsideRegion)
            continue
        label = labels[ix, iy]
        if label == 0:
            # coarse grids can park the nearest cell just outside the mask
            neighborhood = labels[max(ix - 1, 0):ix + 2, max(iy - 1, 0):iy + 2]
            nonzero = neighborhood[neighborhood > 0]
            if nonzero.size == 0:
                warnings.warn(f"eigenvalue {lam} not resolved on the grid",
                              EigenvalueOutsideRegion)
                continue
            label = int(nonzero[0])
        eig_lists[label - 1].append(complex(lam))

    comp_labels, n_holes_total = ndimage.label(~mask, structure=EIGHT_CONNECTED)
    boundary = set()
    for edge in (comp_labels[0, :], comp_labels[-1, :], comp_labels[:, 0], comp_labels[:, -1]):
        boundary.update(int(v) for v in np.unique(edge) if v)
    holes = [0] * n_comp
    for hole_label in range(1, n_holes_total + 1):
        if hole_label in boundary:
            continue
        hole_mask = comp_labels == hole_label
        ring = ndimage.binary_dilation(hole_mask, structure=EIGHT_CONNECTED) & mask
        ring_labels = labels[ring]
        if ring_labels.size:
            owner = int(np.bincount(ring_labels).argmax())
            if owner > 0:
                holes[owner - 1] += 1
    return ComponentReport(float(epsilon), int(n_comp),
                           tuple(tuple(e) for e in eig_lists), tuple(holes))
