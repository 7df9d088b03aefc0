"""Checks of resolventlab's outputs against computations made apart from it.

Every reference here is the benchmark's own: numpy's SVD and eigenvalues
called directly, the closed-form smallest singular value of a 2x2 matrix,
the distance to the spectrum of a normal matrix, mpmath at 40 digits, and
scipy.ndimage labels for holes. A check raises :class:`CheckFailed` with
the measured quantities when an output disagrees; it returns nothing
otherwise. No function here imports resolventlab.
"""

from __future__ import annotations

import io
import math
import xml.etree.ElementTree as ET

import numpy as np
from scipy import ndimage

EIGHT_CONNECTED = np.ones((3, 3), dtype=int)

# relative agreement of lambda_max with smin^-2 (plus the SVD's own error,
# see check_gap_report), and of a(z) with the next singular value's
# sigma^-2 (the a(z) bound is what eigh of R^H R misses close to the spectrum)
LAMBDA_RTOL = 1e-10
A_Z_RTOL = 1e-6
MIN_CUBIC_SLOPE = 2.7
SEGMENT_POINTS = 129


class CheckFailed(Exception):
    """An output of the program disagrees with its independent reference."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def smin_svd(a, zs) -> np.ndarray:
    """Smallest singular value of A - zI for each z, from numpy's batched SVD."""
    a = np.asarray(a, dtype=complex)
    zs = np.asarray(zs, dtype=complex)
    flat = zs.ravel()
    eye = np.eye(a.shape[0])
    out = np.empty(flat.size)
    step = max(1, 200_000 // a.size)
    for start in range(0, flat.size, step):
        block = flat[start:start + step]
        stack = a[None, :, :] - block[:, None, None] * eye
        out[start:start + step] = np.linalg.svd(stack, compute_uv=False)[:, -1]
    return out.reshape(zs.shape)


def singular_values(a, z: complex) -> np.ndarray:
    """All singular values of A - zI, descending."""
    a = np.asarray(a, dtype=complex)
    return np.linalg.svd(a - z * np.eye(a.shape[0]), compute_uv=False)


# ---------------------------------------------------------------- landscape

def parse_grid_csv(text: str, nx: int, ny: int) -> np.ndarray:
    """The ``re,im,smin`` CSV as an (nx, ny, 3) array, row-major in (ix, iy)."""
    header, _, body = text.partition("\n")
    require(header == "re,im,smin", f"grid CSV header is {header!r}")
    values = np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)
    require(values.shape == (nx * ny, 3), f"grid CSV has shape {values.shape}, expected ({nx * ny}, 3)")
    return values.reshape(nx, ny, 3)


def check_grid_layout(grid: np.ndarray, region) -> None:
    """Grid coordinates are the region's linspace samples, re outer, im inner."""
    re_min, re_max, im_min, im_max = region
    nx, ny = grid.shape[:2]
    res = np.linspace(re_min, re_max, nx)
    ims = np.linspace(im_min, im_max, ny)
    require(np.array_equal(grid[:, :, 0], np.broadcast_to(res[:, None], (nx, ny))),
            "grid CSV real parts are not the region's samples")
    require(np.array_equal(grid[:, :, 1], np.broadcast_to(ims[None, :], (nx, ny))),
            "grid CSV imaginary parts are not the region's samples")


def smin_2x2_blocks(a, zs) -> np.ndarray:
    """min over the 2x2 diagonal blocks of the closed-form smallest singular value.

    For M = B - zI, sigma_min = |det M| / sigma_max with
    sigma_max^2 = (F + sqrt(F^2 - 4 |det M|^2)) / 2 and F = ||M||_F^2, which
    has no cancellation. ``a`` must be block diagonal with 2x2 blocks.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    mask = np.kron(np.eye(n // 2), np.ones((2, 2))).astype(bool)
    require(n % 2 == 0 and not np.any(a[~mask]), "matrix is not 2x2 block diagonal")
    zs = np.asarray(zs, dtype=complex)
    out = np.full(zs.shape, np.inf)
    for k in range(0, n, 2):
        p, q, r, s = a[k, k] - zs, a[k, k + 1], a[k + 1, k], a[k + 1, k + 1] - zs
        det = np.abs(p * s - q * r)
        fro = np.abs(p) ** 2 + abs(q) ** 2 + abs(r) ** 2 + np.abs(s) ** 2
        smax = np.sqrt(0.5 * (fro + np.sqrt(np.maximum(fro * fro - 4.0 * det * det, 0.0))))
        out = np.minimum(out, det / smax)
    return out


def smin_normal(a, zs) -> np.ndarray:
    """Distance to the nearest diagonal entry; smin for a diagonal matrix."""
    d = np.diag(np.asarray(a, dtype=complex))
    require(np.count_nonzero(np.asarray(a) - np.diag(d)) == 0, "matrix is not diagonal")
    zs = np.asarray(zs, dtype=complex)
    return np.abs(zs[..., None] - d).min(axis=-1)


def smin_mpmath(a, z: complex, digits: int = 40) -> float:
    """Smallest singular value of A - zI computed by mpmath at ``digits`` digits."""
    import mpmath

    with mpmath.workdps(digits):
        n = a.shape[0]
        m = mpmath.matrix(n, n)
        for i in range(n):
            for j in range(n):
                m[i, j] = mpmath.mpc(complex(a[i, j])) - (mpmath.mpc(complex(z)) if i == j else 0)
        sv = mpmath.svd_c(m, compute_uv=False)
        return float(min(sv[i] for i in range(n)))


def check_values(values: np.ndarray, reference: np.ndarray, *, rtol: float = 0.0,
                 atol: float = 0.0, label: str) -> float:
    """|value - reference| <= atol + rtol |reference| everywhere; returns the worst error."""
    err = np.abs(np.asarray(values) - np.asarray(reference))
    allowed = atol + rtol * np.abs(reference)
    worst = int(np.argmax(err - allowed))
    require(np.all(err <= allowed),
            f"{label}: value {np.ravel(values)[worst]!r} against reference "
            f"{np.ravel(reference)[worst]!r} (allowed error {np.ravel(allowed)[worst]:.3e})")
    return float(err.max())


def check_contours(a, contour_json: dict, levels, h: float) -> float:
    """Every contour point p has |smin(p) - level| <= h.

    smin is 1-Lipschitz, and marching squares puts p on a grid edge of
    length at most h whose end values bracket the level, so this holds
    for any correct contour. Returns the worst |smin(p) - level|.
    """
    entries = contour_json["contours"]
    require([e["level"] for e in entries] == list(levels),
            f"contour levels {[e['level'] for e in entries]} != {list(levels)}")
    worst = 0.0
    for entry in entries:
        pts = [p for line in entry["polylines"] for p in line]
        require(len(pts) > 0, f"no contour at level {entry['level']}")
        zs = np.array([complex(re, im) for re, im in pts])
        err = np.abs(smin_svd(a, zs) - entry["level"])
        k = int(np.argmax(err))
        require(err[k] <= h, f"contour point {zs[k]} has |smin - {entry['level']}| = "
                             f"{err[k]:.3e} > h = {h:.3e}")
        worst = max(worst, float(err[k]))
    return worst


def check_in_hole(smin: np.ndarray, region, point: complex, epsilon: float) -> None:
    """``point`` lies outside {smin < eps} in a bounded complement component."""
    re_min, re_max, im_min, im_max = region
    nx, ny = smin.shape
    ix = int(round((point.real - re_min) / (re_max - re_min) * (nx - 1)))
    iy = int(round((point.imag - im_min) / (im_max - im_min) * (ny - 1)))
    outside = ~(smin < epsilon)
    require(bool(outside[ix, iy]), f"grid cell at {point} lies inside the {epsilon}-set")
    labels, _ = ndimage.label(outside, structure=EIGHT_CONNECTED)
    own = labels[ix, iy]
    edge = np.concatenate([labels[0, :], labels[-1, :], labels[:, 0], labels[:, -1]])
    require(own not in edge, f"{point} is not in a hole of the {epsilon}-set")


def check_components(report, n_components: int, n_holes: tuple, eigs_per_component: tuple) -> None:
    """A ComponentReport has the expected component, hole and eigenvalue counts."""
    require(report.n_components == n_components,
            f"eps={report.epsilon}: {report.n_components} components, expected {n_components}")
    require(tuple(report.n_holes) == tuple(n_holes),
            f"eps={report.epsilon}: holes {report.n_holes}, expected {n_holes}")
    counts = tuple(sorted(len(e) for e in report.eigenvalues_per_component))
    require(counts == tuple(sorted(eigs_per_component)),
            f"eps={report.epsilon}: eigenvalues per component {counts}, "
            f"expected {eigs_per_component}")


def check_svg(text: str, a, region) -> None:
    """The SVG parses as XML and has one marker per eigenvalue in the window."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    re_min, re_max, im_min, im_max = region
    eigs = np.linalg.eigvals(np.asarray(a, dtype=complex))
    inside = int(np.sum((eigs.real >= re_min) & (eigs.real <= re_max)
                        & (eigs.imag >= im_min) & (eigs.imag <= im_max)))
    markers = len(root.findall("{http://www.w3.org/2000/svg}circle"))
    require(markers == inside, f"SVG has {markers} eigenvalue markers, {inside} eigenvalues in window")


# ---------------------------------------------------------------- certify

def check_gap_report(a, z: complex, report) -> None:
    """A gap report's lambda_max = smin^-2, a(z) = sigma^-2 of the next singular
    value, and its basis spans the top eigenspace.

    The top eigenvectors of S(z) = R^H R are the left singular vectors u of
    M = A - zI for smin, so ||M^H u|| = smin.
    """
    lambda_max, a_z, multiplicity = report.lambda_max, report.a_z, report.multiplicity
    a = np.asarray(a, dtype=complex)
    sv = singular_values(a, z)
    n = sv.size
    lam_ref = float(sv[-1]) ** -2.0
    top = int(np.sum(sv ** -2.0 >= lam_ref * (1.0 - 1e-9)))
    require(multiplicity == top, f"multiplicity {multiplicity}, SVD gives {top} at z={z}")
    az_ref = float(sv[n - 1 - multiplicity]) ** -2.0 if multiplicity < n else 0.0
    require(abs(a_z - az_ref) <= A_Z_RTOL * az_ref,
            f"a(z) {a_z!r} against sigma^-2 {az_ref!r} at z={z} "
            f"(relative error {abs(a_z - az_ref) / az_ref:.3e})")
    # the SVD's smin carries an absolute error of a few eps * sigma_max, which
    # near the spectrum is the larger part of what lambda_max may differ by
    lam_rtol = LAMBDA_RTOL + 8.0 * np.finfo(float).eps * float(sv[0] / sv[-1])
    require(abs(lambda_max - lam_ref) <= lam_rtol * lam_ref,
            f"lambda_max {lambda_max!r} against smin^-2 {lam_ref!r} at z={z}")
    b = np.asarray(report.basis)
    require(np.allclose(b.conj().T @ b, np.eye(multiplicity), atol=1e-10),
            "eigenspace basis is not orthonormal")
    m_h = (a - z * np.eye(n)).conj().T
    resid = np.linalg.norm(m_h @ b, axis=0)
    require(np.all(np.abs(resid - sv[-1]) <= 1e-8 * sv[0]),
            f"basis is not the smallest singular subspace (||M^H b|| = {resid}, smin = {sv[-1]})")


def check_growth_direction(a, z: complex, phi: float, dist: float, samples: int = 8) -> None:
    """||R|| rises strictly along e^{i phi} for t in (0, 1e-3 dist], by the SVD."""
    base = 1.0 / singular_values(a, z)[-1]
    ts = 1e-3 * dist * np.arange(1, samples + 1) / samples
    norms = 1.0 / smin_svd(a, z + ts * np.exp(1j * phi))
    k = int(np.argmin(norms))
    require(np.all(norms > base), f"||R|| = {norms[k]!r} at t={ts[k]:.3e} along phi={phi} "
                                  f"is not above ||R(z)|| = {base!r}")


def check_slopes(gap_slope: float, hausdorff_slope: float) -> None:
    require(gap_slope >= MIN_CUBIC_SLOPE and hausdorff_slope >= MIN_CUBIC_SLOPE,
            f"cubic-order slopes {gap_slope:.3f}, {hausdorff_slope:.3f} below {MIN_CUBIC_SLOPE}")


def check_circle_above(a, z: complex, radius: float, n_angles: int) -> None:
    """Every sample on the circles of radius r and r/2 has ||R|| above ||R(z)||."""
    base = 1.0 / singular_values(a, z)[-1]
    ring = np.exp(2j * math.pi * np.arange(n_angles) / n_angles)
    pts = np.concatenate([z + radius * ring, z + 0.5 * radius * ring])
    norms = 1.0 / smin_svd(a, pts)
    k = int(np.argmin(norms))
    require(np.all(norms > base), f"circle sample {pts[k]} has ||R|| = {norms[k]!r} "
                                  f"<= ||R(z)|| = {base!r}")


# ---------------------------------------------------------------- paths

def check_path(a, z: complex, epsilon: float, vertices, vertex_norms, terminal) -> None:
    """The path starts at z, its norms (checked by the SVD) rise strictly, and it
    ends within eps/2 of an eigenvalue. Independent of ``validate_path``."""
    a = np.asarray(a, dtype=complex)
    v = np.asarray(vertices, dtype=complex)
    norms = np.asarray(vertex_norms, dtype=float)
    require(v.size >= 1 and v[0] == z, f"path starts at {v[0] if v.size else None}, not {z}")
    require(norms.size == v.size, "one norm per vertex expected")
    require(bool(np.all(np.diff(norms) > 0)), "vertex norms do not increase strictly")
    check_values(norms, 1.0 / smin_svd(a, v), rtol=1e-10, label="vertex norm")
    eigs = np.linalg.eigvals(a)
    d_end = float(np.abs(eigs - v[-1]).min())
    require(d_end < 0.5 * epsilon, f"path ends {d_end:.3e} from the spectrum, eps/2 = {0.5 * epsilon:.3e}")
    require(float(np.abs(eigs - terminal).min()) <= 1e-8 * (1 + abs(terminal)),
            f"terminal eigenvalue {terminal} is not an eigenvalue")


def check_segments(a, epsilon: float, vertices, points_per_segment: int = SEGMENT_POINTS) -> float:
    """Every segment of the path lies in {smin < eps}.

    With samples h apart, smin <= max(sampled smin) + h/2 on the whole
    segment, since smin is 1-Lipschitz. Returns the smallest margin
    eps - (max smin + h/2) over the segments.
    """
    v = np.asarray(vertices, dtype=complex)
    margin = math.inf
    ts = np.linspace(0.0, 1.0, points_per_segment)
    for x, y in zip(v[:-1], v[1:]):
        smins = smin_svd(a, x + ts * (y - x))
        h = abs(y - x) / (points_per_segment - 1)
        seg_margin = epsilon - (float(smins.max()) + 0.5 * h)
        require(seg_margin > 0.0, f"segment {x} -> {y} is not proven inside the {epsilon:.6e}-set "
                                  f"(max smin {smins.max():.6e}, h/2 {0.5 * h:.3e})")
        margin = min(margin, seg_margin)
    return margin
