"""Command-line interface.

Usage:
    resolventlab gap --matrix A.json --z 0+0i
    resolventlab classify2 --matrix A.json
    resolventlab certify-min --matrix A.json --z 0+0i --radius 0.05 --angles 720
    resolventlab growth --matrix A.json --z 0+0i --rmax 1e-3 --samples 16
    resolventlab perturb-order --matrix A.json --z 0+0i --angle 0 --radii 1e-2,1e-3,1e-4
    resolventlab path --matrix A.json --z 1.4+0i --eps 1.5 --out path.json
    resolventlab pspec scan --matrix A.json --region -2,2,-2,2 --nx 400 --ny 400 \
        --eps 0.97 --out grid.csv --svg fig.svg
    resolventlab examples build example-last --out b.json

Exit codes: 0 success, 1 domain error (no gap, stalled path, parameter
outside its mathematical domain, ...), 2 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, builders
from .errors import MatrixFormatError, ResolventLabError
from .gap import spectral_gap_report
from .growth import certify_local_min, growth_direction, verify_growth
from .matcore import spectrum
from .matio import load_matrix, parse_complex, save_matrix
from .path import build_path
from .perturb import cubic_order_sweep
from .pspec import Region, contours, scan
from .svgout import render_svg
from .twobytwo import classify


def _cpair(z) -> list:
    return [float(np.real(z)), float(np.imag(z))]


def _jsonify(value):
    if isinstance(value, complex):
        return _cpair(value)
    if isinstance(value, np.ndarray):
        return [_jsonify(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, (list, tuple)):
        return [_jsonify(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonify(v) for k, v in value.items()}
    return value


def _emit_json(obj, out=None) -> None:
    text = json.dumps(_jsonify(obj), indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_gap(args) -> int:
    a = load_matrix(args.matrix)
    report = spectral_gap_report(a, parse_complex(args.z))
    _emit_json({
        "z": report.z,
        "lambda_max": report.lambda_max,
        "a_z": report.a_z,
        "multiplicity": report.multiplicity,
        "gap_ratio": report.gap_ratio,
        "basis": [list(report.basis[:, j]) for j in range(report.multiplicity)],
    })
    return 0


def _cmd_classify2(args) -> int:
    cls = classify(load_matrix(args.matrix))
    _emit_json({
        "kind": cls.kind,
        "center": cls.center,
        "lambda": cls.lam,
        "k": cls.k,
        "gamma": cls.gamma,
        "phi": cls.phi,
        "critical_line_angle": cls.critical_line_angle,
    })
    return 0


def _cmd_certify_min(args) -> int:
    a = load_matrix(args.matrix)
    cert = certify_local_min(a, parse_complex(args.z), args.radius, args.angles)
    _emit_json({
        "is_min": cert.is_min,
        "margin": cert.margin,
        "norm_at_center": cert.norm_at_center,
    })
    return 0


def _cmd_growth(args) -> int:
    a = load_matrix(args.matrix)
    z = parse_complex(args.z)
    report = spectral_gap_report(a, z)
    cert = growth_direction(a, z, report)
    payload = {
        "z": z,
        "order": cert.order,
        "phi": cert.phi,
        "eta1": cert.eta1,
        "eta2": cert.eta2,
        "c2": cert.c2,
    }
    if args.rmax is not None and cert.phi is not None:
        ver = verify_growth(a, z, cert, args.rmax, args.samples)
        payload["fitted_c"] = ver.fitted_c
        payload["order_ok"] = ver.order_ok
    _emit_json(payload)
    return 0


def _parse_float_list(text: str, flag: str) -> list:
    try:
        return [float(v) for v in text.split(",") if v]
    except ValueError as exc:
        raise MatrixFormatError(f"{flag} must be comma-separated reals: {exc}") from exc


def _cmd_perturb_order(args) -> int:
    a = load_matrix(args.matrix)
    radii = _parse_float_list(args.radii, "--radii")
    report = cubic_order_sweep(a, parse_complex(args.z), args.angle, radii)
    lines = ["radius,gap_value,hausdorff_value"]
    for r, g, h in zip(report.norm_gap.radii, report.norm_gap.values, report.hausdorff.values):
        lines.append(f"{float(r)!r},{float(g)!r},{float(h)!r}")
    csv_text = "\n".join(lines) + "\n"
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    _emit_json({
        "gap_slope": report.norm_gap.slope,
        "hausdorff_slope": report.hausdorff.slope,
    })
    return 0


def _cmd_path(args) -> int:
    a = load_matrix(args.matrix)
    p = build_path(a, parse_complex(args.z), args.eps)
    _emit_json({
        "epsilon": p.epsilon,
        "floor": p.floor,
        "vertices": [complex(v) for v in p.vertices],
        "vertex_norms": list(p.vertex_norms),
        "terminal_eigenvalue": p.terminal_eigenvalue,
        "certified": p.certified,
    }, args.out)
    return 0


def _cmd_pspec_scan(args) -> int:
    a = load_matrix(args.matrix)
    bounds = _parse_float_list(args.region, "--region")
    if len(bounds) != 4:
        raise MatrixFormatError("--region must be re_min,re_max,im_min,im_max")
    region = Region(*bounds, args.nx, args.ny)
    grid = scan(a, region)
    if args.out:
        ims = [repr(im) for im in region.im_points().tolist()]
        rows = [f"{re},{im},{s!r}"
                for re, col in zip(map(repr, region.re_points().tolist()), grid.smin.tolist())
                for im, s in zip(ims, col)]
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(["re,im,smin", *rows]) + "\n")
    levels = _parse_float_list(args.eps, "--eps") if args.eps else []
    eigs = spectrum(a).eigenvalues
    if levels:
        polylines = contours(grid, levels)
        _emit_json({
            "contours": [
                {"level": lvl, "polylines": [[list(pt) for pt in line] for line in lines]}
                for lvl, lines in zip(levels, polylines)
            ],
        })
    if args.svg:
        with open(args.svg, "w", encoding="utf-8") as fh:
            fh.write(render_svg(grid, levels or [float(np.median(grid.smin))], eigs))
    return 0


_EXAMPLE_BUILDERS = {
    "type1": lambda args: builders.type1_matrix(
        args.variant, c=_opt_c(args.c), a=_opt_c(args.a), b=_opt_c(args.b)),
    "type2": lambda args: builders.type2_matrix(
        args.variant, c=_opt_c(args.c), sign=args.sign, a=_opt_c(args.a), b=_opt_c(args.b)),
    "example-last": lambda args: builders.example_last(),
    "cyclic": lambda args: builders.cyclic_matrix(_weights(args.weights)),
    "shift": lambda args: builders.truncated_shift(_weights(args.weights)),
    "multiplication": lambda args: builders.multiplication_example(args.n_grid, args.n_block),
    "connectivity": lambda args: builders.connectivity_example(args.n),
}


def _opt_c(text):
    return parse_complex(text) if text is not None else None


def _weights(text):
    if not text:
        raise MatrixFormatError("--weights is required for this example")
    return [parse_complex(tok) for tok in text.split(",") if tok]


def _cmd_examples_build(args) -> int:
    matrix = _EXAMPLE_BUILDERS[args.name](args)
    save_matrix(args.out, matrix)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="resolventlab",
        description="Resolvent-norm landscape analysis of dense complex matrices.")
    parser.add_argument("--version", action="version", version=f"resolventlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_matrix_z(p, with_z=True):
        p.add_argument("--matrix", required=True, help="matrix JSON file")
        if with_z:
            p.add_argument("--z", required=True, help="complex point, e.g. 0.5-1.2i")

    p = sub.add_parser("gap", help="verify the spectral gap of S(z) at a point")
    add_matrix_z(p)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("classify2", help="closed-form landscape classification of a 2x2 matrix")
    add_matrix_z(p, with_z=False)
    p.set_defaults(func=_cmd_classify2)

    p = sub.add_parser("certify-min", help="certify a local minimum by circle sampling")
    add_matrix_z(p)
    p.add_argument("--radius", type=float, required=True)
    p.add_argument("--angles", type=int, required=True)
    p.set_defaults(func=_cmd_certify_min)

    p = sub.add_parser("growth", help="growth certificate (and optional sampled verification)")
    add_matrix_z(p)
    p.add_argument("--rmax", type=float, default=None)
    p.add_argument("--samples", type=int, default=16)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("perturb-order", help="third-order sweep of the Schur operators")
    add_matrix_z(p)
    p.add_argument("--angle", type=float, required=True)
    p.add_argument("--radii", required=True, help="comma-separated decreasing radii")
    p.add_argument("--csv", default=None, help="write the per-radius CSV here instead of stdout")
    p.set_defaults(func=_cmd_perturb_order)

    p = sub.add_parser("path", help="polygonal ascent path inside the pseudospectrum")
    add_matrix_z(p)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_path)

    p_pspec = sub.add_parser("pspec", help="pseudospectrum grid operations")
    pspec_sub = p_pspec.add_subparsers(dest="pspec_command", required=True)
    p = pspec_sub.add_parser("scan", help="scan smin over a rectangular grid")
    add_matrix_z(p, with_z=False)
    p.add_argument("--region", required=True, help="re_min,re_max,im_min,im_max")
    p.add_argument("--nx", type=int, default=256)
    p.add_argument("--ny", type=int, default=256)
    p.add_argument("--eps", default=None, help="comma-separated epsilon levels")
    p.add_argument("--out", default=None, help="grid CSV output path")
    p.add_argument("--svg", default=None, help="SVG output path")
    p.set_defaults(func=_cmd_pspec_scan)

    p_ex = sub.add_parser("examples", help="build the bundled example matrices")
    ex_sub = p_ex.add_subparsers(dest="examples_command", required=True)
    p = ex_sub.add_parser("build", help="write an example matrix to a JSON file")
    p.add_argument("name", choices=sorted(_EXAMPLE_BUILDERS))
    p.add_argument("--out", required=True)
    p.add_argument("--variant", type=int, default=1)
    p.add_argument("--c", default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
    p.add_argument("--sign", type=int, default=1)
    p.add_argument("--weights", default=None)
    p.add_argument("--n-grid", type=int, default=64, dest="n_grid")
    p.add_argument("--n-block", type=int, default=8, dest="n_block")
    p.add_argument("--n", type=int, default=3)
    p.set_defaults(func=_cmd_examples_build)

    return parser


# flags whose values may start with '-' (negative bounds, complex literals);
# argparse would otherwise read the value as an unknown option
_VALUE_FLAGS = {"--region", "--z", "--weights", "--radii", "--angle",
                "--a", "--b", "--c", "--rmax", "--eps", "--radius"}


def _merge_leading_dash_values(argv):
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_FLAGS and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_merge_leading_dash_values(list(argv)))
    try:
        return args.func(args)
    except MatrixFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ResolventLabError, np.linalg.LinAlgError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
