"""CLI subcommands: formats, exit codes, determinism."""

import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from resolventlab.cli import _build_parser, _merge_leading_dash_values, main
from resolventlab.matio import (
    format_complex,
    load_matrix,
    matrix_to_obj,
    obj_to_matrix,
    parse_complex,
    save_matrix,
)
from resolventlab.errors import MatrixFormatError


@pytest.fixture
def diag_file(tmp_path):
    path = tmp_path / "diag.json"
    save_matrix(path, np.diag([0.0 + 0j, 3.0]))
    return str(path)


@pytest.fixture
def example_last_file(tmp_path):
    path = tmp_path / "b.json"
    assert main(["examples", "build", "example-last", "--out", str(path)]) == 0
    return str(path)


class TestMatrixFormat:
    def test_round_trip(self, tmp_path):
        a = np.array([[1 + 2j, -0.5], [0.25j, 3]], dtype=complex)
        path = tmp_path / "m.json"
        save_matrix(path, a)
        assert np.array_equal(load_matrix(path), a)

    def test_file_schema(self, tmp_path):
        a = np.eye(2, dtype=complex)
        path = tmp_path / "m.json"
        save_matrix(path, a)
        obj = json.loads(path.read_text())
        assert obj["n"] == 2
        assert obj["entries"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]

    def test_rejects_wrong_length(self):
        with pytest.raises(MatrixFormatError):
            obj_to_matrix({"n": 2, "entries": [[1, 0]]})

    def test_rejects_missing_keys(self):
        with pytest.raises(MatrixFormatError):
            obj_to_matrix({"entries": []})

    def test_matrix_to_obj_row_major(self):
        a = np.array([[1, 2], [3, 4]], dtype=complex)
        assert matrix_to_obj(a)["entries"][1] == [2.0, 0.0]


class TestComplexLiterals:
    def test_basic_forms(self):
        assert parse_complex("1+2i") == 1 + 2j
        assert parse_complex("1.5-0.5i") == 1.5 - 0.5j
        assert parse_complex("2.5") == 2.5
        assert parse_complex("-3i") == -3j
        assert parse_complex("0+0i") == 0

    def test_round_trip_with_format(self):
        for z in (0j, 1 + 2j, -0.125 - 8j, 3.5 + 0j):
            assert parse_complex(format_complex(z)) == z

    def test_rejects_garbage(self):
        with pytest.raises(MatrixFormatError):
            parse_complex("1+2x")


class TestExitCodes:
    def test_unknown_flag_exits_two(self, diag_file):
        with pytest.raises(SystemExit) as exc:
            main(["gap", "--matrix", diag_file, "--z", "1+0i", "--bogus"])
        assert exc.value.code == 2

    def test_missing_file_is_two(self):
        assert main(["gap", "--matrix", "/nonexistent.json", "--z", "1+0i"]) == 2

    def test_bad_complex_literal_is_two(self, diag_file):
        assert main(["gap", "--matrix", diag_file, "--z", "oops"]) == 2

    def test_bad_region_is_two(self, diag_file):
        assert main(["pspec", "scan", "--matrix", diag_file,
                     "--region", "-1,1,-1", "--nx", "8", "--ny", "8"]) == 2
        assert main(["pspec", "scan", "--matrix", diag_file,
                     "--region", "a,b,c,d", "--nx", "8", "--ny", "8"]) == 2

    def test_bad_radii_is_two(self, diag_file):
        assert main(["perturb-order", "--matrix", diag_file, "--z", "1+0i",
                     "--angle", "0", "--radii", "zzz"]) == 2

    def test_domain_error_is_one(self, diag_file):
        # z on the spectrum: no gap report possible
        assert main(["gap", "--matrix", diag_file, "--z", "0+0i"]) == 1

    def test_path_outside_pseudospectrum_is_one(self, diag_file):
        assert main(["path", "--matrix", diag_file, "--z", "1.5+0i", "--eps", "0.4"]) == 1

    def test_success_is_zero(self, diag_file, capsys):
        assert main(["gap", "--matrix", diag_file, "--z", "1+0i"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["lambda_max"] == pytest.approx(1.0)
        assert payload["multiplicity"] == 1


class TestCommands:
    def test_classify2(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_matrix(path, np.array([[1, 2], [0, -1]], dtype=complex))
        assert main(["classify2", "--matrix", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "non-normal-saddle"
        assert payload["k"] == pytest.approx(6.0)

    def test_classify2_with_subnormal_entry(self, tmp_path, capsys):
        # np.linalg.det returned nan here, and classify raised OverflowError,
        # which main does not catch; eigenvalues 1 +/- 1e-155 count as double
        path = tmp_path / "m.json"
        save_matrix(path, np.array([[1, 1], [1e-310, 1]], dtype=complex))
        assert main(["classify2", "--matrix", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["kind"] == "double-eigenvalue-radial"

    def test_certify_min_on_example_last(self, example_last_file, capsys):
        assert main(["certify-min", "--matrix", example_last_file, "--z", "0+0i",
                     "--radius", "0.05", "--angles", "720"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_min"] is True
        assert payload["norm_at_center"] == pytest.approx(1.0, rel=1e-9)
        assert payload["margin"] > 0

    def test_growth_with_verification(self, diag_file, capsys):
        assert main(["growth", "--matrix", diag_file, "--z", "1+0i",
                     "--rmax", "0.2", "--samples", "8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["order"] == "first-order"
        assert payload["order_ok"] is True
        assert payload["fitted_c"] > 0

    def test_perturb_order_csv_and_summary(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        rng = np.random.default_rng(5)
        save_matrix(path, (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / 3)
        csv_path = tmp_path / "sweep.csv"
        code = main(["perturb-order", "--matrix", str(path), "--z", "2+2i",
                     "--angle", "0.4", "--radii", "1e-2,3e-3,1e-3,3e-4,1e-4",
                     "--csv", str(csv_path)])
        assert code == 0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "radius,gap_value,hausdorff_value"
        assert len(lines) == 6
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap_slope"] >= 2.7 or payload["gap_slope"] == math.inf

    def test_path_output_file(self, diag_file, tmp_path, capsys):
        out = tmp_path / "path.json"
        assert main(["path", "--matrix", diag_file, "--z", "1.4+0i",
                     "--eps", "1.5", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["terminal_eigenvalue"] == [0.0, 0.0]
        assert len(payload["vertices"]) == len(payload["vertex_norms"])
        norms = payload["vertex_norms"]
        assert all(b > a for a, b in zip(norms, norms[1:]))
        assert payload["certified"] is True

    def test_pspec_scan_csv_contours_svg(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        save_matrix(path, np.zeros((1, 1), dtype=complex))
        grid_csv = tmp_path / "grid.csv"
        svg = tmp_path / "out.svg"
        code = main(["pspec", "scan", "--matrix", str(path),
                     "--region", "-1,1,-1,1", "--nx", "41", "--ny", "41",
                     "--eps", "0.5", "--out", str(grid_csv), "--svg", str(svg)])
        assert code == 0
        lines = grid_csv.read_text().strip().splitlines()
        assert lines[0] == "re,im,smin"
        assert len(lines) == 1 + 41 * 41
        re0, im0, s0 = lines[1].split(",")
        assert float(re0) == -1.0 and float(im0) == -1.0
        assert float(s0) == pytest.approx(abs(-1 - 1j))
        payload = json.loads(capsys.readouterr().out)
        assert payload["contours"][0]["level"] == 0.5
        assert payload["contours"][0]["polylines"]
        text = svg.read_text()
        assert text.startswith('<?xml version="1.0"')
        assert "<circle" in text and "<rect" in text

    def test_examples_build_all_names(self, tmp_path):
        cases = [
            (["type1", "--variant", "1", "--c", "1+0i"], 2),
            (["type1", "--variant", "2", "--a", "1+0i", "--b", "2+0i"], 2),
            (["type2", "--variant", "2", "--a", "2i", "--b", "-1+0i"], 2),
            (["example-last"], 6),
            (["cyclic", "--weights", "1e6,1,1,1,1,1"], 6),
            (["shift", "--weights", "1,1,2,1,1"], 5),
            (["multiplication", "--n-grid", "8", "--n-block", "2"], 10),
            (["connectivity", "--n", "3"], 3),
        ]
        for args, n in cases:
            out = tmp_path / f"{args[0]}.json"
            assert main(["examples", "build", *args, "--out", str(out)]) == 0
            assert load_matrix(out).shape == (n, n)


def test_readme_commands_parse():
    # catches docs that still name a removed flag or subcommand
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = [shlex.split(line, comments=True)[1:]
                for line in text.replace("\\\n", " ").splitlines()
                if line.startswith("resolventlab ")]
    assert len(commands) >= 8
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(_merge_leading_dash_values(argv))
        except SystemExit:
            pytest.fail(f"README command does not parse: resolventlab {shlex.join(argv)}")


def test_figure_one_scenario(tmp_path, capsys):
    # end-to-end: build the example, certify the minimum, scan the window
    b_file = tmp_path / "b.json"
    assert main(["examples", "build", "example-last", "--out", str(b_file)]) == 0
    assert main(["certify-min", "--matrix", str(b_file), "--z", "0+0i",
                 "--radius", "0.05", "--angles", "720"]) == 0
    cert = json.loads(capsys.readouterr().out)
    assert cert["is_min"] is True
    assert cert["norm_at_center"] == pytest.approx(1.0, rel=1e-9)
    svg = tmp_path / "fig1.svg"
    assert main(["pspec", "scan", "--matrix", str(b_file),
                 "--region", "-2,2,-2,2", "--nx", "400", "--ny", "400",
                 "--eps", "0.97", "--svg", str(svg)]) == 0
    capsys.readouterr()
    text = svg.read_text()
    assert "<rect" in text and "<circle" in text
    # the origin is excluded at this level: no band rectangle covers the
    # SVG center point
    import re as _re
    cx, cy = 320.0, 320.0
    for match in _re.finditer(
            r'<rect x="([-\d.]+)" y="([-\d.]+)" width="([-\d.]+)" height="([-\d.]+)"', text):
        x, y, w, h = map(float, match.groups())
        assert not (x <= cx <= x + w and y <= cy <= y + h)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, example_last_file, tmp_path, capsys):
        args = ["certify-min", "--matrix", example_last_file, "--z", "0+0i",
                "--radius", "0.05", "--angles", "64"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_svg_identical_up_to_version_comment(self, tmp_path):
        path = tmp_path / "m.json"
        save_matrix(path, np.zeros((1, 1), dtype=complex))
        outs = []
        for name in ("a.svg", "b.svg"):
            svg = tmp_path / name
            assert main(["pspec", "scan", "--matrix", str(path),
                         "--region", "-1,1,-1,1", "--nx", "21", "--ny", "21",
                         "--eps", "0.5", "--svg", str(svg)]) == 0
            outs.append([ln for ln in svg.read_text().splitlines()
                         if not ln.startswith("<!--")])
        assert outs[0] == outs[1]
