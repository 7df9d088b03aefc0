"""Smoke test of the experiment scripts in scripts/, run from the repository root."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def test_experiment_scripts_run(tmp_path):
    for script in ("reproduce_figure1.py", "reproduce_figure2.py"):
        svg = tmp_path / script.replace(".py", ".svg")
        done = _run(os.path.join("scripts", script), str(svg))
        assert done.returncode == 0, done.stderr
        assert svg.read_text().startswith("<?xml")
    done = _run(os.path.join("scripts", "order_sweep_demo.py"), "1")
    assert done.returncode == 0, done.stderr
