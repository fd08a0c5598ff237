"""Every demo script runs to completion against the package under test."""

import glob
import os
import subprocess
import sys

import pytest

import qshape

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(qshape.__file__)))
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_DEMOS = sorted(glob.glob(os.path.join(_ROOT, "demos", "*.py")))


def test_demos_are_found():
    assert _DEMOS


@pytest.mark.parametrize("path", _DEMOS, ids=[os.path.basename(p) for p in _DEMOS])
def test_demo_exits_0(path):
    proc = subprocess.run([sys.executable, path], env=dict(os.environ, PYTHONPATH=_SRC),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
