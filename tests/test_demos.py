"""Every narrative demo runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import matchstream

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("0[1-5]_*.py"))
SRC = str(Path(matchstream.__file__).resolve().parent.parent)


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (SRC, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
