"""Every example runs to completion: each asserts its own outcome, so
exit status 0 means the callback API it documents still works."""

import os
import pathlib
import subprocess
import sys

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_exits_cleanly(script, tmp_path):
    # trace_failover.py writes its qlog where its argument says.
    args = [str(tmp_path / "trace.qlog")] if script.stem == "trace_failover" \
        else []
    result = subprocess.run(
        [sys.executable, str(script)] + args, cwd=tmp_path, timeout=300,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    assert result.returncode == 0, result.stdout[-2000:]
