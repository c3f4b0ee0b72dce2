"""A short run of each benchmark workload: every command's output must
agree with the benchmark's own oracle, which never imports quivsheaf, and
no command may fail.  The benchmark is only run, never changed; its output
goes to .perfbench/ at the root of the checkout."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["audit", "sheaf", "functors"])
def test_benchmark_workload_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0.1", "--trace", "1"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"], run.stderr
    assert result["attempted"] > 0 and result["failed"] == 0, run.stderr
