"""Determinism guard of the benchmark.

Runs a small traced configuration of each workload twice, in fresh
processes with different hash seeds, and requires the exact counts and the
SHA-256 of the concatenated standard output to repeat bit for bit.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent.parent / "run.py"

# counts that a later change must reproduce exactly for the same seed
EXACT = ["decompose.terms", "decompose.split_noncentrosymmetric.calls", "faces.candidates",
         "faces.kept", "cli.stdout_bytes", "stdout_sha256"]
# the count that shows each workload really ran its layer
EXERCISED = {
    "stoch-decompose": "decompose.terms",
    "centro-decompose": "decompose.split_noncentrosymmetric.calls",
    "census": "faces.candidates",
}


def _small_run(workload: str, hash_seed: int):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "11",
         "--seconds", "0", "--trace", "1", "--small"],
        capture_output=True, text=True, env=env, timeout=600, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    counts = json.loads(next(line for line in lines if line.startswith("counts "))[7:])
    return result, counts


@pytest.mark.parametrize("workload", sorted(EXERCISED))
def test_exact_counts_repeat(workload):
    first_result, first = _small_run(workload, hash_seed=1)
    second_result, second = _small_run(workload, hash_seed=2)
    assert first_result["correct"] and second_result["correct"]
    assert first[EXERCISED[workload]] > 0
    for key in EXACT:
        assert first[key] == second[key], key
    assert first == second
