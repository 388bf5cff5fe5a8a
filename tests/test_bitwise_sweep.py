"""tools/bitwise_sweep.py: reruns in fresh processes print identical
hashes, and a case run alone hashes as it does after the other cases."""

import subprocess
import sys
from pathlib import Path

import pytest

SWEEP = Path(__file__).resolve().parent.parent / "tools" / "bitwise_sweep.py"


def _python(*args):
    proc = subprocess.run([sys.executable, "-W", "error", *args], capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture(scope="module")
def sweep_runs():
    return [_python(str(SWEEP)) for _ in range(2)]


def test_sweep_prints_one_distinct_hash_per_case(sweep_runs):
    lines = sweep_runs[0].splitlines()
    cases = {tuple(line.split()[:3]) for line in lines}
    assert len(lines) == len(cases) == 16  # 4 policies x 2 tasks x 2 dtypes
    assert len({line.split()[3] for line in lines}) == 16


def test_sweep_reruns_byte_identically_in_fresh_processes(sweep_runs):
    assert sweep_runs[0] == sweep_runs[1]


def test_a_case_run_alone_hashes_as_after_the_other_cases(sweep_runs):
    # The sweep's last case trains after fifteen others in one process, with
    # other policies, tasks and dtypes; alone in a fresh process it must
    # give the same bytes.
    last = sweep_runs[0].splitlines()[-1].split()
    code = (f"import runpy; case = runpy.run_path({str(SWEEP)!r})['case_digest']; "
            f"print(case({last[0]!r}, {last[1]!r}, {last[2]!r}))")
    assert _python("-c", code).strip() == last[3]

