import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"


def shift_tool(*paths):
    return subprocess.run([sys.executable, str(TESTS / "golden_shift.py"), *map(str, paths)],
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("name", ["apriori_bounded_rotation.json", "theorem_synthetic.json",
                                  "sup_estimate.json"])
def test_a_golden_against_itself(name):
    done = shift_tool(GOLDEN / name, GOLDEN / name)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].startswith("largest shift 0.000")


@pytest.mark.parametrize("moved, expected", [(4.0, 0), (6.0, 1)])
def test_a_moved_mean(tmp_path, moved, expected):
    # the limit is 4*sqrt(2) combined standard errors, about 5.66
    report = json.loads((GOLDEN / "apriori_linear.json").read_text(encoding="utf-8"))
    row = report["rows"][2]
    row["mean"] += moved * math.sqrt(2.0) * row["std_error"]
    copy = tmp_path / "moved.json"
    copy.write_text(json.dumps(report), encoding="utf-8")
    done = shift_tool(GOLDEN / "apriori_linear.json", copy)
    assert done.returncode == expected, done.stdout
    shifts = [float(line.rsplit("|", 1)[1]) for line in done.stdout.splitlines()[1:-1]]
    assert shifts == [0.0, 0.0, pytest.approx(moved), 0.0]
