"""How far each Monte Carlo row of a report moved between two versions.

    python tests/golden_shift.py OLD.json NEW.json

Reads two report JSONs of the same command (``verify apriori``,
``verify theorem`` or ``martingale estimate-sup``) and prints, for each
row, the old and new mean and standard error and the shift
|new mean - old mean| / sqrt(old SE^2 + new SE^2) in combined standard
errors. Two independent estimates of one mean differ by that many
combined SEs with the law of a standard normal's absolute value, so a
re-pin that changes only the random draws should keep every row well
within ``LIMIT`` = 4*sqrt(2). Exits 1 if some row moves further (a
shift with zero combined SE counts as infinite unless the means are
equal) or if the reports do not have the same rows, 2 on a usage
error, and 0 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

LIMIT = 4.0 * math.sqrt(2.0)


def report_rows(report) -> list:
    """(label, mean, std_error) of each estimate of a report."""
    rows = report["rows"] if "rows" in report else [report["estimate"]]
    out = []
    for index, row in enumerate(rows):
        label = row.get("h", row.get("system", index))
        out.append((f"{label}", row["mean"], row["std_error"]))
    return out


def shift(old_mean, old_se, new_mean, new_se) -> float:
    """|new - old| in combined standard errors."""
    if new_mean == old_mean:
        return 0.0
    combined = math.hypot(old_se, new_se)
    return abs(new_mean - old_mean) / combined if combined > 0.0 else math.inf


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: python tests/golden_shift.py OLD.json NEW.json", file=sys.stderr)
        return 2
    old, new = (report_rows(json.loads(Path(p).read_text(encoding="utf-8"))) for p in argv)
    if [label for label, _, _ in old] != [label for label, _, _ in new]:
        print(f"the reports have different rows: {[r[0] for r in old]} and "
              f"{[r[0] for r in new]}", file=sys.stderr)
        return 1
    print("row | old mean | new mean | old SE | new SE | shift (combined SE)")
    worst = 0.0
    for (label, old_mean, old_se), (_, new_mean, new_se) in zip(old, new):
        moved = shift(old_mean, old_se, new_mean, new_se)
        worst = max(worst, moved)
        print(f"{label} | {old_mean!r} | {new_mean!r} | {old_se!r} | {new_se!r} | {moved:.3f}")
    print(f"largest shift {worst:.3f} (limit {LIMIT:.3f})")
    return 0 if worst <= LIMIT else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
