"""``tools/import_time.py`` with the source tree timed against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_timed_against_itself_reports_both_sides():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "import_time.py"), src, src, "citenet.cli",
         "--pairs", "2"],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "import citenet.cli: 2 pairs, parent and change alternating first"
    for line, side in zip(lines[1:3], ("parent", "change")):
        match = re.fullmatch(side + r" +median +([\d.]+) ms  quartiles ([\d.]+)-([\d.]+) ms", line)
        assert match, line
        q1, median, q3 = map(float, match.group(2, 1, 3))
        assert 0 < q1 <= median <= q3
    assert re.fullmatch(r"change faster in [012] of 2 pairs", lines[3]), lines[3]
