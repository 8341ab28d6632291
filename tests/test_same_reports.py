"""``tools/same_reports.py`` on the journal-panel workload, with the
source tree compared against itself: every command must come out
byte-identical, and the tool must say so."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_tree_gives_the_same_reports_as_itself():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "same_reports.py"), src, src,
         "--seed", "1", "--workload", "journal-panel"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.splitlines()[-1] == "6 of 6 commands byte-identical (seed 1)"
