"""``tools/command_time.py`` for one pair on the journal-panel workload,
with the source tree timed against itself."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_pair_times_every_command_and_the_pass():
    src = str(ROOT / "src")
    run = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "command_time.py"), src, src,
         "--workload", "journal-panel", "--seed", "1", "--pairs", "1"],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert lines[0] == "journal-panel seed 1: 1 pairs, parent and change alternating first"
    assert lines[1::4] == ["total-cites", "impact-factor", "influence", "bradford",
                           "share-curve", "stability", "pass"]
    for side, offset in (("parent", 2), ("change", 3)):
        for line in lines[offset::4]:
            # One sample is its own median and quartiles.
            number = r"([\d.]+)"
            match = re.fullmatch(f"  {side} +median +{number} ms  quartiles {number}-{number} ms",
                                 line)
            assert match, line
            assert float(match[1]) > 0 and match[1] == match[2] == match[3]
    for line in lines[4::4]:
        assert re.fullmatch(r"  change faster in [01] of 1 pairs", line), line
