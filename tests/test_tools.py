import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_quality_hashes_repeat_and_tell_the_seeds_apart():
    # one line per seed, each the same on a second run, and the two seeds'
    # calls hash apart
    def run():
        out = subprocess.run([sys.executable, str(TOOLS / "quality_hashes.py"), "certify"],
                             capture_output=True, text=True, check=True, timeout=300).stdout
        return out.splitlines()

    lines = run()
    assert [re.fullmatch(r"certify seed=(\d) [0-9a-f]{64}", line)[1] for line in lines] \
        == ["1", "2"]
    assert lines[0].split()[-1] != lines[1].split()[-1]
    assert run() == lines
