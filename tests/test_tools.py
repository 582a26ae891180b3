import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def test_quality_hashes_repeat_and_tell_the_seeds_apart():
    # one line per seed with the checker's tallies, each the same on a second
    # run, and the two seeds' calls hash apart
    def run():
        out = subprocess.run([sys.executable, str(TOOLS / "quality_hashes.py"), "certify"],
                             capture_output=True, text=True, check=True, timeout=300).stdout
        return out.splitlines()

    lines = run()
    found = [re.fullmatch(r"certify seed=(\d) ([0-9a-f]{64}) quality=(\d+)/(\d+)"
                          r" failed=(\d+)/(\d+)", line) for line in lines]
    assert [m[1] for m in found] == ["1", "2"]
    assert found[0][2] != found[1][2]
    # one verdict per call, and no more useful or failed verdicts than calls
    for m in found:
        num, den, failed, ops = (int(m[i]) for i in range(3, 7))
        assert den == ops > 0 and num <= den and failed <= ops
    assert run() == lines
