"""Hash the output of every quality pass of the benchmark's workloads.

Usage, from the root of a checkout:

    python3 tools/quality_hashes.py [--root CHECKOUT] [WORKLOAD ...]

For each workload of perfbench/workloads.py (all of them unless named) and
each of its seeds BASELINE_SEED and HELD_OUT_SEED, prints one line
``<workload> seed=<seed> <sha256> quality=<num>/<den> failed=<failed>/<ops>``.
The hash runs over every call of the workload's quality passes, in order:
its argv, exit code, stdout and the bytes of its --out file. The tallies
sum perfbench/checker.check_call over the same calls: the numerator and
denominator of the workload's search_quality, and the operations that
failed out of those attempted, so a line shows both whether the bytes moved
and whether the science did. The calls run in-process through
blindid.cli.main of CHECKOUT (by default the checkout that holds this
script), with BLAS on one thread and the --out file in a temporary
directory, so two checkouts whose lines agree gave the same bytes call for
call. perfbench/ is only read.
"""

from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # must precede the first numpy import

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402


def _update(h, data: bytes) -> None:
    """Length-prefixed, so that no two sequences of parts hash alike."""
    h.update(len(data).to_bytes(8, "little") + data)


def _number(x) -> str:
    """An integral tally as an integer, any other by repr."""
    return str(int(x)) if float(x).is_integer() else repr(float(x))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent,
                        help="checkout whose src/ and perfbench/ to run")
    parser.add_argument("workloads", nargs="*", help="workload names (default: all)")
    args = parser.parse_args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
    import blindid.cli
    from checker import check_call
    from workloads import BASELINE_SEED, HELD_OUT_SEED, WORKLOADS

    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        parser.error(f"unknown workloads {sorted(unknown)}; choose from {sorted(WORKLOADS)}")
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "call.out"
        for name in args.workloads or WORKLOADS:
            workload = WORKLOADS[name]
            for seed in (BASELINE_SEED, HELD_OUT_SEED):
                h = hashlib.sha256()
                num = den = failed = ops = 0
                for p in range(workload.quality_passes):
                    for call in workload.pass_calls(seed, p):
                        stdout = io.StringIO()
                        with contextlib.redirect_stdout(stdout):
                            code = blindid.cli.main(call.argv() + ["--out", str(out)])
                        for part in (" ".join(call.argv()), str(code), stdout.getvalue()):
                            _update(h, part.encode())
                        data = out.read_bytes() if out.exists() else b""
                        _update(h, data)
                        out.unlink(missing_ok=True)
                        tally = check_call(call, code, data.decode())
                        num, den = num + tally.quality_num, den + tally.quality_den
                        failed, ops = failed + tally.failed, ops + tally.ops
                print(f"{name} seed={seed} {h.hexdigest()} quality={_number(num)}/{_number(den)}"
                      f" failed={failed}/{ops}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
