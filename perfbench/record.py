"""Record the expected output digest of every command the benchmark can
run, by running each workload's steps on every pool instance::

    python3 perfbench/record.py

Run it at a commit whose outputs are known to be right; it rewrites
``perfbench/expected.json``.  Cross-checks still apply while recording, so
a wrong output stops the recording instead of being stored.
"""

import json
import shutil
import sys
import tempfile

import run


def main() -> int:
    expected: dict[str, str] = {}
    scratch = run.ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = run.Path(tempfile.mkdtemp(dir=scratch))
    try:
        client = run.Client(work, expected, record=True)
        pairs = dict.fromkeys(pair for steps in run.WORKLOADS.values() for pair in steps)
        for family, step in pairs:
            for index in range(run.POOL):
                try:
                    step(client, run.instance(family, index))
                except run.Mismatch as exc:
                    print(f"{family}/{index} {step.__name__}: {exc}", file=sys.stderr)
                    return 1
            print(f"{family} {step.__name__}: {len(expected)} digests", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
