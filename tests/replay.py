"""Replay record of the CLI's answers: a SHA-256 of (exit code, stdout,
stderr) for each run of a fixed seeded matrix, kept in
``tests/golden/replay.json``.  ``check`` replays every run and names each
one whose digest differs from the record, or that the record lacks::

    PYTHONPATH=src python tests/replay.py check
    PYTHONPATH=src python tests/replay.py record

The matrix:

* every command, plain and ``--json``, on every ``tests/data`` file, with
  ``--maxdeg 3`` on the n=5 free files for the commands that take it (as
  ``tests/test_parsing_cli.PARITY_RUNS`` does);
* ``lift --json`` of ``perfbench/inputs`` instances 0-3 of ``ext7`` and
  ``gap7``; ``verify`` of the lifted basis, plain and ``--json``, at the
  default cap and at ``--maxdeg 3``, also with the first lifted element
  dropped; and the free ``hilbert``, plain and ``--json``, of the
  preimage's initial ideal;
* ``gb --json`` and ``lift --json`` of instance 0 of ``ext`` and ``gap``
  at n=5-8, under the file's deglex, ``--order degrevlex`` and the
  reversed ``--varorder``, and ``verify --maxdeg 3``, plain and
  ``--json``, of each lift under the same flags; the lift refuses the reversed ranking, so that
  ``verify`` reads the deglex lift, which fails there.

Every run is in one process, through ``cli.main``.  A change meant to
alter output records anew, and names each run whose digest changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
RECORD = ROOT / "tests" / "golden" / "replay.json"
# the n=5 free data files, run at --maxdeg 3 here and in test_parsing_cli
N5_FREE = ("anticomm_n5.ideal", "lifted_drop_n5.ideal")
PIPELINE = [(family, i) for family in ("ext", "gap") for i in range(4)]
ORDER_SIZES = range(5, 9)


def order_flags(n: int) -> dict[str, list[str]]:
    """The order flags of the order matrix, by label."""
    reverse = ",".join(str(v) for v in range(n, 0, -1))
    return {"deglex": [], "degrevlex": ["--order", "degrevlex"], "reversed": ["--varorder", reverse]}


def load_inputs():
    """``perfbench/inputs.py``, loaded by path."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(argv: list[str]) -> tuple[int, str, str]:
    """``cli.main(argv)``'s exit code, stdout and stderr."""
    from extlift.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def digest(code: int, out: str, err: str) -> str:
    return hashlib.sha256(json.dumps([code, out, err]).encode()).hexdigest()


def runs():
    """(label, exit code, stdout, stderr) of each run of the matrix, in
    order.  A label names a file by its name under ``tests/data``, or by
    its instance, never by a path."""
    from extlift.cli import COMMANDS

    for command, (_, own) in COMMANDS.items():
        for path in sorted(DATA.glob("*.ideal")):
            cap = ["--maxdeg", "3"] if path.name in N5_FREE and "--maxdeg" in own else []
            for flags in ([], ["--json"]):
                argv = [command, path.name, *cap, *flags]
                yield (" ".join(argv), *run([command, str(path), *cap, *flags]))
    inputs = load_inputs()
    families = {"ext": inputs.ext_quadrics, "gap": inputs.gap_binomials}
    with tempfile.TemporaryDirectory() as tmp:
        for family, i in PIPELINE:
            name = f"{family}7/{i}"
            source = Path(tmp) / "source.ideal"
            source.write_text(families[family](random.Random(name), 7))
            code, out, err = run(["lift", str(source), "--json"])
            yield (f"lift {name} --json", code, out, err)
            lift = json.loads(out)
            lifted = inputs.lift_to_free_file(lift)
            lines = lifted.splitlines(keepends=True)
            # the first lifted element follows the header and the anti-commutators
            first = len(lines) - len(lift["lifted_elements"])
            for tag, text in (("lifted", lifted), ("dropped", "".join(lines[:first] + lines[first + 1:]))):
                candidate = Path(tmp) / "candidate.ideal"
                candidate.write_text(text)
                for cap in ([], ["--maxdeg", "3"]):
                    for flags in ([], ["--json"]):
                        yield (" ".join(["verify", f"{tag}:{name}", *cap, *flags]), *run(["verify", str(candidate), *cap, *flags]))
            preimage = Path(tmp) / "preimage.ideal"
            preimage.write_text(inputs.preimage_initial_file(lift))
            for flags in ([], ["--json"]):
                yield (" ".join(["hilbert", f"preimage:{name}", *flags]), *run(["hilbert", str(preimage), *flags]))
        for family in families:
            for n in ORDER_SIZES:
                name = f"{family}{n}/0"
                source = Path(tmp) / "source.ideal"
                source.write_text(families[family](random.Random(name), n))
                lifts = {}
                for tag, flags in order_flags(n).items():
                    yield (" ".join(["gb", name, *flags, "--json"]), *run(["gb", str(source), *flags, "--json"]))
                    code, out, err = run(["lift", str(source), *flags, "--json"])
                    yield (" ".join(["lift", name, *flags, "--json"]), code, out, err)
                    if code == 0:
                        lifts[tag] = inputs.lift_to_free_file(json.loads(out))
                    candidate = Path(tmp) / "candidate.ideal"
                    candidate.write_text(lifts.get(tag, lifts["deglex"]))
                    for out_flags in ([], ["--json"]):
                        argv = ["--maxdeg", "3", *flags, *out_flags]
                        yield (" ".join(["verify", f"lifted:{name}", *argv]), *run(["verify", str(candidate), *argv]))


def record() -> dict[str, str]:
    digests = {label: digest(code, out, err) for label, code, out, err in runs()}
    RECORD.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return digests


def check() -> list[str]:
    """The labels whose digest differs from the record, or that it lacks,
    then those of the record that no run gave."""
    want = json.loads(RECORD.read_text())
    got = {label: digest(code, out, err) for label, code, out, err in runs()}
    return [label for label in got if want.get(label) != got[label]] + [label for label in want if label not in got]


def main(argv: list[str]) -> int:
    if argv == ["record"]:
        print(f"recorded {len(record())} runs in {RECORD.relative_to(ROOT)}")
        return 0
    if argv == ["check"]:
        bad = check()
        for label in bad:
            print(f"differs: {label}")
        print(f"{'FAIL' if bad else 'ok'}: {len(bad)} of the recorded runs differ")
        return 1 if bad else 0
    print("usage: python tests/replay.py record|check", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
