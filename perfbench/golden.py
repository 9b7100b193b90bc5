"""Untimed pre-check: the CLI's output on each ``tests/data`` file must
equal its ``tests/golden`` file byte for byte (the ``lift`` refusal of a
linear generator must exit 2 and print nothing).  Runs every case in one
process and prints ``{"attempted": N, "failed": [...]}``::

    PYTHONPATH=src python3 perfbench/golden.py ROOT
"""

import contextlib
import io
import json
import sys
from pathlib import Path

CASES = [
    ("gb_quadric_n3.json", ["gb", "quadric_n3.ideal", "--json"]),
    ("lift_quadric_n3.json", ["lift", "quadric_n3.ideal", "--json"]),
    ("gin_commutator_n2.json", ["gin", "commutator_n2.ideal", "--json", "--seed", "7", "--trials", "2", "--maxdeg", "3"]),
    ("predicates_gap_n4.json", ["predicates", "gap_n4.ideal", "--json"]),
    ("verify_anticomm_n2.json", ["verify", "anticomm_n2.ideal", "--json"]),
    ("hilbert_monomial_free_n2.json", ["hilbert", "monomial_free_n2.ideal", "--json", "--maxdeg", "4"]),
    (None, ["lift", "linear_n2.ideal", "--json"]),
]


def main(root: Path) -> int:
    from extlift.cli import main as cli_main

    failed = []
    for golden, argv in CASES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli_main([argv[0], str(root / "tests" / "data" / argv[1]), *argv[2:]])
        want = ((root / "tests" / "golden" / golden).read_text(), 0) if golden else ("", 2)
        if (out.getvalue(), code) != want:
            failed.append(" ".join(argv))
    print(json.dumps({"attempted": len(CASES), "failed": failed}))
    return 0


if __name__ == "__main__":
    sys.exit(main(Path(sys.argv[1])))
