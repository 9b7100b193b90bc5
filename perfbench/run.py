"""extlift benchmark: seeded workloads of CLI commands, every output
checked, end-to-end metrics (``--trace 0``) or per-layer metrics from a
traced run (``--trace 1``).  Run from the root of a checkout::

    python3 perfbench/run.py --workload ext_elim --seed 1 --seconds 60 --trace 0

One client runs one ``extlift`` command at a time as a subprocess and
starts the next when it has finished (a closed loop, no threads).  A pass
is the workload's fixed sequence of commands on the inputs the seed
picked; passes repeat until ``--seconds`` would be exceeded.  The last
line of stdout is the JSON result; the lines before it name each metric
with its unit.  The exit code is 1 when any output is wrong and 2 when
the checkout has no program to measure.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from pathlib import Path
from typing import NamedTuple

import inputs
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
EXPECTED = BENCH / "expected.json"
# The commands run with bytecode caching on and no other PYTHON* setting of
# the caller's, as an installed extlift would.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")} | {"PYTHONPATH": str(ROOT / "src")}
POOL = 32  # instances per input family; expected.json holds their digests
CMD_TIMEOUT_S = 60
RUN_LIMIT_S = 150  # no command of a run may still be running this long after the run began
COMMANDS = ("gb", "hilbert", "gin", "lift", "verify")
IMPORT_CLI = "import extlift.cli"
# The reference job: a fresh interpreter importing sympy, which extlift's
# changes cannot speed up or slow down.  It is timed before and after every
# pass, each time followed by one set-up sample.  REFERENCE_S is its wall
# time on an unloaded core of the tuning host; it turns ratios to the
# reference back into seconds.
REFERENCE = "import time; t = time.perf_counter(); import sympy; print(time.perf_counter() - t)"
REFERENCE_S = 0.4


class Mismatch(Exception):
    """A command exited unexpectedly or printed a wrong output."""


class Sample(NamedTuple):
    cmd: str
    wall: float
    cpu: float
    rss_kb: int


# ---- workloads ----------------------------------------------------------

FAMILIES = {
    "ext8": lambda rng: inputs.ext_quadrics(rng, 8),
    "ext7": lambda rng: inputs.ext_quadrics(rng, 7),
    "gap7": lambda rng: inputs.gap_binomials(rng, 7),
}


def instance(family: str, index: int) -> str:
    return FAMILIES[family](random.Random(f"{family}/{index}"))


def gin_seed(text: str) -> str:
    return str(zlib.crc32(text.encode()) % 1000)


def gb_hilbert(client, text):
    gb = client.run("gb", text, "--json")
    hb = client.run("hilbert", text, "--json")
    client.check(gb["quotient_dimensions"] == hb["quotient_dimensions"], "gb and hilbert quotient dimensions differ")


def ext_gin(client, text):
    gin = client.run("gin", text, "--json", "--seed", gin_seed(text))
    client.check(gin["agreement"] and gin["hilbert_series_match"], "exterior gin trials or Hilbert series disagree")


def lift_verify(client, text):
    lift = client.run("lift", text, "--json")
    n = lift["vars"]
    ver = client.run("verify", inputs.lift_to_free_file(lift), "--json", "--maxdeg", "3")
    client.check(ver["obstructions_resolve"] and ver["dimensions_agree"], "verify rejects the lifted basis")
    hil = client.run("hilbert", inputs.preimage_initial_file(lift), "--json")
    normal = [n**row["degree"] - row["ideal_slice"] for row in ver["dimension_check"]]
    client.check(hil["quotient_dimensions"][: len(normal)] == normal, "normal-word counts differ from slice ranks")


# Each workload is a list of (input family, step); a pass runs every step
# on one pool instance of its family.  Passes are kept short so that a run
# holds several of them (see measure).
WORKLOADS = {
    # dense Fraction elimination only: gb + hilbert build every slice twice,
    # gin runs gin_ext twice and hilbert_compare_ext rebuilds the slices
    "ext_elim": [("ext8", gb_hilbert), ("ext7", ext_gin)],
    # the paper's pipeline: lift, verify the lift, count normal words
    "lift_verify": [("ext7", lift_verify), ("gap7", lift_verify)],
}


def plan(workload: str, seed: int) -> list[list[tuple[object, str]]]:
    """The steps of every pass a run can make: the seed orders each
    step's pool, and pass i runs each step on the i-th instance of its
    order, so a run averages over many inputs."""
    rng = random.Random(seed)
    orders = [(step, family, rng.sample(range(POOL), POOL)) for family, step in WORKLOADS[workload]]
    return [[(step, instance(family, order[i])) for step, family, order in orders] for i in range(POOL)]


# ---- running commands ---------------------------------------------------


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:24]


def spawn(argv: list[str], out_path: Path, err_path: Path, timeout: float = CMD_TIMEOUT_S):
    """Run argv to completion, killing it after timeout seconds;
    (exit code, wall s, cpu s, peak RSS kB)."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=ENV)
        signal.signal(signal.SIGALRM, lambda *_: proc.kill())
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss


class Client:
    """Runs CLI commands one at a time and checks each output against the
    digest recorded for its input (or records it, when ``record``).  When
    ``traced``, every command runs again right away under ``tracer.py``,
    which must print the same bytes."""

    def __init__(self, work: Path, expected: dict, record: bool = False, traced: bool = False,
                 deadline: float = float("inf")):
        self.work = work
        self.expected = expected
        self.record = record
        self.traced = traced
        self.deadline = deadline  # time.perf_counter() value after which commands are killed at once
        self.samples: list[Sample] = []
        self.traced_samples: list[Sample] = []
        self.traces: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, message: str):
        self.failed += 1
        self.problems.append(message)
        raise Mismatch(message)

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def _spawn(self, cmd: str, argv: list[str], samples: list[Sample]) -> tuple[int, bytes]:
        self.attempted += 1
        timeout = min(CMD_TIMEOUT_S, max(0.01, self.deadline - time.perf_counter()))
        code, wall, cpu, rss = spawn([sys.executable, *argv], self.work / "out", self.work / "err", timeout)
        samples.append(Sample(cmd, wall, cpu, rss))
        return code, (self.work / "out").read_bytes()

    def run(self, cmd: str, text: str, *flags: str) -> dict:
        what = f"{cmd} {' '.join(flags)}"
        key = digest(json.dumps([cmd, flags, text]).encode())
        path = self.work / f"{digest(text.encode())}.ideal"
        if not path.exists():
            path.write_text(text, encoding="utf-8")
        argv = [cmd, str(path), *flags]
        code, out = self._spawn(cmd, ["-m", "extlift.cli", *argv], self.samples)
        got = f"{code}:{digest(out)}"
        if self.record:
            self.expected[key] = got
        elif self.expected.get(key) != got:
            err = (self.work / "err").read_text(errors="replace").strip()[-300:]
            self.fail(f"{what}: exit {code}, output {got}, expected {self.expected.get(key)} {err}")
        if code != 0:
            self.fail(f"{what}: exit {code}")
        if self.traced:
            spans = self.work / "trace.json"
            spans.unlink(missing_ok=True)
            argv = [str(BENCH / "tracer.py"), str(spans), str(len(self.traces)), *argv]
            code, traced_out = self._spawn(cmd, argv, self.traced_samples)
            if not spans.exists():
                self.fail(f"{what}: traced run wrote no spans, exit {code}")
            self.traces.append(json.loads(spans.read_text()))
            if traced_out != out:
                self.fail(f"{what}: traced output differs from the untraced output")
        return json.loads(out)

    def run_pass(self, steps) -> dict:
        """One pass over the steps; a failed step skips the rest of itself."""
        first, first_traced, first_trace = len(self.samples), len(self.traced_samples), len(self.traces)
        for step, text in steps:
            try:
                step(self, text)
            except Mismatch:
                pass
        return {
            "samples": self.samples[first:],
            "traced": self.traced_samples[first_traced:],
            "traces": self.traces[first_trace:],
        }


# ---- measuring ----------------------------------------------------------


def timed_python(code: str, work: Path) -> tuple[float, float, str]:
    """Wall and CPU time of a fresh interpreter running code, and its stdout."""
    exit_code, wall, cpu, _ = spawn([sys.executable, "-c", code], work / "out", work / "err")
    if exit_code != 0:
        raise SystemExit(f"python -c {code!r} failed: {(work / 'err').read_text(errors='replace')}")
    return wall, cpu, (work / "out").read_text()


def golden_check(client: Client) -> None:
    code, _, _, _ = spawn(
        [sys.executable, str(BENCH / "golden.py"), str(ROOT)], client.work / "out", client.work / "err"
    )
    if code != 0:
        raise SystemExit(f"golden pre-check crashed: {(client.work / 'err').read_text(errors='replace')}")
    res = json.loads((client.work / "out").read_text())
    client.attempted += res["attempted"]
    client.failed += len(res["failed"])
    client.problems += [f"golden mismatch: {case}" for case in res["failed"]]


def tail(values: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least 10 samples beyond it
    (the median when there are too few samples), and its value."""
    p = max(50, int(100 * (1 - 10 / len(values))))
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1] if len(values) > 1 else values[0]


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> tuple[Client, dict, list[str]]:
    """Run passes for about ``seconds`` and derive every metric.

    On the shared 2-vCPU Xeon virtual machine this was tuned on, the speed
    switched between two modes about 2x apart every few seconds (a fixed
    pure-Python loop took either 13-15 ms or 27 ms) and drifted over
    minutes, with CPU time tracking wall time.  Every time is therefore
    divided by the reference job's time measured next to it, and the
    median ratio is reported, scaled by REFERENCE_S.  On six runs of
    identical inputs in a loaded period, that spread by 0.11 of its median;
    the raw median pass time spread by 0.14 and the fastest pass by 0.24.
    """
    passes = plan(workload, seed)
    client = Client(work, json.loads(EXPECTED.read_text()), traced=trace, deadline=time.perf_counter() + RUN_LIMIT_S)
    golden_check(client)  # also compiles the program's bytecode before anything is timed
    refs, setups = [], []

    def calibrate() -> None:
        refs.append(timed_python(REFERENCE, work))
        setups.append(timed_python(IMPORT_CLI, work)[0])

    calibrate()
    plain = []
    start = time.perf_counter()
    while len(plain) < len(passes):
        t0 = time.perf_counter()
        plain.append(client.run_pass(passes[len(plain)]))
        calibrate()
        if time.perf_counter() - start + (time.perf_counter() - t0) > seconds:
            break

    def scaled(k: int, cost) -> float:
        """Median over the passes of cost(pass) divided by the mean of the
        reference's k-th time before and after the pass, in seconds."""
        return REFERENCE_S * statistics.median(
            cost(p) / ((before[k] + after[k]) / 2) for p, before, after in zip(plain, refs, refs[1:])
        )

    walls = [s.wall for p in plain for s in p["samples"]]
    values = {
        "wall_s": scaled(0, lambda p: sum(s.wall for s in p["samples"])),
        "cpu_s": scaled(1, lambda p: sum(s.cpu for s in p["samples"])),
        "setup_s": REFERENCE_S * statistics.median(s / r[0] for s, r in zip(setups, refs)),
        "peak_rss_mb": max(s.rss_kb for p in plain for s in p["samples"]) / 1024,
        "cli.cmd_p50_s": statistics.median(walls),
        "cli.import_sympy_s": min(float(r[2]) for r in refs),
    }
    p, values["cli.cmd_tail_s"] = tail(walls)
    for cmd in COMMANDS:
        values[f"cli.{cmd}_s"] = scaled(0, lambda p: sum(s.wall for s in p["samples"] if s.cmd == cmd))
    beyond = sum(1 for w in walls if w > values["cli.cmd_tail_s"])
    notes = [
        f"{len(plain)} passes of {len(plain[0]['samples'])} commands, {len(setups)} set-ups, {len(refs)} reference jobs",
        f"per-command wall time over {len(walls)} commands: p50 {values['cli.cmd_p50_s']:.4f} s, "
        f"cli.cmd_tail_s = p{p} {values['cli.cmd_tail_s']:.4f} s with {beyond} beyond it",
    ]
    if trace:
        totals = [tracer.layer_totals(p["traces"]) for p in plain]
        for name in {k for t in totals for k in t}:
            values[name] = statistics.median(t.get(name, 0) for t in totals)
        values["trace.overhead_s"] = statistics.median(
            sum(s.wall for s in p["traced"]) - sum(s.wall for s in p["samples"]) for p in plain
        )
        values["cli.import_s"] = min(r["import_s"] for r in client.traces)
    return client, values, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    missing = [p for p in ("src/extlift/cli.py", "tests/data", "tests/golden", "BENCHMARK.json") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not an extlift checkout, missing {', '.join(missing)} under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        client, values, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    for problem in client.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio {client.failed / client.attempted:.4f} ({client.failed} of {client.attempted} commands)")
    for note in notes:
        print(note)
    # a per-layer figure a workload never touches (no span, no counter) is 0
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    correct = client.failed == 0
    print(json.dumps({"correct": correct, "attempted": client.attempted, "failed": client.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
