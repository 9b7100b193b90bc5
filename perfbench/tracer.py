"""Traced run of one extlift CLI command, and the per-layer metrics built
from the spans it records.

As a script it imports extlift, wraps the public functions of its nine
modules at every place they are bound (``cli.groebner_ext`` as well as
``exterior.groebner_ext``), counts calls of the hottest methods on their
classes, runs the CLI in-process and writes spans and counters as JSON::

    PYTHONPATH=src python3 perfbench/tracer.py OUT.json CMD_ID gb FILE --json

The wrappers pass arguments and results through untouched, so the command
prints exactly what it prints untraced.  Spans are kept in memory and
written once, when the command ends.
"""

import sys
import time

MODULES = ("algebra", "orders", "linalg", "exterior", "lifting", "freealg", "gin", "parsing", "cli")

# Too hot to time: only their calls are counted.
COUNTED = (
    ("orders", "FreeOrderSpec", "word_key", "orders.word_key.calls"),
    ("orders", "ExtOrderSpec", "ext_key", "orders.ext_key.calls"),
    ("freealg", "PatternAutomaton", "first_match", "freealg.first_match.calls"),
)


class Tracer:
    """Spans ``[id, name, start, end, parent id or -1, command id]`` and
    named counters of one traced command."""

    def __init__(self, cmd_id: int):
        self.cmd_id = cmd_id
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._raised: list[BaseException] = []

    def add(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(args, result)`` runs outside it."""
        spans, stack, clock, cmd_id = self.spans, self._stack, time.perf_counter, self.cmd_id
        module = name.split(".", 1)[0]

        def traced(*args, **kwargs):
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, cmd_id]
            spans.append(span)
            stack.append(span[0])
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                # an exception passing up through several layers counts
                # once, in the layer that raised it
                if not any(e is exc for e in self._raised):
                    self._raised.append(exc)
                    self.add(f"{module}.errors")
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def count_calls(self, cls, attr: str, name: str, after=None) -> None:
        fn = getattr(cls, attr)
        counters = self.counters
        counters.setdefault(name, 0)

        def counted(obj, *args, **kwargs):
            counters[name] += 1
            result = fn(obj, *args, **kwargs)
            if after is not None:
                after(obj)
            return result

        setattr(cls, attr, counted)

    # hooks that count work at a layer boundary, outside the timed span

    def _rref_stats(self, args, result) -> None:
        rows = args[0]
        cols = set()
        bits = 0
        for row in rows:
            cols.update(row)
        for row in rows + result:
            for v in row.values():
                bits = max(bits, v.numerator.bit_length(), v.denominator.bit_length())
        self.add("linalg.rref.rows_in", len(rows))
        self.add("linalg.rref.rank_out", len(result))
        self.add("linalg.rref.cols", len(cols))
        self.add("linalg.rref.nnz_in", sum(len(r) for r in rows))
        self.counters["linalg.rref.max_coeff_bits"] = max(self.counters.get("linalg.rref.max_coeff_bits", 0), bits)

    def _lift_stats(self, args, result) -> None:
        self.add("lifting.lifted_elements", len(result.lifted))
        self.add("lifting.nontrivial_multipliers", sum(1 for _, u, _ in result.lifted if u.degree > 0))

    def install(self) -> None:
        import importlib
        import inspect

        import extlift

        mods = [importlib.import_module(f"extlift.{m}") for m in MODULES]
        hooks = {
            "linalg.rref": self._rref_stats,
            "lifting.lift_groebner": self._lift_stats,
            "freealg.ideal_slice_rows": lambda a, r: self.add("freealg.ideal_slice_rows.rows_out", len(r)),
            "freealg.enumerate_obstructions": lambda a, r: self.add("freealg.obstructions", len(r)),
        }
        wrapped = {}
        for mod in mods:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                fn = self.wrap(name, obj, hooks.get(name))
                if name == "linalg.rref":
                    # materialise the rows so they can be counted; rref
                    # only iterates them once, so its result is unchanged
                    inner = fn

                    def fn(rows, key, _inner=inner):
                        return _inner(list(rows), key)

                wrapped[id(obj)] = (obj, fn)
        for mod in [extlift, *mods]:
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        for short, cls, attr, name in COUNTED:
            self.count_calls(getattr(by_name[short], cls), attr, name)
        self.count_calls(
            by_name["freealg"].PatternAutomaton, "__init__", "freealg.automaton.built",
            after=lambda auto: self.add("freealg.automaton.states", len(auto.goto)),
        )


def self_times(spans: list[list]) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by (command id, span id): its
    duration minus the part of its interval that its child spans cover."""
    children: dict[tuple[int, int], list[list]] = {}
    for s in spans:
        if s[4] != -1:
            children.setdefault((s[5], s[4]), []).append(s)
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered, reach = 0.0, start
        for c in sorted(children.get((s[5], s[0]), []), key=lambda c: c[2]):
            lo, hi = max(c[2], reach), min(c[3], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[(s[5], s[0])] = (end - start) - covered
    return out


def layer_totals(records: list[dict]) -> dict[str, float]:
    """Sum the traced commands of one pass into per-layer figures:
    ``<span>.calls`` and ``<span>.self_s`` for every span name, plus every
    counter (``max_coeff_bits`` is a maximum, not a sum)."""
    totals: dict[str, float] = {}
    for rec in records:
        selfs = self_times(rec["spans"])
        for s in rec["spans"]:
            name = s[1]
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            totals[f"{name}.self_s"] = totals.get(f"{name}.self_s", 0.0) + selfs[(s[5], s[0])]
            if name.startswith("cli.cmd_"):
                totals["cli.cmd.self_s"] = totals.get("cli.cmd.self_s", 0.0) + selfs[(s[5], s[0])]
        for name, v in rec["counters"].items():
            if name.endswith("max_coeff_bits"):
                totals[name] = max(totals.get(name, 0), v)
            else:
                totals[name] = totals.get(name, 0) + v
    rows_in = totals.get("linalg.rref.rows_in", 0)
    totals["linalg.rref.useful_ratio"] = totals.get("linalg.rref.rank_out", 0) / rows_in if rows_in else 0.0
    return totals


def main(argv: list[str]) -> int:
    out_path, cmd_id, cli_argv = argv[0], int(argv[1]), argv[2:]
    t0 = time.perf_counter()
    import extlift.cli

    import_s = time.perf_counter() - t0
    import json

    tracer = Tracer(cmd_id)
    tracer.install()
    try:
        return extlift.cli.main(cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
