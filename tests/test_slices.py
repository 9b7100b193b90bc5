"""Work-count guard: a command handles each degree slice of an ideal at
most once per Groebner pass, and an exterior pass stops at the first full
slice.  An exterior slice is either certified full modulo a prime
(``linalg.full_rank``), and then never eliminated, or brought to echelon
form once (``linalg.echelon``), the same way for every command: gb, lift
and hilbert log identical calls.  Only gb and lift then back-substitute,
and only the rows of new minimal leads (``linalg.back_substitute``);
hilbert, the exterior gin and verify never do.  verify reads exterior
slices when its candidate holds the anti-commutators.  The exterior gin
runs gin_ext once, transforms each generator once per trial and refuses
an ideal without a lifted gin before any trial; each trial takes a slice
whose known rank is C(n, d) as full without a certificate, and draws no
row of a slice past the one that reaches its known rank.  Every command
reads its exterior slices through one ``groebner_ext`` pass per ideal,
and verify builds one automaton, its candidate's."""

import importlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

import extlift
from extlift import algebra, exterior, freealg, gin, linalg
from extlift.cli import EXIT_INPUT, EXIT_OK, main
from extlift.exterior import ExtIdeal, groebner_ext
from extlift.lifting import lift_groebner
from extlift.orders import FreeOrderSpec
from extlift.parsing import free_poly_str, parse_ideal

DATA = Path(__file__).parent / "data"
MODULES = [
    importlib.import_module(f"extlift.{name}")
    for name in ("algebra", "orders", "linalg", "exterior", "lifting", "freealg", "gin", "parsing", "cli")
]


def count_calls(monkeypatch, *fns) -> list:
    """Wrap each of ``fns`` at every module that binds it; the returned
    list grows by (name, result) per call, a list or dict result given as
    its length (an echelon form's rank)."""
    calls = []
    for fn in fns:
        def counted(*args, _fn=fn, **kwargs):
            result = _fn(*args, **kwargs)
            calls.append((_fn.__name__, len(result) if type(result) in (list, dict) else result))
            return result

        for mod in [extlift, *MODULES]:
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def run(capsys, *argv) -> None:
    assert main([argv[0], str(DATA / argv[1]), "--json", *argv[2:]]) == EXIT_OK
    capsys.readouterr()


def quadrics_file(tmp_path, n: int) -> Path:
    """Three seeded dense quadrics in n variables, as an ideal file."""
    rng = random.Random(f"slices/{n}")
    pairs = list(combinations(range(1, n + 1), 2))
    gens = [" + ".join(f"{rng.randint(1, 9)}*x{i}*x{j}" for i, j in pairs) for _ in range(3)]
    path = tmp_path / f"quadrics_n{n}.ideal"
    path.write_text(f"vars: {n}\ngenerators:\n" + "".join(g + "\n" for g in gens))
    return path


def slice_calls(monkeypatch) -> list:
    """The log of the certificate and the echelon form."""
    return count_calls(monkeypatch, linalg.full_rank, linalg.echelon)


EXTERIOR_COMMANDS = ["gb", "hilbert", "lift"]
# the one log of each input: the echelon forms' ranks, then the certificate
QUADRIC_N3_LOG = [("echelon", 1), ("full_rank", True)]
QUADRICS_N8_LOG = [("echelon", 3), ("echelon", 24), ("full_rank", True)]


@pytest.mark.parametrize("command", EXTERIOR_COMMANDS)
def test_exterior_slices_reduced_once(monkeypatch, capsys, command):
    """The quadric in n=3 first fills the slice at d=3: slice 2 (one row,
    too few to be full) is brought to echelon form and slice 3 is
    certified full.  gb and lift back-substitute the one row of the
    quadric's lead, hilbert nothing."""
    calls = slice_calls(monkeypatch)
    rows = count_calls(monkeypatch, linalg.back_substitute)
    run(capsys, command, "quadric_n3.ideal")
    assert calls == QUADRIC_N3_LOG
    assert rows == ([] if command == "hilbert" else [("back_substitute", 3)])


@pytest.mark.parametrize("command", EXTERIOR_COMMANDS)
def test_exterior_slices_stop_at_first_full_slice(monkeypatch, capsys, tmp_path, command):
    """Three quadrics in n=8 fill the slice at d=4: d=2 and 3 have fewer
    rows than columns and are brought to echelon form, d=4 is certified
    full and not eliminated, and nothing above it is touched; the quotient
    is still reported in every degree."""
    path = quadrics_file(tmp_path, 8)
    calls = slice_calls(monkeypatch)
    assert main([command, str(path), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert calls == QUADRICS_N8_LOG
    if command != "lift":
        assert result["quotient_dimensions"] == [1, 8, 25, 32, 0, 0, 0, 0, 0]


@pytest.mark.parametrize("source", ["quadric_n3", "quadrics_n8"])
def test_exterior_commands_log_identical_slices(monkeypatch, capsys, tmp_path, source):
    """gb and lift, which read the basis elements, handle every slice as
    hilbert, which reads only leads and dimensions, does."""
    path = DATA / "quadric_n3.ideal" if source == "quadric_n3" else quadrics_file(tmp_path, 8)
    logs = []
    for command in EXTERIOR_COMMANDS:
        calls = slice_calls(monkeypatch)
        assert main([command, str(path), "--json"]) == EXIT_OK
        capsys.readouterr()
        monkeypatch.undo()
        logs.append(calls)
    assert logs[0] == logs[1] == logs[2] == (QUADRIC_N3_LOG if source == "quadric_n3" else QUADRICS_N8_LOG)


def test_exterior_slices_certificate_failure_falls_back_once(monkeypatch, capsys, tmp_path):
    """A slice that is full over Q but not modulo the prime is eliminated
    once after the failed certificate, and the pass stops there.  The rows
    are primitive, so the prime must divide a minor, not a row: the three
    quadrics' determinant is PRIME."""
    path = tmp_path / "p.ideal"
    path.write_text(f"vars: 3\ngenerators:\nx1*x2 + x1*x3\nx1*x2 + {linalg.PRIME + 1}*x1*x3\nx2*x3\n")
    calls = slice_calls(monkeypatch)
    run(capsys, "gb", str(path))
    assert calls == [("full_rank", False), ("echelon", 3)]


def test_exterior_slices_certify_a_generator_divisible_by_the_prime(monkeypatch, capsys, tmp_path):
    """A generator is scaled to its primitive multiple before any slice is
    built, so PRIME*x1*x2 is x1*x2 to the certificate, which proves the
    slice at d=3 full."""
    path = tmp_path / "p.ideal"
    path.write_text(f"vars: 3\ngenerators:\n{linalg.PRIME}*x1*x2\n")
    calls = slice_calls(monkeypatch)
    run(capsys, "gb", str(path))
    assert calls == [("echelon", 1), ("full_rank", True)]


def test_exterior_gin_two_trials(monkeypatch, capsys):
    # the untransformed ideal for the reported dimensions, the Hilbert
    # check and the trials' targets, before the trials: slice 2 brought to
    # echelon form and slice 3 certified full.  Then two transformed
    # ideals, each with slice 2 brought to echelon form and slice 3 taken
    # as full from its target, with no certificate, and no
    # back-substitution; GLMatrix asks an echelon form once per drawn matrix
    calls = slice_calls(monkeypatch)
    rows = count_calls(monkeypatch, linalg.back_substitute)
    gin_ext_calls = count_calls(monkeypatch, gin.gin_ext)
    run(capsys, "gin", "quadric_n3.ideal", "--trials", "2", "--seed", "3")
    trial = [("echelon", 3), ("echelon", 1)]
    assert calls == QUADRIC_N3_LOG + trial * 2
    assert rows == []
    assert len(gin_ext_calls) == 1


def test_exterior_gin_trials_draw_no_row_past_their_targets(monkeypatch, capsys, tmp_path):
    """Each trial brings a slice to echelon form only up to its target,
    the slice's dimension before the coordinate change: the last row it
    draws adds the target-th pivot, and no later row is built.  In n=6
    these two binomials' slice at d=4 has rank 13; each trial reaches it
    at its 18th row there and builds none of the rows after it."""
    path = tmp_path / "gap6.ideal"
    path.write_text("vars: 6\ngenerators:\n2*x1*x6 - 3*x2*x3\n-3*x1*x5 + x2*x3\n")
    log = []

    def counted(rows, dependent=None, stop=None):
        drawn = []
        pivots = linalg.echelon((drawn.append(row) or row for row in rows), dependent, stop)
        log.append((stop, len(pivots), len(drawn), list(dependent or [])))
        return pivots

    monkeypatch.setattr(exterior, "echelon", counted)
    run(capsys, "gin", str(path), "--seed", "1")
    trials = [entry for entry in log if entry[0] is not None]
    assert len(trials) == 2 * 3  # slices 2, 3 and 4 of each trial; 5 and 6 are full
    for stop, rank, drawn, dependent in trials:
        assert rank == stop and drawn == rank + len(dependent) and drawn - 1 not in dependent
    assert [stop for stop, *_ in trials] == [2, 10, 13] * 2
    assert any(dependent for *_, dependent in trials)


@pytest.mark.parametrize("trials", [2, 3])
def test_exterior_gin_transforms_each_generator_once_per_trial(monkeypatch, capsys, tmp_path, trials):
    """One exterior pass per trial and one for the Hilbert check, none of
    which back-substitutes."""
    path = tmp_path / "q5.ideal"
    path.write_text("vars: 5\ngenerators:\nx1*x2 + 2*x3*x4 - x2*x5\nx1*x3 - x4*x5 + 3*x2*x3\n")
    apply_calls = count_calls(monkeypatch, algebra.apply_gl_ext)
    passes = count_calls(monkeypatch, exterior.groebner_ext)
    rows = count_calls(monkeypatch, linalg.back_substitute)
    run(capsys, "gin", str(path), "--trials", str(trials))
    assert len(apply_calls) == trials * 2
    assert len(passes) == trials + 1
    assert rows == []


@pytest.mark.parametrize(
    "source,flags",
    [("linear_n2.ideal", []), ("quadric_n3.ideal", ["--varorder", "2,1,3"])],
)
def test_exterior_gin_refused_before_any_trial(monkeypatch, capsys, source, flags):
    calls = slice_calls(monkeypatch)
    assert main(["gin", str(DATA / source), "--json", *flags]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert calls == []


@pytest.mark.parametrize("maxdeg", [3, 5])
def test_verify_slices_reduced_once(monkeypatch, capsys, maxdeg):
    # without the anti-commutators, verify reads only the pivots of its free
    # slices: echelon forms, no back-substitution and no certificate
    calls = slice_calls(monkeypatch)
    rows = count_calls(monkeypatch, linalg.back_substitute)
    run(capsys, "verify", "commutator_n2.ideal", "--maxdeg", str(maxdeg))
    assert 0 < len(calls) <= maxdeg + 1
    assert {name for name, _ in calls} == {"echelon"}
    assert rows == []


def lifted_quadrics_file(tmp_path) -> Path:
    """The lifted basis of the three quadrics in n=8, as a free ideal file."""
    ideal = parse_ideal(quadrics_file(tmp_path, 8).read_text())
    lifted = lift_groebner(groebner_ext(ExtIdeal(ideal.ctx, ideal.generators, ideal.order))).elements()
    assert {F.degree for F in lifted} == {2, 3, 4}
    path = tmp_path / "lifted.ideal"
    path.write_text("vars: 8\nalgebra: free\ngenerators:\n" + "".join(free_poly_str(F, FreeOrderSpec()) + "\n" for F in lifted))
    return path


@pytest.mark.parametrize("maxdeg", [3, 9])
def test_verify_lifted_basis_reduces_each_exterior_slice_once(monkeypatch, capsys, tmp_path, maxdeg):
    """The lifted basis holds the anti-commutators, so verify reads the
    exterior slices of the images of its elements.  Those above degree 2
    lie in the ideal of the three quadrics and add no pivot where they
    enter, so the slices are hilbert's on the quadrics: d=2 and 3 are
    brought to echelon form, d=4 is certified full, nothing above it is
    touched and nothing is back-substituted."""
    path = lifted_quadrics_file(tmp_path)
    calls = slice_calls(monkeypatch)
    rows = count_calls(monkeypatch, linalg.back_substitute)
    assert main(["verify", str(path), "--json", "--maxdeg", str(maxdeg)]) == EXIT_OK
    capsys.readouterr()
    assert calls == QUADRICS_N8_LOG[: maxdeg - 1]
    assert rows == []


def test_verify_anticommutators_n5_default_maxdeg(capsys):
    """The degree-6 slice has 46,875 spanning rows and rank 15,625, where
    a back-substitution over every earlier pivot row is quadratic in the
    rank; the echelon form alone keeps this test short."""
    assert main(["verify", str(DATA / "anticomm_n5.ideal"), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["dimensions_agree"]
    assert [row["ideal_slice"] for row in result["dimension_check"]] == [0, 0, 15, 115, 620, 3124, 15625]


@pytest.mark.parametrize("command", ["gb", "lift", "hilbert", "verify"])
def test_one_exterior_pass_per_command(monkeypatch, capsys, tmp_path, command):
    """gb, lift and hilbert on the three quadrics in n=8, and verify on
    their lifted basis, each read the exterior slices in one pass."""
    path = lifted_quadrics_file(tmp_path) if command == "verify" else quadrics_file(tmp_path, 8)
    passes = count_calls(monkeypatch, exterior.groebner_ext)
    assert main([command, str(path), "--json"]) == EXIT_OK
    capsys.readouterr()
    assert len(passes) == 1


@pytest.mark.parametrize("source", ["anticomm_n2", "commutator_n2", "monomial_free_n2", "lifted_quadrics_n8"])
def test_verify_builds_one_automaton(monkeypatch, capsys, tmp_path, source):
    """The candidate's automaton of its leading words both reduces and
    counts the normal words of the initial cone; no second one is built
    for the count."""
    path = lifted_quadrics_file(tmp_path) if source == "lifted_quadrics_n8" else DATA / f"{source}.ideal"
    built = []
    init = freealg.PatternAutomaton.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(freealg.PatternAutomaton, "__init__", counted)
    main(["verify", str(path), "--json", "--maxdeg", "4"])
    capsys.readouterr()
    assert len(built) == 1
