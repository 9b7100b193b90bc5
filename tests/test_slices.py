"""Work-count guard: a command reduces each degree slice of an ideal at
most once per Groebner pass, and an exterior pass stops at the first full
slice; only gb and lift back-substitute (``linalg.rref``), while hilbert,
the exterior gin and verify ask only for pivots (``linalg.pivots``).  The
exterior gin runs gin_ext once, transforms each generator once per trial
and refuses an ideal without a lifted gin before any trial."""

import importlib
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

import extlift
from extlift import algebra, gin, linalg
from extlift.cli import EXIT_INPUT, EXIT_OK, main

DATA = Path(__file__).parent / "data"
MODULES = [
    importlib.import_module(f"extlift.{name}")
    for name in ("algebra", "orders", "linalg", "exterior", "lifting", "freealg", "gin", "parsing", "cli")
]


def count_calls(monkeypatch, fn) -> list:
    """Wrap ``fn`` at every module that binds it; the returned list grows
    by one entry per call."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)

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


# the exterior commands that back-substitute, and those that read pivots only
REDUCED = {"gb": True, "lift": True, "hilbert": False}


@pytest.mark.parametrize("command", sorted(REDUCED))
def test_exterior_slices_reduced_once(monkeypatch, capsys, command):
    # the quadric in n=3 first fills the slice at d=3: slices 2 and 3
    rref_calls = count_calls(monkeypatch, linalg.rref)
    pivots_calls = count_calls(monkeypatch, linalg.pivots)
    run(capsys, command, "quadric_n3.ideal")
    assert len(rref_calls) + len(pivots_calls) == 2
    assert len(rref_calls if REDUCED[command] else pivots_calls) == 2


@pytest.mark.parametrize("command", sorted(REDUCED))
def test_exterior_slices_stop_at_first_full_slice(monkeypatch, capsys, tmp_path, command):
    """Three quadrics in n=8 fill the slice at d=4, so only d=2, 3 and 4
    are reduced; the quotient is still reported in every degree."""
    path = quadrics_file(tmp_path, 8)
    rref_calls = count_calls(monkeypatch, linalg.rref)
    pivots_calls = count_calls(monkeypatch, linalg.pivots)
    assert main([command, str(path), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert len(rref_calls) + len(pivots_calls) == 3
    assert len(rref_calls if REDUCED[command] else pivots_calls) == 3
    if command != "lift":
        assert result["quotient_dimensions"] == [1, 8, 25, 32, 0, 0, 0, 0, 0]


def test_exterior_gin_two_trials(monkeypatch, capsys):
    # two transformed ideals plus the untransformed one for the Hilbert
    # check, each with slices 2 and 3, and no back-substitution; GLMatrix
    # asks pivots once per drawn matrix
    rref_calls = count_calls(monkeypatch, linalg.rref)
    pivots_calls = count_calls(monkeypatch, linalg.pivots)
    gin_ext_calls = count_calls(monkeypatch, gin.gin_ext)
    run(capsys, "gin", "quadric_n3.ideal", "--trials", "2", "--seed", "3")
    assert rref_calls == []
    assert len(pivots_calls) == 3 * 2 + 2
    assert len(gin_ext_calls) == 1


@pytest.mark.parametrize("trials", [2, 3])
def test_exterior_gin_transforms_each_generator_once_per_trial(monkeypatch, capsys, tmp_path, trials):
    path = tmp_path / "q5.ideal"
    path.write_text("vars: 5\ngenerators:\nx1*x2 + 2*x3*x4 - x2*x5\nx1*x3 - x4*x5 + 3*x2*x3\n")
    apply_calls = count_calls(monkeypatch, algebra.apply_gl_ext)
    run(capsys, "gin", str(path), "--trials", str(trials))
    assert len(apply_calls) == trials * 2


@pytest.mark.parametrize(
    "source,flags",
    [("linear_n2.ideal", []), ("quadric_n3.ideal", ["--varorder", "2,1,3"])],
)
def test_exterior_gin_refused_before_any_trial(monkeypatch, capsys, source, flags):
    rref_calls = count_calls(monkeypatch, linalg.rref)
    pivots_calls = count_calls(monkeypatch, linalg.pivots)
    assert main(["gin", str(DATA / source), "--json", *flags]) == EXIT_INPUT
    assert capsys.readouterr().err.startswith("error: ")
    assert rref_calls == pivots_calls == []


@pytest.mark.parametrize("maxdeg", [3, 5])
def test_verify_slices_reduced_once(monkeypatch, capsys, maxdeg):
    # verify reads only the pivots of its free slices: no back-substitution
    rref_calls = count_calls(monkeypatch, linalg.rref)
    pivots_calls = count_calls(monkeypatch, linalg.pivots)
    run(capsys, "verify", "anticomm_n2.ideal", "--maxdeg", str(maxdeg))
    assert 0 < len(pivots_calls) <= maxdeg + 1
    assert rref_calls == []


def test_verify_anticommutators_n5_default_maxdeg(capsys):
    """The degree-6 slice has 46,875 spanning rows and rank 15,625, where
    a back-substitution over every earlier pivot row is quadratic in the
    rank; the echelon form alone keeps this test short."""
    assert main(["verify", str(DATA / "anticomm_n5.ideal"), "--json"]) == EXIT_OK
    result = json.loads(capsys.readouterr().out)
    assert result["dimensions_agree"]
    assert [row["ideal_slice"] for row in result["dimension_check"]] == [0, 0, 15, 115, 620, 3124, 15625]
