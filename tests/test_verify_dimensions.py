"""The dimension check of verify and the untransformed slices of the free
gin, ``freealg.ideal_slice_dims``.  A candidate that holds every
anti-commutator X_iX_j + X_jX_i (i < j) and X_i^2, however scaled,
generates an ideal J that contains their ideal A, so dim J_d = (n^d -
C(n, d)) + dim pi(J)_d is read off exterior slices; any other candidate
has its free slices eliminated.  Both routes must give the dimensions of
the free slices (``freealg.free_initial_ideal``), the differential oracle
here, over the same degrees."""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from extlift import exterior, freealg, gin
from extlift.algebra import AlgebraContext, anti_commutators
from extlift.cli import EXIT_OK, main
from extlift.orders import FreeOrderSpec
from extlift.parsing import free_poly_str, parse_ideal

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
_spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
inputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(inputs)

FAMILIES = {"ext": inputs.ext_quadrics, "gap": inputs.gap_binomials}
# the highest cap checked for each n, where the free slices take well under a second
CAPS = {4: 6, 5: 5, 6: 4, 7: 3}


@pytest.fixture
def routes(monkeypatch) -> list:
    """The log of the slice passes: 'exterior' per exterior slice pass,
    'free' per free one, a free gin trial's included."""
    log = []
    patches = (exterior, "groebner_ext", "exterior"), (freealg, "free_initial_ideal", "free"), (gin, "free_initial_ideal", "free")
    for module, name, tag in patches:
        def logged(*args, _fn=getattr(module, name), _tag=tag, **kwargs):
            log.append(_tag)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, logged)
    return log


def free_file(tmp_path, n: int, gens: list[str], name: str = "case") -> Path:
    path = tmp_path / f"{name}.ideal"
    path.write_text(f"vars: {n}\nalgebra: free\ngenerators:\n" + "".join(g + "\n" for g in gens))
    return path


def relations(n: int) -> list[str]:
    return [free_poly_str(F, FreeOrderSpec()) for F in anti_commutators(AlgebraContext(n))]


def verify_dims(capsys, path: Path, maxdeg: int) -> list[int]:
    main(["verify", str(path), "--json", "--maxdeg", str(maxdeg)])
    return [row["ideal_slice"] for row in json.loads(capsys.readouterr().out)["dimension_check"]]


def free_dims(path: Path, maxdeg: int) -> list[int]:
    ideal = parse_ideal(path.read_text())
    dims = freealg.free_initial_ideal(list(ideal.generators), ideal.ctx, ideal.free_order, maxdeg).slice_dims
    return [dims.get(d, 0) for d in range(maxdeg + 1)]


def assert_same_slices(path: Path, maxdeg: int) -> None:
    """The library's dict equals the oracle's, keys included."""
    ideal = parse_ideal(path.read_text())
    order = ideal.free_order
    candidate = freealg.FreeGroebnerCandidate(ideal.ctx, list(ideal.generators), order)
    dims = freealg.ideal_slice_dims(candidate.elements, candidate.leading_words, ideal.ctx, order, maxdeg)
    assert dims == freealg.free_initial_ideal(list(ideal.generators), ideal.ctx, order, maxdeg).slice_dims


def gin_routes(capsys, path: Path, routes: list) -> list:
    """The slice passes of the free ``gin --maxdeg 3`` on ``path``."""
    routes.clear()
    main(["gin", str(path), "--json", "--maxdeg", "3"])
    capsys.readouterr()
    return list(routes)


def lifted_basis(capsys, tmp_path, family: str, n: int, seed: int) -> dict:
    """``lift --json`` on the benchmark's seeded input of the family in n
    variables."""
    source = tmp_path / f"{family}{n}_{seed}.src"
    source.write_text(FAMILIES[family](random.Random(f"{family}{n}/{seed}"), n))
    assert main(["lift", str(source), "--json"]) == EXIT_OK
    return json.loads(capsys.readouterr().out)


def write_lift(tmp_path, lift: dict, name: str) -> Path:
    path = tmp_path / f"{name}.ideal"
    path.write_text(inputs.lift_to_free_file(lift))
    return path


def test_scaled_anti_commutators_take_the_exterior_route(capsys, tmp_path, routes):
    scaled = ["3*X1^2", "-1/2*X2^2", "7*X3^2", "2*X1*X2 + 2*X2*X1", "-X1*X3 - X3*X1", "5/3*X2*X3 + 5/3*X3*X2"]
    path = free_file(tmp_path, 3, [*scaled, "X1*X2 - 4*X2*X3 + X3*X1"])
    assert verify_dims(capsys, path, 4) == free_dims(path, 4) == [0, 0, 7, 27, 81]
    assert routes == ["exterior", "free"]  # the oracle's own pass comes second
    assert_same_slices(path, 4)


@pytest.mark.parametrize(
    "gens",
    [
        ["X1^2", "X2^2", "X1*X2 - X2*X1"],  # a commutator, not an anti-commutator
        ["X1^2", "X1*X2 + X2*X1"],  # X2^2 missing
        ["X1^2", "X2^2", "X1*X2 + 2*X2*X1"],  # not a multiple of X1X2 + X2X1
    ],
    ids=["commutator", "square-missing", "unequal-coefficients"],
)
def test_candidates_without_every_anti_commutator_take_the_free_route(capsys, tmp_path, routes, gens):
    path = free_file(tmp_path, 2, gens)
    verify_dims(capsys, path, 3)
    assert routes == ["free"]
    assert_same_slices(path, 3)
    # the free gin's untransformed pass, then its two trials
    assert gin_routes(capsys, path, routes) == ["free", "free", "free"]


def test_lifted_basis_without_one_anti_commutator_takes_the_free_route(capsys, tmp_path, routes):
    lift = lifted_basis(capsys, tmp_path, "ext", 4, 0)
    lift["anti_commutators"].pop(3)
    path = write_lift(tmp_path, lift, "no_anti")
    routes.clear()
    assert verify_dims(capsys, path, 4) == free_dims(path, 4)
    assert routes == ["free", "free"]
    assert_same_slices(path, 4)


@pytest.mark.parametrize("extra", [["X2"], ["X1 - 3*X3"], ["X1 + X2", "X2*X3 + X1*X2"]])
def test_degree_one_generators(capsys, tmp_path, routes, extra):
    path = free_file(tmp_path, 3, relations(3) + extra)
    assert verify_dims(capsys, path, 5) == free_dims(path, 5)
    assert routes[0] == "exterior"
    assert_same_slices(path, 5)


@pytest.mark.parametrize("maxdeg", [0, 1, 6])
def test_degree_caps(capsys, tmp_path, routes, maxdeg):
    # 0, 1 and n+2 on the lifted basis of quadrics in n=4
    path = write_lift(tmp_path, lifted_basis(capsys, tmp_path, "ext", 4, 1), "lifted")
    routes.clear()
    dims = verify_dims(capsys, path, maxdeg)
    assert dims == free_dims(path, maxdeg)
    assert len(dims) == maxdeg + 1 and routes[0] == "exterior"
    if maxdeg == 6:
        assert dims[5:] == [4**5, 4**6]
    assert_same_slices(path, maxdeg)


def test_anticommutators_n5_through_the_exterior(capsys, routes):
    dims = verify_dims(capsys, DATA / "anticomm_n5.ideal", 6)
    assert dims == [0, 0, 15, 115, 620, 3124, 15625]
    assert routes == ["exterior"]
    assert_same_slices(DATA / "anticomm_n5.ideal", 6)
    # the free gin's untransformed pass, then one free pass per trial
    assert gin_routes(capsys, DATA / "anticomm_n5.ideal", routes) == ["exterior", "free", "free"]


@pytest.mark.parametrize("n", sorted(CAPS))
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_lifted_corpus_matches_the_free_slices(capsys, tmp_path, routes, family, n):
    """The benchmark's seeded lifted bases, and each with one lifted element
    dropped, at every degree up to the cap of n."""
    for seed in (0, 1):
        lift = lifted_basis(capsys, tmp_path, family, n, seed)
        variants = {"whole": write_lift(tmp_path, lift, f"whole{seed}")}
        if lift["lifted_elements"]:
            lift["lifted_elements"].pop(random.Random(seed).randrange(len(lift["lifted_elements"])))
            variants["dropped"] = write_lift(tmp_path, lift, f"dropped{seed}")
        for name, path in variants.items():
            routes.clear()
            assert verify_dims(capsys, path, CAPS[n]) == free_dims(path, CAPS[n]), (seed, name)
            assert routes == ["exterior", "free"]
            assert_same_slices(path, CAPS[n])
