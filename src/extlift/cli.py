"""Command-line interface.

Commands: gb, lift, verify, gin, hilbert, predicates.  Results go to
stdout, human-readable by default or as stable JSON with --json;
diagnostics go to stderr.  Exit codes: 0 success, 1 mathematical failure
(verification or genericity agreement failed), 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .exterior import ExtIdeal, MonomialIdealExt, groebner_ext, hilbert_ext, initial_data_ext, initial_ideal_ext
from .freealg import (
    FreeGroebnerCandidate,
    MonomialIdealFree,
    free_initial_ideal,
    hilbert_rational,
    normal_word_counts,
    obstructions_resolve,
)
from .gin import (
    GinRequest,
    _check_lifted_gin,
    gin_ext,
    gin_free,
    gin_lifted,
    hilbert_compare,
    hilbert_compare_ext,
    is_borel_fixed,
)
from .lifting import lift_groebner, squeezed_witness, stable_witness, strongly_stable_witness
from .orders import ExtOrderSpec, leading_term_ext
from .parsing import (
    IdealFile,
    ParseError,
    ext_poly_pairs,
    ext_poly_str,
    free_poly_pairs,
    free_poly_str,
    parse_ideal,
    parse_ranking,
    word_str,
)

EXIT_OK = 0
EXIT_MATH = 1
EXIT_INPUT = 2
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a closed stdout


class InputError(ValueError):
    pass


def _load(args) -> IdealFile:
    try:
        with open(args.file, encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    ideal = parse_ideal(text)
    if args.order or args.varorder:
        ranking = ideal.order.ranking
        if args.varorder:
            try:
                ranking = parse_ranking(args.varorder, ideal.ctx.n)
            except ValueError as exc:
                raise InputError(f"--varorder {exc}") from None
        order = ExtOrderSpec(args.order or ideal.order.kind, ranking)
        ideal = IdealFile(ideal.ctx, ideal.algebra, order, ideal.generators)
    return ideal


def _require(ideal: IdealFile, algebra: str, command: str) -> None:
    if ideal.algebra != algebra:
        raise InputError(f"'{command}' requires an ideal over the {algebra} algebra")


def _monomials(ideal: IdealFile, refusal: str) -> list:
    """The monomial or word of each generator; refuses any other generator."""
    if any(len(g) != 1 for g in ideal.generators):
        raise InputError(refusal)
    return [next(iter(g.terms)) for g in ideal.generators]


def cmd_gb(args) -> int:
    ideal = _load(args)
    _require(ideal, "exterior", "gb")
    I = ExtIdeal(ideal.ctx, ideal.generators, ideal.order)
    gb = groebner_ext(I)
    init = initial_ideal_ext(gb)
    result = {
        "command": "gb",
        "vars": ideal.ctx.n,
        "order": ideal.order.kind,
        "groebner_basis": [ext_poly_pairs(f, ideal.order) for f in gb.elements],
        "initial_ideal": [str(m) for m in init],
        "quotient_dimensions": hilbert_ext(gb),
    }
    if args.json:
        _emit_json(result)
    else:
        print(f"reduced minimal Groebner basis ({len(gb.elements)} elements):")
        for f in gb.elements:
            print(f"  {ext_poly_str(f, ideal.order)}")
        print("initial ideal minimal generators:")
        print("  " + (", ".join(result["initial_ideal"]) or "(zero ideal)"))
        print(f"quotient dimensions by degree: {result['quotient_dimensions']}")
    return EXIT_OK


def cmd_lift(args) -> int:
    ideal = _load(args)
    _require(ideal, "exterior", "lift")
    I = ExtIdeal(ideal.ctx, ideal.generators, ideal.order)
    gb = groebner_ext(I)
    try:
        lifted = lift_groebner(gb)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    order = ideal.free_order
    init = initial_ideal_ext(gb)
    squeezed, witness = squeezed_witness(init)
    result = {
        "command": "lift",
        "vars": ideal.ctx.n,
        "order": ideal.order.kind,
        "anti_commutators": [free_poly_pairs(F, order) for F in lifted.anti_commutators],
        "lifted_elements": [
            {
                "source_leading_monomial": str(leading_term_ext(f, ideal.order)[0]),
                "multiplier": str(u),
                "element": free_poly_pairs(F, order),
            }
            for f, u, F in lifted.lifted
        ],
        "initial_ideal_of_preimage": [word_str(w) for w in sorted(lifted.initial_mingens, key=order.word_key)],
        "squeezed": squeezed,
        "naive_lift_minimal": squeezed,
        "squeezed_witness": (
            {"generator": str(witness[0]), "multiplier": str(witness[1])}
            if witness
            else None
        ),
    }
    if args.json:
        _emit_json(result)
    else:
        print(f"anti-commutators: {len(lifted.anti_commutators)}")
        print(f"lifted elements ({len(lifted.lifted)}):")
        for f, u, F in lifted.lifted:
            print(f"  multiplier {u}: {free_poly_str(F, order)}")
        print("minimal generators of the preimage initial ideal:")
        print("  " + ", ".join(result["initial_ideal_of_preimage"]))
        verdict = "minimal" if squeezed else "NOT minimal"
        print(f"initial ideal squeezed: {squeezed} (naive lift is {verdict})")
        if witness:
            print(
                f"  witness: generator {witness[0]} admits "
                f"multiplier {witness[1]}"
            )
    return EXIT_OK


def cmd_verify(args) -> int:
    ideal = _load(args)
    _require(ideal, "free", "verify")
    order = ideal.free_order
    candidate = FreeGroebnerCandidate(ideal.ctx, list(ideal.generators), order)
    ok, failures = obstructions_resolve(candidate)
    maxdeg = args.maxdeg if args.maxdeg is not None else ideal.ctx.n + 1
    cone = MonomialIdealFree(candidate.leading_words, ideal.ctx.n, order)
    slice_dims = free_initial_ideal(list(ideal.generators), ideal.ctx, order, maxdeg).slice_dims
    counts = normal_word_counts(cone, maxdeg)
    dims = []
    dims_ok = True
    for d in range(maxdeg + 1):
        slice_dim = slice_dims.get(d, 0)
        cone_dim = ideal.ctx.n**d - counts[d]
        dims.append({"degree": d, "ideal_slice": slice_dim, "initial_cone": cone_dim})
        if slice_dim != cone_dim:
            dims_ok = False
    result = {
        "command": "verify",
        "vars": ideal.ctx.n,
        "order": ideal.order.kind,
        "obstructions_resolve": ok,
        "failing_obstructions": [
            {
                "pair": [word_str(candidate.leading_words[f.i]), word_str(candidate.leading_words[f.j])],
                "ambiguity": word_str(f.word),
                "remainder": free_poly_pairs(f.remainder, order),
            }
            for f in failures
        ],
        "initial_ideal": [word_str(w) for w in cone],
        "dimension_check": dims,
        "dimensions_agree": dims_ok,
    }
    if args.json:
        _emit_json(result)
    else:
        print(f"obstructions resolve: {ok}")
        for f in failures:
            print(
                f"  FAIL {word_str(candidate.leading_words[f.i])} / "
                f"{word_str(candidate.leading_words[f.j])} at {word_str(f.word)}: "
                f"remainder {free_poly_str(f.remainder, order)}"
            )
        print("initial ideal: " + ", ".join(result["initial_ideal"]))
        print(f"per-degree dimension cross-check (agree: {dims_ok}):")
        for row in dims:
            print(f"  degree {row['degree']}: slice {row['ideal_slice']}, cone {row['initial_cone']}")
    if not (ok and dims_ok):
        return EXIT_MATH
    return EXIT_OK


def cmd_gin(args) -> int:
    ideal = _load(args)
    maxdeg = args.maxdeg if args.maxdeg is not None else ideal.ctx.n + 1
    try:
        req = GinRequest(max_degree=maxdeg, seed=args.seed, trials=args.trials, height=args.height)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    result = {
        "command": "gin",
        "vars": ideal.ctx.n,
        "algebra": ideal.algebra,
        "order": ideal.order.kind,
        "seed": args.seed,
    }
    if ideal.algebra == "exterior":
        I = ExtIdeal(ideal.ctx, ideal.generators, ideal.order)
        try:
            _check_lifted_gin(I)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        res = gin_ext(I, req)
        cone = gin_lifted(I, res.gin)
        hilbert_ok = hilbert_compare_ext(I, res.gin)
        # the gin is stable in the exchange direction matching the term
        # order (x1 is smallest, so exchanges go toward larger indices)
        result.update(
            gin=[str(m) for m in res.gin],
            gin_strongly_stable=strongly_stable_witness(res.gin, toward_larger=True, n=ideal.ctx.n)[0],
            gin_stable=stable_witness(res.gin, toward_larger=True, n=ideal.ctx.n)[0],
            stability_exchange_direction="toward_larger",
            lifted_gin=[word_str(w) for w in cone],
        )
    else:
        order = ideal.free_order
        res = gin_free(list(ideal.generators), ideal.ctx, req, order)
        cone = res.gin
        hilbert_ok = hilbert_compare(list(ideal.generators), ideal.ctx, cone, maxdeg, order)
        result["gin"] = [word_str(w) for w in cone]
    borel_ok, borel_witness = is_borel_fixed(cone, ideal.ctx)
    agreement = res.agreement
    result.update(
        trial_seeds=list(res.trial_seeds),
        agreement=agreement,
        ideal_slice_dimensions={str(d): v for d, v in sorted(res.slice_dims.items())},
        borel_fixed=borel_ok,
        borel_witness=_borel_witness_json(borel_witness),
        hilbert_series_match=hilbert_ok,
    )
    if args.json:
        _emit_json(result)
    else:
        print(f"gin minimal generators: {', '.join(result['gin'])}")
        if "lifted_gin" in result:
            print(f"lifted gin minimal generators: {', '.join(result['lifted_gin'])}")
            print(f"gin strongly stable: {result['gin_strongly_stable']}")
        print(f"trials agree: {agreement} (seeds {result['trial_seeds']})")
        print(f"Borel-fixed: {borel_ok}")
        if borel_witness:
            w, (i, j), offending = borel_witness
            print(
                f"  witness: X{i} -> X{i} + X{j} maps {word_str(w)} onto "
                f"{word_str(offending)}, which is outside the ideal"
            )
        print(f"Hilbert series preserved: {hilbert_ok}")
    if not agreement:
        print("trials disagree: raise --height or choose a fresh --seed", file=sys.stderr)
        return EXIT_MATH
    if not hilbert_ok:
        return EXIT_MATH
    return EXIT_OK


def _borel_witness_json(witness):
    if witness is None:
        return None
    w, (i, j), offending = witness
    return {"generator": word_str(w), "transformation": [i, j], "offending_word": word_str(offending)}


def cmd_hilbert(args) -> int:
    ideal = _load(args)
    if ideal.algebra == "exterior":
        I = ExtIdeal(ideal.ctx, ideal.generators, ideal.order)
        vector = hilbert_ext(initial_data_ext(I))
        result = {
            "command": "hilbert",
            "vars": ideal.ctx.n,
            "algebra": "exterior",
            "quotient_dimensions": vector if args.maxdeg is None else vector[: args.maxdeg + 1],
            "numerator": vector,
            "denominator": [1],
        }
    else:
        maxdeg = args.maxdeg if args.maxdeg is not None else ideal.ctx.n + 1
        words = _monomials(ideal, "hilbert over the free algebra requires monomial generators")
        B = MonomialIdealFree(words, ideal.ctx.n, ideal.free_order)
        num, den = hilbert_rational(B)
        result = {
            "command": "hilbert",
            "vars": ideal.ctx.n,
            "algebra": "free",
            "quotient_dimensions": normal_word_counts(B, maxdeg),
            "numerator": num,
            "denominator": den,
        }
    if args.json:
        _emit_json(result)
    else:
        print(f"quotient dimensions by degree: {result['quotient_dimensions']}")
        print(f"rational form: numerator {result['numerator']}, denominator {result['denominator']}")
    return EXIT_OK


def cmd_predicates(args) -> int:
    ideal = _load(args)
    _require(ideal, "exterior", "predicates")
    L = MonomialIdealExt(_monomials(ideal, "this command requires monomial generators"), ideal.order)
    stable_ok, stable_wit = stable_witness(L)
    strong_ok, strong_wit = strongly_stable_witness(L)
    try:
        squeezed_ok, squeezed_wit = squeezed_witness(L)
    except ValueError as exc:
        raise InputError(str(exc)) from None

    def exchange_json(wit):
        if wit is None:
            return None
        m, i, j = wit
        return {"generator": str(m), "exchange": [i, j]}

    result = {
        "command": "predicates",
        "vars": ideal.ctx.n,
        "minimal_generators": [str(m) for m in L],
        "stable": stable_ok,
        "stable_witness": exchange_json(stable_wit),
        "strongly_stable": strong_ok,
        "strongly_stable_witness": exchange_json(strong_wit),
        "squeezed": squeezed_ok,
        "squeezed_witness": (
            {"generator": str(squeezed_wit[0]), "multiplier": str(squeezed_wit[1])}
            if squeezed_wit
            else None
        ),
    }
    if args.json:
        _emit_json(result)
    else:
        print(f"minimal generators: {', '.join(result['minimal_generators'])}")
        print(f"stable: {stable_ok}")
        if stable_wit:
            m, i, j = stable_wit
            print(f"  witness: x{i}*({m}/x{j}) is outside the ideal")
        print(f"strongly stable: {strong_ok}")
        if strong_wit:
            m, i, j = strong_wit
            print(f"  witness: x{i}*({m}/x{j}) is outside the ideal")
        print(f"squeezed: {squeezed_ok}")
        if squeezed_wit:
            print(
                f"  witness: generator {squeezed_wit[0]} admits "
                f"multiplier {squeezed_wit[1]}"
            )
    return EXIT_OK


def _emit_json(result: dict) -> None:
    print(json.dumps(result, indent=2, sort_keys=True))


def _degree_cap(text: str) -> int:
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return int(text)


class _Parser(argparse.ArgumentParser):
    """Refuses a command line with an InputError instead of exiting."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="extlift",
        description=(
            "Groebner bases of exterior-algebra ideals, their lifts to the "
            "free associative algebra, and generic initial ideals"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, gin_flags=False, maxdeg=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="ideal file (see README for the grammar)")
        p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
        p.add_argument("--order", choices=["deglex", "degrevlex"], help="override the base order")
        p.add_argument("--varorder", help="override the variable ranking, e.g. 2,1,3")
        if maxdeg:
            p.add_argument("--maxdeg", type=_degree_cap, help="degree cap (default n+1)")
        if gin_flags:
            p.add_argument("--seed", type=int, default=0, help="master PRNG seed (default 0)")
            p.add_argument("--trials", type=int, default=2, help="independent samples (default 2)")
            p.add_argument("--height", type=int, default=100, help="entry bound for random matrices")
        p.set_defaults(func=func)
        return p

    add("gb", cmd_gb, "reduced minimal exterior Groebner basis and initial ideal")
    add("lift", cmd_lift, "lift the basis to the preimage ideal in the free algebra")
    add("verify", cmd_verify, "check a candidate free-algebra Groebner basis", maxdeg=True)
    add("gin", cmd_gin, "generic initial ideal with Borel and Hilbert reports", gin_flags=True, maxdeg=True)
    add("hilbert", cmd_hilbert, "per-degree dimensions and rational Hilbert series", maxdeg=True)
    add("predicates", cmd_predicates, "stable / strongly stable / squeezed, with witnesses")
    return parser


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        finally:
            sys.stdout.flush()
    except (InputError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, as the signal module's docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


if __name__ == "__main__":
    sys.exit(main())
