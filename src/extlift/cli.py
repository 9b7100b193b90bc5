"""Command-line interface.

Commands: gb, lift, verify, gin, hilbert, predicates.  Results go to
stdout, human-readable by default or as stable JSON with --json;
diagnostics go to stderr.  Exit codes: 0 success, 1 mathematical failure
(verification or genericity agreement failed), 2 input error, 141 the
reader closed stdout before the output was written, or the process
started without one.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace

from .orders import ExtOrderSpec, leading_term_ext, leading_term_free
from .parsing import (
    IdealFile,
    ParseError,
    ext_poly_pairs,
    ext_poly_str,
    free_poly_pairs,
    free_poly_str,
    parse_ideal,
    parse_int,
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
    # bytes decoded here, not through the utf-8-sig codec, which a text-mode
    # open would import; parse_ideal's splitlines reads CRLF and CR alike
    try:
        with open(args.file, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputError(str(exc)) from None
    try:
        text = data.decode()
    except UnicodeDecodeError as exc:
        raise InputError(f"{args.file}: not UTF-8 text ({exc.reason} at byte offset {exc.start})") from None
    ideal = parse_ideal(text.removeprefix("\ufeff"))
    if args.order or args.varorder:
        ranking = ideal.order.ranking
        if args.varorder:
            try:
                ranking = parse_ranking(args.varorder, ideal.ctx.n)
            except ValueError as exc:
                raise InputError(f"--varorder {exc}") from None
        ideal.order = ExtOrderSpec(args.order or ideal.order.kind, ranking)
    return ideal


def _require(ideal: IdealFile, algebra: str, command: str) -> None:
    if ideal.algebra != algebra:
        raise InputError(f"'{command}' requires an ideal over the {algebra} algebra")


def _monomials(ideal: IdealFile, refusal: str) -> list:
    """The monomial or word of each generator; refuses any other generator."""
    if any(len(g) != 1 for g in ideal.multiples):
        raise InputError(refusal)
    return [next(iter(g.terms)) for g in ideal.multiples]


def cmd_gb(args) -> int:
    from .exterior import ExtIdeal, groebner_ext, hilbert_ext

    ideal = _load(args)
    _require(ideal, "exterior", "gb")
    I = ExtIdeal(ideal.ctx, ideal.multiples, ideal.order)
    gb = groebner_ext(I)
    # each element is N over its lead coefficient
    basis = [(N, leading_term_ext(N, ideal.order)[1]) for N in gb.multiples]
    result = {
        "command": "gb",
        "vars": ideal.ctx.n,
        "order": ideal.order.kind,
        "groebner_basis": [ext_poly_pairs(N, ideal.order, d) for N, d in basis],
        "initial_ideal": [str(m) for m in gb.initial],
        "quotient_dimensions": hilbert_ext(gb),
    }
    if args.json:
        _emit_json(result)
    else:
        print(f"reduced minimal Groebner basis ({len(basis)} elements):")
        for N, d in basis:
            print(f"  {ext_poly_str(N, ideal.order, d)}")
        print("initial ideal minimal generators:")
        print("  " + (", ".join(result["initial_ideal"]) or "(zero ideal)"))
        print(f"quotient dimensions by degree: {result['quotient_dimensions']}")
    return EXIT_OK


def cmd_lift(args) -> int:
    from .exterior import ExtIdeal, groebner_ext
    from .lifting import lift_groebner, squeezed_witness

    ideal = _load(args)
    _require(ideal, "exterior", "lift")
    I = ExtIdeal(ideal.ctx, ideal.multiples, ideal.order)
    gb = groebner_ext(I)
    try:
        lifted = lift_groebner(gb)
    except ValueError as exc:
        raise InputError(str(exc)) from None
    order = lifted.order
    squeezed, witness = squeezed_witness(gb.initial)
    result = {
        "command": "lift",
        "vars": ideal.ctx.n,
        "order": ideal.order.kind,
        "anti_commutators": [free_poly_pairs(F, order) for F in lifted.anti_commutators],
        "lifted_elements": [
            {"source_leading_monomial": str(m), "multiplier": str(u), "element": free_poly_pairs(N, order, d)}
            for m, u, N, d in lifted.multiples
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
        print(f"lifted elements ({len(lifted.multiples)}):")
        for _, u, N, d in lifted.multiples:
            print(f"  multiplier {u}: {free_poly_str(N, order, d)}")
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
    from .freealg import FreeGroebnerCandidate, MonomialIdealFree, dimension_check, ideal_slice_dims, obstructions_resolve

    ideal = _load(args)
    _require(ideal, "free", "verify")
    order = ideal.free_order
    # the candidate and the slice check read the generators' integer multiples
    gens = list(ideal.multiples)
    candidate = FreeGroebnerCandidate(ideal.ctx, gens, order)
    ok, failures = obstructions_resolve(candidate)
    maxdeg = args.maxdeg if args.maxdeg is not None else ideal.ctx.n + 1
    # the candidate's automaton counts the normal words; the cone only
    # names the minimal leading words
    cone = MonomialIdealFree(candidate.leading_words, ideal.ctx.n, order)
    slice_dims = ideal_slice_dims(gens, candidate.leading_words, ideal.ctx, order, maxdeg)
    rows = dimension_check(slice_dims, candidate.automaton, ideal.ctx.n, maxdeg)
    dims = [{"degree": d, "ideal_slice": s, "initial_cone": c} for d, s, c in rows]
    dims_ok = all(s == c for _, s, c in rows)
    result = {
        "command": "verify",
        "vars": ideal.ctx.n,
        "order": ideal.order.kind,
        "obstructions_resolve": ok,
        "failing_obstructions": [
            {
                "pair": [word_str(candidate.leading_words[f.i]), word_str(candidate.leading_words[f.j])],
                "ambiguity": word_str(f.word),
                "remainder": free_poly_pairs(f.scaled, order, f.scale),
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
                f"remainder {free_poly_str(f.scaled, order, f.scale)}"
            )
        print("initial ideal: " + ", ".join(result["initial_ideal"]))
        print(f"per-degree dimension cross-check (agree: {dims_ok}):")
        for row in dims:
            print(f"  degree {row['degree']}: slice {row['ideal_slice']}, cone {row['initial_cone']}")
    if not (ok and dims_ok):
        return EXIT_MATH
    return EXIT_OK


def cmd_gin(args) -> int:
    from .exterior import ExtIdeal, groebner_ext
    from .freealg import dimension_check, ideal_slice_dims
    from .gin import (
        GinRequest,
        _check_lifted_gin,
        gin_ext,
        gin_free,
        gin_lifted,
        hilbert_compare_ext,
        is_borel_fixed,
    )
    from .lifting import stable_witness, strongly_stable_witness

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
        I = ExtIdeal(ideal.ctx, ideal.multiples, ideal.order)
        try:
            _check_lifted_gin(I)
        except ValueError as exc:
            raise InputError(str(exc)) from None
        # dim (g.I)_d = dim I_d: the untransformed slices, once, before the
        # trials, which stop at those ranks
        slice_dims = groebner_ext(I).slice_dims
        dims = dict(enumerate(slice_dims))
        res = gin_ext(I, req, slice_dims)
        cone = gin_lifted(I, res.gin)
        hilbert_ok = hilbert_compare_ext(dims, ideal.ctx, res.gin)
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
        gens = list(ideal.multiples)
        leads = [leading_term_free(F, order)[0] for F in gens]
        dims = ideal_slice_dims(gens, leads, ideal.ctx, order, maxdeg)
        res = gin_free(gens, ideal.ctx, req, order)
        cone = res.gin
        # dim (g J)_d = dim J_d for g in GL, so the gin's cone counts J's slices
        hilbert_ok = all(s == c for _, s, c in dimension_check(dims, cone.automaton(), ideal.ctx.n, maxdeg))
        result["gin"] = [word_str(w) for w in cone]
    borel_ok, borel_witness = is_borel_fixed(cone, ideal.ctx)
    agreement = res.agreement
    result.update(
        trial_seeds=list(res.trial_seeds),
        agreement=agreement,
        ideal_slice_dimensions={str(d): v for d, v in sorted(dims.items())},
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
        _warn("trials disagree: raise --height or choose a fresh --seed")
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
        from .exterior import ExtIdeal, groebner_ext, hilbert_ext

        I = ExtIdeal(ideal.ctx, ideal.multiples, ideal.order)
        vector = hilbert_ext(groebner_ext(I))
        result = {
            "command": "hilbert",
            "vars": ideal.ctx.n,
            "algebra": "exterior",
            "quotient_dimensions": vector if args.maxdeg is None else vector[: args.maxdeg + 1],
            "numerator": vector,
            "denominator": [1],
        }
    else:
        from .freealg import MonomialIdealFree, hilbert_rational, normal_word_counts

        maxdeg = args.maxdeg if args.maxdeg is not None else ideal.ctx.n + 1
        words = _monomials(ideal, "hilbert over the free algebra requires monomial generators")
        B = MonomialIdealFree(words, ideal.ctx.n, ideal.free_order)
        num, den = hilbert_rational(B)
        result = {
            "command": "hilbert",
            "vars": ideal.ctx.n,
            "algebra": "free",
            "quotient_dimensions": normal_word_counts(B.automaton(), maxdeg),
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
    from .exterior import MonomialIdealExt
    from .lifting import check_natural_ranking, squeezed_witness, stable_witness, strongly_stable_witness

    ideal = _load(args)
    _require(ideal, "exterior", "predicates")
    try:
        # the exchanges and the squeezed test read the variable indices
        check_natural_ranking(ideal.order, ideal.ctx.n, "'predicates'")
    except ValueError as exc:
        raise InputError(str(exc)) from None
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
    print(_json(result, "\n"))


# What json.dumps(value, indent=2, sort_keys=True) writes, for the values
# the commands emit: dicts with str keys, lists, tuples, str, int, bool and
# None.  Written here so that no command imports the json package.  The
# escape pattern is compiled (and cached by re) when a string first needs it.
_JSON_ESCAPE = r'[\\"]|[^ -~]'
_JSON_ESCAPES = {"\\": "\\\\", '"': '\\"', "\b": "\\b", "\f": "\\f", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _json_escape(m) -> str:
    c = m.group()
    escape = _JSON_ESCAPES.get(c)
    if escape is not None:
        return escape
    code = ord(c)
    if code < 0x10000:
        return f"\\u{code:04x}"
    code -= 0x10000  # a surrogate pair, as ensure_ascii writes it
    return f"\\u{0xD800 | (code >> 10):04x}\\u{0xDC00 | (code & 0x3FF):04x}"


def _plain(s: str) -> bool:
    """Printable ASCII with no '"' and no '\\', which JSON writes as is."""
    return s.isascii() and s.isprintable() and '"' not in s and "\\" not in s


def _json_str(s: str) -> str:
    if _plain(s):
        return f'"{s}"'
    return '"' + re.sub(_JSON_ESCAPE, _json_escape, s) + '"'


def _json(value, newline: str) -> str:
    """``value`` as JSON, its nested lines starting with ``newline`` (a line
    break and the indent of ``value``'s own line)."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    sep = "," + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if type(value[0]) is str:
            try:
                plain = _plain("".join(value))
            except TypeError:  # a later item is not a str
                plain = False
            if plain:
                # strings written as is, such as a coefficient pair: one join
                return "[" + inner + '"' + f'",{inner}"'.join(value) + '"' + newline + "]"
        return "[" + inner + sep.join([_json(v, inner) for v in value]) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        if not all(isinstance(key, str) for key in value):
            raise TypeError("JSON object keys must be str")
        items = [f"{_json_str(key)}: {_json(value[key], inner)}" for key in sorted(value)]
        return "{" + inner + sep.join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _order(text: str) -> str:
    if text not in ("deglex", "degrevlex"):
        raise ValueError(f"expected deglex or degrevlex, got {text!r}")
    return text


# The flags every command takes, then each command's help line and own
# flags.  A flag maps to (converter, default, help); a converter of None
# makes a switch, any other reads one value and raises ValueError on a bad one.
COMMON_FLAGS = {
    "--json": (None, False, "emit machine-readable JSON"),
    "--order": (_order, None, "override the base order: deglex or degrevlex"),
    "--varorder": (str, None, "override the variable ranking, e.g. 2,1,3"),
}
_MAXDEG = {"--maxdeg": (parse_int, None, "degree cap (default n+1)")}
_GIN = {
    "--seed": (parse_int, 0, "master PRNG seed (default 0)"),
    "--trials": (parse_int, 2, "independent samples (default 2)"),
    "--height": (parse_int, 100, "entry bound for random matrices (default 100)"),
}
COMMANDS = {
    "gb": ("reduced minimal exterior Groebner basis and initial ideal", {}),
    "lift": ("lift the basis to the preimage ideal in the free algebra", {}),
    "verify": ("check a candidate free-algebra Groebner basis", _MAXDEG),
    "gin": ("generic initial ideal with Borel and Hilbert reports", {**_MAXDEG, **_GIN}),
    "hilbert": ("per-degree dimensions and rational Hilbert series", _MAXDEG),
    "predicates": ("stable / strongly stable / squeezed, with witnesses", {}),
}


def _print_usage(command: str | None):
    """Writes the help of one command, or of extlift (None), and exits 0."""
    about = (
        "Groebner bases of exterior-algebra ideals, their lifts to the free "
        "associative algebra, and generic initial ideals"
    )
    text, own = COMMANDS.get(command, (about, {}))
    lines = [f"usage: extlift {command or 'COMMAND'} FILE [--flag value | --flag=value ...]", "", text, ""]
    if command is None:
        lines += ["commands:", *(f"  {name:<12}{help}" for name, (help, _) in COMMANDS.items()), ""]
    lines += ["FILE is an ideal file (see README for the grammar)", "", "flags:" if command else "flags of every command:"]
    lines += [f"  {flag:<12}{help}" for flag, (_, _, help) in {**COMMON_FLAGS, **own}.items()]
    sys.stdout.write("\n".join(lines) + "\n")
    raise SystemExit(EXIT_OK)


def _read_args(argv: list) -> SimpleNamespace:
    """The command, its FILE and each of its flags (the last value given, or
    the default) from ``argv``.  Flag names are matched whole."""
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        _print_usage(None)
    if command not in COMMANDS:
        got = "" if command is None else f", got {command!r}"
        raise InputError(f"expected a command ({', '.join(COMMANDS)}){got}")
    flags = {**COMMON_FLAGS, **COMMANDS[command][1]}
    args = SimpleNamespace(command=command, file=None, **{flag[2:]: spec[1] for flag, spec in flags.items()})
    rest = iter(argv[1:])
    for arg in rest:
        if arg in ("-h", "--help"):
            _print_usage(command)
        if not arg.startswith("-"):
            if args.file is not None:
                raise InputError(f"'{command}' takes one FILE, got {args.file!r} and {arg!r}")
            args.file = arg
            continue
        flag, eq, text = arg.partition("=")
        if flag not in flags:
            raise InputError(f"'{command}' has no flag {flag}")
        convert = flags[flag][0]
        if convert is None:
            if eq:
                raise InputError(f"argument {flag}: takes no value")
            setattr(args, flag[2:], True)
            continue
        if not eq:
            text = next(rest, None)
            if text is None or text.startswith("--"):
                raise InputError(f"argument {flag}: expected a value")
        try:
            setattr(args, flag[2:], convert(text))
        except ValueError as exc:
            raise InputError(f"argument {flag}: {exc}") from None
    if args.file is None:
        raise InputError(f"'{command}' requires a FILE")
    return args


def _warn(message: str) -> None:
    """Write one diagnostic line to stderr.  A stderr that is missing or
    cannot be written loses the line, not the exit code; print would send
    it to stdout when ``sys.stderr`` is None."""
    try:
        sys.stderr.write(message + "\n")
        sys.stderr.flush()
    except (AttributeError, OSError):
        pass


def main(argv=None) -> int:
    if sys.stdout is None:
        # the process started with stdout closed (`>&-`): write into a pipe
        # without a reader, so that the command ends as a closed pipe does
        read_end, write_end = os.pipe()
        os.close(read_end)
        sys.stdout = open(write_end, "w")
    try:
        try:
            args = _read_args(sys.argv[1:] if argv is None else argv)
            # looked up per call, so that a wrapper set on cli.cmd_* (a tracer's) runs
            return globals()[f"cmd_{args.command}"](args)
        finally:
            sys.stdout.flush()
    except (InputError, ParseError) as exc:
        _warn(f"error: {exc}")
        return EXIT_INPUT
    except BrokenPipeError:
        # the reader closed stdout: send the rest to devnull, as the signal module's docs do
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE


def _run() -> int:
    """The ``extlift`` script and ``python -m extlift.cli``: runs ``main``,
    flushes its output and ends the process at once.

    Interpreter teardown would only free memory that the OS discards at
    exit anyway: the library registers no ``atexit`` callback and starts no
    thread.  An exception that escapes ``main`` (``--help``'s
    ``SystemExit`` too) takes the normal exit, and so does a process under
    a tracer or profiler, whose report is written at exit; ``main``'s code
    is then returned for ``sys.exit``."""
    code = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (AttributeError, OSError):
                pass  # a missing or closed stream has lost its output already
        os._exit(code)
    return code


if __name__ == "__main__":
    sys.exit(_run())
