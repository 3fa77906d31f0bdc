"""The `mono` command line: load monoids, inspect structure, build
expansions, and run the shadow checks.

Machine format (`--format machine`) is line-oriented `key=value` with keys
sorted, byte-stable across runs on identical inputs; human format keeps
insertion order and adds a timing line.  Exit codes: 0 success/holds,
1 a checked property failed or a hypothesis did not hold, 2 an input
error, a stated cap, running out of memory, or an output stream (stdout,
stderr or a file written with -o) that is closed or fails.

The grammar is one table, _COMMANDS.  A well-formed command is parsed
straight from it; argparse, built from the same table, is imported only
for help, usage errors and the forms the plain reader declines, such as
abbreviated options.
"""

from __future__ import annotations

import sys
import time
from itertools import compress
from types import SimpleNamespace

from .expansion import ExpandedMonoid, build_expansion, check_eta_aperiodic
from .formats import (_mon_lines, dfa_to_transition_monoid, load_table,
                      parse_dfa, parse_tgen)
from .monoid import (CapExceeded, FiniteMonoid, GeneratorMap, InputError,
                     _regular_elements, generator_map, greens, ideal_generated,
                     is_aperiodic, is_idempotent_ideal, is_prime_ideal,
                     minimal_ideal)
from .shadows import (ProfileMismatch, group_element_shadow,
                      ideal_product_shadow, parse_term, replay_factorization)
from .words import CutProfile, cut, lemma_factor, word_image

# The interpreter's own SHA-256 module, _sha2 from 3.12 and _sha256 before:
# hashlib would load OpenSSL's _hashlib, about a sixth of a launch.  A build
# without it falls back to hashlib.
try:
    if sys.version_info >= (3, 12):
        from _sha2 import sha256 as _sha256
    else:
        from _sha256 import sha256 as _sha256
except ImportError:
    from hashlib import sha256 as _sha256


def _digest(data: bytes) -> str:
    """The `input=` field: the first 12 hex digits of the SHA-256 of data."""
    return _sha256(data).hexdigest()[:12]


def _read(path: str) -> tuple[str, dict[str, str]]:
    """The file's text, and the report fields it starts: its digest."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return text, {"input": _digest(data)}


def _load(path: str) -> tuple[FiniteMonoid, dict[str, str]]:
    text, fields = _read(path)
    return load_table(text), fields


def _write(path: str, lines) -> None:
    """Write lines to the file at path through _emit, one at a time as they
    come; OSError with _emit's text if the file fails."""
    with open(path, "w", encoding="utf-8") as f:
        error = _emit(f, path, lines)
    if error is not None:
        raise OSError(error)


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _names(M: FiniteMonoid, ids) -> str:
    return "{" + ",".join(M.names[x] for x in sorted(ids)) + "}"


def _pair(M: FiniteMonoid, pair) -> str:
    return "(" + ",".join(M.names[x] for x in pair) + ")"


def _profile(M: FiniteMonoid, p: CutProfile) -> str:
    return "{" + ",".join(
        "(" + ",".join(map(M.names.__getitem__, t)) + ")" for t in p.tuples) + "}"


def _parse_map(M: FiniteMonoid, text: str) -> GeneratorMap:
    mapping: dict[str, int] = {}
    for item in text.split(","):
        letter, eq, name = item.partition("=")
        if not eq or not letter or not name:
            raise InputError(f"bad letter mapping {item!r} (want letter=element)")
        if len(letter) != 1:
            raise InputError(f"letters are single symbols, got {letter!r}")
        if letter in mapping:
            raise InputError(f"duplicate letter {letter!r}")
        mapping[letter] = M.element(name)
    return generator_map(M, mapping)


def _cmd_info(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    aper, witness = is_aperiodic(M)
    fields |= {
        "order": str(M.order),
        "identity": M.names[M.identity],
        "aperiodic": _bool(aper),
    }
    if not aper:
        fields["aperiodic_witness"] = M.names[witness]
    fields["idempotents"] = _names(M, M.idempotents())
    fields["regular_elements"] = _names(M, _regular_elements(M))
    fields["minimal_ideal"] = _names(M, minimal_ideal(M))
    return fields, 0


def _cmd_greens(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    gd = greens(M)

    def classes(cs) -> str:
        return "[" + ",".join(_names(M, c) for c in cs) + "]"

    # one pass over j_leq in (a, b) order, so the pairs come out sorted
    strict = [(a, b) for a, row in enumerate(gd.j_leq)
              for b in compress(range(len(row)), row) if a != b]
    fields |= {
        "r_classes": classes(gd.r_classes),
        "l_classes": classes(gd.l_classes),
        "j_classes": classes(gd.j_classes),
        "h_classes": classes(gd.h_classes),
        "j_order": ",".join(f"{a}<{b}" for a, b in strict),
    }
    return fields, 0


def _cmd_ideal(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    gens = [M.element(nm) for nm in args.elements]
    ideal = ideal_generated(M, gens)
    prime, witness = is_prime_ideal(M, ideal)
    fields |= {
        "generators": _names(M, gens),
        "ideal": _names(M, ideal),
        "idempotent": _bool(is_idempotent_ideal(M, ideal)),
        "prime": _bool(prime),
    }
    if witness is not None:
        fields["prime_witness"] = _pair(M, witness)
    return fields, 0


def _cmd_cut(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    g = _parse_map(M, args.map)
    profile = cut(M, g, args.word, args.n)
    fields |= {
        "word": args.word,
        "n": str(args.n),
        "image": M.names[word_image(M, g, args.word)],
        "size": str(len(profile.tuples)),
        "profile": _profile(M, profile),
    }
    return fields, 0


def _expansion_sidecar(E: ExpandedMonoid):
    """The `.map` lines, one per profile, each spread as its line is drawn."""
    return (f"P{i} eta={E.base.names[E.eta[i]]} rep={E.representatives[i]} "
            f"profile={_profile(E.base, E.profile(i))}\n" for i in range(E.order))


def _cmd_expand(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    g = _parse_map(M, args.gens)
    E = build_expansion(M, g, args.n)
    aper, witness = check_eta_aperiodic(E)
    counts: dict[int, int] = {}
    for e in E.eta:
        counts[e] = counts.get(e, 0) + 1
    fibers = sorted(counts.items())
    fields |= {
        "n": str(args.n),
        "base_order": str(M.order),
        "order": str(E.order),
        "generated_size": str(len(fibers)),
        "eta_fibers": ",".join(f"{M.names[e]}:{k}" for e, k in fibers),
        "eta_aperiodic": _bool(aper),
    }
    if not aper:
        fields["eta_witness"] = f"({M.names[witness[0]]},P{witness[1]})"
    if args.table:
        fields["table"] = ";".join(
            f"P{i}:" + ",".join(map(E.names.__getitem__, row))
            for i, row in enumerate(E.table))
    if args.out is not None:
        # the build spread every profile but the identity's: spread it now,
        # so that its cap stops the run before either file is opened
        E.profile(0)
        _write(args.out, _mon_lines(E.as_monoid()))
        _write(args.out + ".map", _expansion_sidecar(E))
        fields["out"] = args.out
    return fields, 0 if aper else 1


def _cmd_lemma(args) -> tuple[dict[str, str], int]:
    witness = lemma_factor(tuple(args.u.split(",")), tuple(args.v.split(",")))
    fields = {
        "input": _digest(f"{args.u}|{args.v}".encode("utf-8", "surrogateescape")),
        "u_parts": args.u,
        "v_parts": args.v,
        "i": str(witness.i),
        "j": str(witness.j),
        "offset": str(witness.offset),
    }
    return fields, 0


def _cmd_replay(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    g = _parse_map(M, args.map)
    fields |= {"n": str(args.n), "u_parts": args.u, "w_parts": args.w}
    try:
        result = replay_factorization(M, g, args.n, tuple(args.u.split(",")),
                                      tuple(args.w.split(",")))
    except ProfileMismatch as exc:
        fields["hypothesis"] = "false"
        fields["reason"] = str(exc)
        return fields, 1
    fields["hypothesis"] = "true"
    fields["v_parts"] = ",".join(result.parts)
    fields["i"] = str(result.witness.i)
    fields["j"] = str(result.witness.j)
    fields["offset"] = str(result.witness.offset)
    fields["part_image"] = M.names[result.part_image]
    fields["source_image"] = M.names[result.source_image]
    fields["membership"] = _bool(result.membership)
    return fields, 0


def _cmd_shadow(args) -> tuple[dict[str, str], int]:
    M, fields = _load(args.file)
    if args.alphas is None and args.ideals is None:
        sweep = group_element_shadow(M)
        fields["mode"] = "group_element"
        fields["checked"] = str(sweep.checked)
        fields["verdict"] = "holds" if sweep.holds else "violated"
        if not sweep.holds:
            fields["counterexamples"] = ";".join(
                f"({M.names[a]},{n},{lam})" for a, n, lam in sweep.counterexamples)
        return fields, 0 if sweep.holds else 1
    if args.alphas is None or args.ideals is None:
        raise InputError("--alphas and --ideals must be given together")
    if args.map is None:
        raise InputError("--map is required with --alphas/--ideals")
    g = _parse_map(M, args.map)
    alphas = [parse_term(t) for t in args.alphas.split(";")]
    ideal_gens = [[parse_term(t) for t in group.split(",")]
                  for group in args.ideals.split("|")]
    verdict = ideal_product_shadow(M, g, alphas, ideal_gens)
    fields["mode"] = "ideal_product"
    fields["m"] = str(len(alphas))
    fields["n"] = str(len(ideal_gens))
    fields["alphas"] = args.alphas
    fields["ideals"] = args.ideals
    fields["product"] = M.names[verdict.product]
    fields["ideal_product"] = _names(M, verdict.ideal_product)
    fields["hypothesis"] = _bool(verdict.hypothesis)
    fields["verdict"] = verdict.verdict
    if verdict.witness is not None:
        fields["witness_i"] = str(verdict.witness[0])
        fields["witness_j"] = str(verdict.witness[1])
    else:
        fields["membership"] = ";".join(
            f"{i + 1}:{j + 1}={_bool(verdict.membership[i][j])}"
            for i in range(len(alphas)) for j in range(len(ideal_gens)))
    return fields, 0 if verdict.verdict == "holds" else 1


def _from_report(M: FiniteMonoid, g: GeneratorMap, fields: dict[str, str],
                 out: str | None) -> tuple[dict[str, str], int]:
    """The report of `from-dfa`/`from-tgen`, writing M to `out` if given."""
    fields["order"] = str(M.order)
    fields["letter_images"] = ",".join(
        f"{a}:{M.names[x]}" for a, x in zip(g.alphabet, g.images))
    if out is not None:
        _write(out, _mon_lines(M))
        fields["out"] = out
    return fields, 0


def _cmd_from_dfa(args) -> tuple[dict[str, str], int]:
    text, fields = _read(args.file)
    d = parse_dfa(text)
    M, g = dfa_to_transition_monoid(d)
    fields["states"] = str(len(d.states))
    fields["letters"] = ",".join(d.alphabet)
    return _from_report(M, g, fields, args.out)


def _cmd_from_tgen(args) -> tuple[dict[str, str], int]:
    text, fields = _read(args.file)
    M, g = parse_tgen(text)
    return _from_report(M, g, fields, args.out)


_LETTER_MAP = "letter map a=elem,b=elem"
# each argument as (option strings or dest, add_argument keywords)
_FORMAT = (("--format",), {"choices": ("human", "machine"), "default": "human",
                           "help": "output rendering (default human)"})
_FILE = (("file",), {})
_ARITY = (("-n",), {"type": int, "required": True, "help": "arity"})
_U_PARTS = (("--u",), {"required": True, "help": "comma-separated u parts"})
_WRITE_MON = (("-o", "--out"), {"help": "write the monoid as .mon"})

# The grammar of `mono`, written once: each command's handler, help and
# arguments, in the order the parser holds them.  _build_parser() and
# _parse_plain() both read it.
_COMMANDS = {
    "info": (_cmd_info, "order, aperiodicity, idempotents, minimal ideal",
             (_FORMAT, _FILE)),
    "greens": (_cmd_greens, "Green's relation classes and the J-order",
               (_FORMAT, _FILE)),
    "ideal": (_cmd_ideal, "generated ideal with idempotency and primality",
              (_FORMAT, _FILE,
               (("elements",), {"nargs": "+", "help": "generator element names"}))),
    "cut": (_cmd_cut, "cut profile of a word at a given arity",
            (_FORMAT, _FILE, _ARITY,
             (("--map",), {"required": True, "help": _LETTER_MAP}),
             (("word",), {}))),
    "expand": (_cmd_expand, "build the cut-profile expansion",
               (_FORMAT, _FILE, _ARITY,
                (("--gens",), {"required": True, "help": _LETTER_MAP}),
                (("-o", "--out"),
                 {"help": "write the expansion as .mon plus sidecar"}),
                (("--table",), {"action": "store_true",
                                "help": "include the full table"}))),
    "lemma": (_cmd_lemma, "locate a part of one factorization inside another",
              (_FORMAT, _U_PARTS,
               (("--v",), {"required": True, "help": "comma-separated v parts"}))),
    "replay": (_cmd_replay, "re-factor matching part images and locate a factor",
               (_FORMAT, _FILE, _ARITY,
                (("--map",), {"required": True, "help": _LETTER_MAP}),
                _U_PARTS,
                (("--w",), {"required": True, "help": "comma-separated w parts"}))),
    "shadow": (_cmd_shadow,
               "finite shadow checks (stability sweep, or "
               "ideal-product membership with --alphas/--ideals)",
               (_FORMAT, _FILE, (("--map",), {"help": _LETTER_MAP}),
                (("--alphas",), {"help": "';'-separated omega terms"}),
                (("--ideals",),
                 {"help": "'|'-separated ideals, ',' between generators"}))),
    "from-dfa": (_cmd_from_dfa, "transition monoid of a .dfa file",
                 (_FORMAT, _FILE, _WRITE_MON)),
    "from-tgen": (_cmd_from_tgen, "transformation monoid generated by a .tgen file",
                  (_FORMAT, _FILE, _WRITE_MON)),
}


def _build_parser():
    """The argparse parser of _COMMANDS.  It prints help and usage errors,
    and parses what _parse_plain declines; argparse is imported only here,
    since with the re, enum, gettext, functools and collections modules it
    loads, building this parser takes longer than a whole plain launch."""
    import argparse

    class _ArgumentParser(argparse.ArgumentParser):
        """Writes help and usage errors through _emit, and raises OSError
        where argparse would drop a failed write; subparsers inherit it."""

        def _print_message(self, message, file=None):
            # argparse passes sys.stdout or sys.stderr, None when closed; a
            # None named wrongly needs both closed, so no line shows it
            error = _emit(file, "stdout" if file is sys.stdout else "stderr",
                          [message])
            if error is not None:
                raise OSError(error)

    p = _ArgumentParser(prog="mono", description="finite monoid workbench")
    sub = p.add_subparsers(dest="command", required=True)
    for name, (handler, help, arguments) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help)
        for flags, keywords in arguments:
            sp.add_argument(*flags, **keywords)
        sp.set_defaults(handler=handler)
    return p


def _parse_plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a well-formed argv, as argparse parses them, or None.

    Only plain forms are taken: the command first, option strings exactly
    as in _COMMANDS, each value as the next token or after the first '=' of
    an exact long option that takes one, and not starting with '-', every
    required option, and the exact positionals, a list in one run.
    Anything else (help, usage errors, abbreviations, --flag=x, -n=3, -n3,
    '--') is declined, so argparse owns every edge case."""
    if not argv or argv[0] not in _COMMANDS:
        return None
    handler, _, arguments = _COMMANDS[argv[0]]
    args = {"command": argv[0], "handler": handler}
    options, positionals = {}, []
    for flags, keywords in arguments:
        if not flags[0].startswith("-"):
            positionals.append((flags[0], keywords.get("nargs")))
            continue
        dest = flags[-1].lstrip("-")     # the long form comes last
        store_true = keywords.get("action") == "store_true"
        args[dest] = False if store_true else keywords.get("default")
        options.update(dict.fromkeys(flags, (dest, store_true, keywords)))
    # values holds each positional token with the number of options before
    # it: argparse takes a list only from one run of positionals
    values, given = [], []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            values.append((len(given), token))
            continue
        option, eq, value = token.partition("=")
        if option not in options or eq and not option.startswith("--"):
            return None
        dest, store_true, keywords = options[option]
        given.append(dest)
        if store_true:
            if eq:
                return None
            args[dest] = True
            continue
        if not eq:
            value = next(tokens, "-")   # a missing value declines too
        if value.startswith("-"):
            return None
        if "type" in keywords:
            try:
                value = keywords["type"](value)
            except ValueError:
                return None
        if value not in keywords.get("choices", (value,)):
            return None
        args[dest] = value
    if any(keywords.get("required") and dest not in given
           for dest, _, keywords in options.values()):
        return None
    last = len(positionals) - 1
    if positionals and positionals[-1][1] == "+":
        rest = values[last:]
        if not rest or len({run for run, _ in rest}) > 1:
            return None
        values = values[:last] + [(0, [token for _, token in rest])]
    if len(values) != len(positionals):
        return None
    for (dest, _), (_, value) in zip(positionals, values):
        args[dest] = value
    return SimpleNamespace(**args)


def _escape(text: str) -> str:
    # argv bytes that are not UTF-8 are echoed as \xNN, so the text stays
    # UTF-8; they are surrogates, which ASCII text cannot hold
    return text if text.isascii() else (
        text.encode("utf-8", "surrogateescape").decode("utf-8", "backslashreplace"))


def cli_dispatch(argv) -> int:
    argv = list(argv)
    try:
        args = _parse_plain(argv) or _build_parser().parse_args(argv)
        t0 = time.perf_counter()
        fields, code = args.handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except (InputError, CapExceeded, OSError, MemoryError) as exc:
        # reported after this block, once the handler's frames, and what
        # they hold, are freed
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
    else:
        elapsed = (time.perf_counter() - t0) * 1000
        if args.format == "machine":
            fields["command"] = args.command
            lines = (f"{k}={fields[k]}\n" for k in sorted(fields))
        else:
            lines = [f"mono {args.command}\n",
                     *(f"  {k}: {v}\n" for k, v in fields.items()),
                     f"  elapsed: {elapsed:.1f} ms\n"]
        message = _emit(sys.stdout, "stdout", lines)
        if message is None:
            return code
    # where stderr fails too there is nowhere left to say why
    _emit(sys.stderr, "stderr", [f"error: {message}\n"])
    return 2


def _emit(stream, name: str, lines) -> str | None:
    """Write lines to stream one at a time, escaped, then flush it: None
    once all of it is out, else the error text.  Every byte `mono` writes
    leaves through here: reports, help, `error:` lines and the files of
    -o.

    One line at a time, as lines yields them, so neither a report nor a
    file is joined whole first: a `.mon` file is a row to a line, its
    sidecar a profile to a line.  A `--table` or `profile=` field is still
    one line.  A None stream is a closed descriptor.  On a failure the
    stream's descriptor is pointed at devnull, so that what is left in its
    buffer is dropped when it is flushed again, at close or when the
    interpreter exits, which would fail again and exit 120.  A stream with
    no descriptor of its own, such as an in-process capture, is left as
    it is."""
    try:
        if stream is None:
            raise OSError(f"{name} is closed")
        for line in lines:
            stream.write(_escape(line))
        stream.flush()
        return None
    except (OSError, MemoryError) as exc:
        message = "out of memory" if isinstance(exc, MemoryError) else str(exc)
    try:
        fd = stream.fileno()
    except (AttributeError, OSError, ValueError):
        return message
    import os       # only here: a launch does not load os

    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)
    return message


def main() -> None:
    # UTF-8 whatever the locale or PYTHONIOENCODING; a None stream is a
    # closed descriptor, which _emit reports
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
