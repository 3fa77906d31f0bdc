"""Text formats: .mon multiplication tables, .tgen transformation
generators, .dfa automata.  All three are line-oriented; '#' starts a
comment anywhere."""

from __future__ import annotations

import math

from .monoid import (FiniteMonoid, GeneratorMap, InputError, Record,
                     _check_name, generate_from_transformations)

MAX_TGEN_DEGREE = 1024


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((ln, line))
    return out


def _numeral(tok: str) -> float:
    """The value of a decimal numeral, or -1 if tok is not one.  int()
    refuses numerals past 4300 digits; those read as infinite."""
    if not tok.isdecimal():
        return -1
    try:
        return int(tok)
    except ValueError:
        return math.inf


def _keyed(lines: list[tuple[int, str]], k: int, key: str) -> list[str]:
    if k >= len(lines):
        raise InputError(f"missing '{key}:' line")
    ln, line = lines[k]
    if not line.startswith(key + ":"):
        raise InputError(f"line {ln}: expected '{key}:', got {line.split()[0]!r}")
    return line[len(key) + 1:].split()


def load_table(text: str) -> FiniteMonoid:
    """Parse and validate a .mon file: elements, identity, then one table
    row per element (row x lists x*y for every y in element order)."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty monoid file")
    names = _keyed(lines, 0, "elements")
    if not names:
        raise InputError("no elements listed")
    ident = _keyed(lines, 1, "identity")
    if len(ident) != 1:
        raise InputError("identity line needs exactly one name")
    if _keyed(lines, 2, "table"):
        raise InputError("'table:' line takes no values")
    order = len(names)
    pos = {nm: i for i, nm in enumerate(names)}
    if len(pos) != order:
        raise InputError("duplicate element names")
    rows = lines[3:]
    if len(rows) != order:
        raise InputError(f"expected {order} table rows, got {len(rows)}")
    table = []
    for ln, row in rows:
        toks = row.split()
        if len(toks) != order:
            raise InputError(f"line {ln}: expected {order} entries, got {len(toks)}")
        try:
            table.append(tuple(map(pos.__getitem__, toks)))
        except KeyError as exc:
            raise InputError(f"line {ln}: unknown element {exc.args[0]!r}") from None
    if ident[0] not in pos:
        raise InputError(f"unknown identity element {ident[0]!r}")
    M = FiniteMonoid(tuple(names), pos[ident[0]], tuple(table))
    M.validate()
    return M


def serialize_monoid(M: FiniteMonoid) -> str:
    """Canonical .mon text; load_table inverts it exactly."""
    return "".join(_mon_lines(M))


def _mon_lines(M: FiniteMonoid):
    """The lines of serialize_monoid's text, each ending in a newline, one
    table row at a time, so `-o` writes a table without joining it."""
    for nm in M.names:
        _check_name(nm)
    yield "elements: " + " ".join(M.names) + "\n"
    yield "identity: " + M.names[M.identity] + "\n"
    yield "table:\n"
    yield from (" ".join(map(M.names.__getitem__, row)) + "\n" for row in M.table)


def parse_tgen(text: str) -> tuple[FiniteMonoid, GeneratorMap]:
    """Parse a .tgen file: 'degree: d' then 'gen <name>: <d 1-based images>'
    lines; returns the generated transformation monoid."""
    lines = _content_lines(text)
    if not lines:
        raise InputError("empty generator file")
    deg_toks = _keyed(lines, 0, "degree")
    degree = _numeral(deg_toks[0]) if len(deg_toks) == 1 else -1
    if degree < 1:
        raise InputError("degree line needs one positive integer")
    if degree > MAX_TGEN_DEGREE:
        raise InputError(f"degree exceeds cap of {MAX_TGEN_DEGREE}")
    gens: dict[str, tuple[int, ...]] = {}
    for ln, line in lines[1:]:
        if not line.startswith("gen ") or ":" not in line:
            raise InputError(f"line {ln}: expected 'gen <name>: <images>'")
        head, _, tail = line.partition(":")
        name = head[4:].strip()
        if not name:
            raise InputError(f"line {ln}: generator needs a name")
        if name in gens:
            raise InputError(f"line {ln}: duplicate generator {name!r}")
        toks = tail.split()
        if len(toks) != degree:
            raise InputError(f"line {ln}: expected {degree} images, got {len(toks)}")
        images = []
        for tok in toks:
            v = _numeral(tok)
            if not 1 <= v <= degree:
                raise InputError(f"line {ln}: image {tok!r} not in 1..{degree}")
            images.append(v - 1)
        gens[name] = tuple(images)
    return generate_from_transformations(degree, gens)


class Dfa(Record):
    """A complete deterministic automaton; delta[state][letter] is total."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    start: int
    accepting: tuple[int, ...]
    delta: tuple[tuple[int, ...], ...]


def parse_dfa(text: str) -> Dfa:
    """Parse a .dfa file: states/alphabet/start/accept header lines followed
    by one 'delta: <state> <letter> <state>' line per pair."""
    lines = _content_lines(text)
    states = _keyed(lines, 0, "states")
    if not states:
        raise InputError("no states listed")
    spos = {s: i for i, s in enumerate(states)}
    if len(spos) != len(states):
        raise InputError("duplicate state names")
    alphabet = _keyed(lines, 1, "alphabet")
    if not alphabet:
        raise InputError("no letters listed")
    if len(set(alphabet)) != len(alphabet):
        raise InputError("duplicate letters")
    for a in alphabet:
        if len(a) != 1:
            raise InputError(f"letters are single symbols, got {a!r}")
    apos = {a: i for i, a in enumerate(alphabet)}
    start = _keyed(lines, 2, "start")
    if len(start) != 1 or start[0] not in spos:
        raise InputError("start line needs exactly one known state")
    accept = _keyed(lines, 3, "accept")
    for s in accept:
        if s not in spos:
            raise InputError(f"unknown accepting state {s!r}")
    delta: list[list[int | None]] = [[None] * len(alphabet) for _ in states]
    for ln, line in lines[4:]:
        toks = line.split()
        if len(toks) != 4 or toks[0] != "delta:":
            raise InputError(f"line {ln}: expected 'delta: <state> <letter> <state>'")
        _, src, letter, dst = toks
        if src not in spos or dst not in spos:
            raise InputError(f"line {ln}: unknown state")
        if letter not in apos:
            raise InputError(f"line {ln}: unknown letter {letter!r}")
        if delta[spos[src]][apos[letter]] is not None:
            raise InputError(f"line {ln}: duplicate transition for ({src}, {letter})")
        delta[spos[src]][apos[letter]] = spos[dst]
    for s, row in zip(states, delta):
        for a, v in zip(alphabet, row):
            if v is None:
                raise InputError(f"missing transition for ({s}, {a})")
    return Dfa(tuple(states), tuple(alphabet), spos[start[0]],
               tuple(sorted(spos[s] for s in set(accept))),
               tuple(tuple(row) for row in delta))  # type: ignore[arg-type]


def dfa_to_transition_monoid(d: Dfa) -> tuple[FiniteMonoid, GeneratorMap]:
    """Each letter acts on the state set; close those actions under
    composition.  The letter map makes words act like runs of the automaton."""
    maps = {
        a: tuple(d.delta[q][k] for q in range(len(d.states)))
        for k, a in enumerate(d.alphabet)
    }
    return generate_from_transformations(len(d.states), maps)
