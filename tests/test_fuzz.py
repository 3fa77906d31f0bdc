"""Seeded fuzzing of the CLI's input files, term strings, part lists and
arities.

Each case mutates a shipped fixture (or a term, or a `lemma` or `replay`
part list) and runs it through `cli_dispatch`.  Whatever the input, the
exit code must be 0, 1 or 2, an exit 2 must come with exactly one `error:`
line on stderr, and no exception may escape.  Huge arities run `mono` in
a child process under a memory limit.  MONO_SEED pins the sample.
"""

import os
import random
import re
from pathlib import Path

import pytest

from monoidkit.cli import cli_dispatch
from helpers import run_mono

ROOT = Path(__file__).resolve().parent.parent
FIXDIR = ROOT / "fixtures"

# element, state and letter names of the fixtures, the formats' punctuation,
# and characters that are digits to str.isdigit but not to int()
POOL = "01239agbsrcqe \n\t:#^w()|,;-*²é٣"

CASES_PER_FILE = 16
TERMS = ("a", "a^w", "(ab)^w a", "a^2 b", "(a b^w)^3")
# what Python makes of a non-UTF-8 argv byte (0xff); argv only, never a file
ARGV_BYTE = "\udcff"


def mutate(rng: random.Random, text: str, kinds: int = 7) -> str:
    """One or two random edits; kinds=4 keeps to character and token edits."""
    for _ in range(rng.randint(1, 2)):
        lines = text.split("\n")
        op = rng.randrange(kinds)
        i = rng.randrange(len(text) + 1)
        if op == 0:
            text = text[:i] + rng.choice(POOL) + text[i + 1:]
        elif op == 1:
            text = text[:i] + text[i + 1:]
        elif op == 2:
            text = text[:i] + rng.choice(POOL) + text[i:]
        elif op == 3:
            # swap a token for another token of the text: the shape survives,
            # so mutated tables reach the associativity check
            toks = list(re.finditer(r"\S+", text))
            if toks:
                m = rng.choice(toks)
                text = text[:m.start()] + rng.choice(toks)[0] + text[m.end():]
        elif op == 4:
            del lines[rng.randrange(len(lines))]
            text = "\n".join(lines)
        elif op == 5:
            j = rng.randrange(len(lines))
            lines.insert(j, lines[j])
            text = "\n".join(lines)
        else:
            j, k = rng.randrange(len(lines)), rng.randrange(len(lines))
            lines[j], lines[k] = lines[k], lines[j]
            text = "\n".join(lines)
    return text


def huge_exponent(rng: random.Random, term: str) -> str:
    """Raise the term to an exponent of about 4300 digits, on either side
    of the longest numeral int() reads."""
    return f"({term})^" + "9" * rng.randint(4200, 4400)


def mutate_entries(rng: random.Random, text: str) -> str:
    """Set one or two table entries of a canonical .mon text to element
    names, so the table parses and meets the associativity check."""
    lines = text.split("\n")
    names = lines[0].split()[1:]
    for _ in range(rng.randint(1, 2)):
        r = rng.randrange(3, 3 + len(names))
        row = lines[r].split()
        row[rng.randrange(len(row))] = rng.choice(names)
        lines[r] = " ".join(row)
    return "\n".join(lines)


def split(rng: random.Random, word: str, parts: int) -> str:
    """The word cut into the given number of parts, comma-separated."""
    cuts = sorted(rng.randint(0, len(word)) for _ in range(parts - 1))
    return ",".join(word[i:j] for i, j in zip([0] + cuts, cuts + [len(word)]))


def cases(rng: random.Random, tmp: Path):
    """(argv, mutated text) pairs: every fixture file, then term strings,
    then lemma part lists, then replay part lists."""
    k = 0
    for src in sorted(FIXDIR.iterdir()):
        for _ in range(CASES_PER_FILE):
            text = src.read_text()
            if src.suffix == ".mon" and rng.random() < 0.5:
                text = mutate_entries(rng, text)
            else:
                text = mutate(rng, text)
            path = tmp / f"case{k}{src.suffix}"
            k += 1
            path.write_text(text, encoding="utf-8")
            if src.suffix == ".tgen":
                yield ["from-tgen", str(path)], text
            elif src.suffix == ".dfa":
                yield ["from-dfa", str(path)], text
            else:
                cmd = rng.choice(("info", "greens", "shadow"))
                yield [cmd, str(path)], text
    for k in range(4 * CASES_PER_FILE):
        terms = [rng.choice(TERMS) for _ in range(4)]
        terms = [mutate(rng, t, 4) if rng.random() < 0.5 else t for t in terms]
        if k % 8 == 7:
            i = rng.randrange(4)
            terms[i] = huge_exponent(rng, terms[i])
        alphas, ideals = ";".join(terms[:2]), "|".join(terms[2:])
        name, gens = rng.choice((("B21", "a=a,b=b"), ("N3", "a=a,b=0")))
        argv = ["shadow", str(FIXDIR / f"{name}.mon"), "--map", gens,
                f"--alphas={alphas}", f"--ideals={ideals}"]
        yield argv, f"{alphas} | {ideals}"
    for k in range(4 * CASES_PER_FILE):
        word = "".join(rng.choices(("a", "b", ARGV_BYTE), k=rng.randint(0, 6)))
        m = rng.randint(1, 3)
        u, v = split(rng, word, m), split(rng, word, m + rng.randint(0, 2))
        if k % 2:
            u, v = mutate(rng, u, 4), mutate(rng, v, 4)
        yield ["lemma", f"--u={u}", f"--v={v}"], f"{u} | {v}"
    for k in range(2 * CASES_PER_FILE):
        name, gens = rng.choice((("Z2", "a=g,b=1"), ("flipflop", "a=s,b=r")))
        word = "".join(rng.choices("ab", k=rng.randint(0, 8)))
        n = rng.randint(1, 4)
        u, w = split(rng, word, rng.randint(1, n)), split(rng, word, n)
        if k % 2:
            u, w = mutate(rng, u, 4), mutate(rng, w, 4)
        argv = ["replay", str(FIXDIR / f"{name}.mon"), "-n", str(n), "--map", gens,
                f"--u={u}", f"--w={w}"]
        yield argv, f"{u} | {w}"


def test_mutated_inputs_keep_the_exit_code_contract(tmp_path, capsys):
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    seen = set()
    for argv, text in cases(rng, tmp_path):
        try:
            code = cli_dispatch(argv + ["--format", "machine"])
        except Exception as exc:  # any escaping exception is the failure
            pytest.fail(f"{argv[0]} on {text!r} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in (0, 1, 2), (argv[0], text, code)
        if code == 2:
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), (text, err)
        seen.add(code)
    assert {0, 2} <= seen


def test_huge_arities_keep_the_exit_code_contract():
    # cut and expand at arities of 1, 10^5, 10^10 and 3000 digits.  Each map
    # sends its last letter to 1, and one word per arity is that letter
    # alone: its profile is one tuple of n entries, which passes the tuple
    # cap and stops at the entries cap.  A word with a letter of image
    # other than 1 has a sequence of one part or more, and its profile is
    # past the tuple cap at n >= 10^5.  Each run is a child under a 200 MB
    # address-space limit, and none of them may run out of memory
    pytest.importorskip("resource")
    rng = random.Random(int(os.environ.get("MONO_SEED", "0")))
    seen = set()
    for name, images in (("Z2", "a=g,b=1"), ("N3", "a=a,b=0,c=1"),
                         ("flipflop", "a=s,b=r,c=1")):
        letters = "".join(pair[0] for pair in images.split(","))
        for n in (1, 10**5, 10**10, int("9" * 3000)):
            mon = str(FIXDIR / f"{name}.mon")
            words = ("".join(rng.choices(letters, k=rng.randint(2, 6))),
                     letters[-1] * rng.randint(1, 3))
            for argv in (*(["cut", mon, "-n", str(n), "--map", images, word]
                           for word in words),
                         ["expand", mon, "-n", str(n), "--gens", images]):
                proc = run_mono([*argv, "--format", "machine"], mem_kb=200 << 10,
                                timeout=60, text=True)
                case = (argv[0], name, len(str(n)), argv[-1], proc.stderr[-300:])
                assert proc.returncode in (0, 2), case
                if proc.returncode == 2:
                    lines = proc.stderr.splitlines()
                    assert len(lines) == 1 and lines[0].startswith("error: "), case
                    assert n < 10**5 or lines[0] != "error: out of memory", case
                seen.add(proc.returncode)
    assert seen == {0, 2}
