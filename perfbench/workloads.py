"""Inputs and job lists of the benchmark's three workloads.

A job is one `mono ... --format machine` command.  Every workload is a list
of slots; a slot holds one job, or a fixed pool of variants of one job that
differ only in their generated words or splits.  The run seed picks one
variant per slot, so a different seed changes which words are used while
the lengths, arities and therefore the cost stay the same.  Every variant's
expected output is recorded in expected.json, which is why the pools are
finite.

The transformation monoids are generated here as .tgen text and turned
into .mon files with `mono from-tgen` during set-up; the program sees only
those files and the job arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

WORK = "perfbench/work"
WORKLOADS = ("structure", "expansion", "words")
POOL = 8           # variants per seeded slot
NOOP_EVERY = 3     # a no-op launch follows every third job


@dataclass(frozen=True)
class Job:
    """One `mono` command.  `code` and `facts` hold what is known about its
    result independently of the code under test: an exit code fixed by
    design, and stdout lines that must appear."""

    id: str
    args: tuple[str, ...]
    outs: tuple[str, ...] = ()
    code: int | None = None
    facts: tuple[str, ...] = ()

    @property
    def argv(self) -> tuple[str, ...]:
        return (*self.args, "--format", "machine")


@dataclass(frozen=True)
class Slot:
    id: str
    make: Callable[[str, int], Job]
    variants: int = 1

    def job(self, v: int) -> Job:
        return self.make(self.id if self.variants == 1 else f"{self.id}#{v}", v)


NOOP = Job("noop", ("lemma", "--u", "a", "--v", "a"))


def _w(name: str) -> str:
    return f"{WORK}/{name}"


def _full_transformations(degree: int) -> str:
    """T_degree from a cycle, a transposition and a collapse."""
    cycle = [*range(2, degree + 1), 1]
    swap = [2, 1, *range(3, degree + 1)]
    collapse = [1, 1, *range(3, degree + 1)]
    return (f"degree: {degree}\n"
            + "".join(f"gen {g}: {' '.join(map(str, m))}\n"
                      for g, m in (("c", cycle), ("t", swap), ("k", collapse))))


TGEN = {
    "T3": _full_transformations(3),   # 27 elements
    "T4": _full_transformations(4),   # 256 elements
    "T5": _full_transformations(5),   # 3125 elements: past the 512 cap
    # 52 elements on 4 points: big enough for a ~1 s stability sweep
    "M52": "degree: 4\ngen a: 2 3 1 2\ngen b: 4 2 1 2\n",
    "Z2": "degree: 2\ngen g: 2 1\n",
    "Z3": "degree: 3\ngen g: 2 3 1\n",
    "N3": "degree: 3\ngen a: 2 3 3\n",                 # 1, a, aa = 0
    "FF": "degree: 2\ngen s: 1 1\ngen r: 2 2\n",       # the flip-flop
    "T2": "degree: 2\ngen s: 2 1\ngen c: 1 1\n",
}
ORDERS = {"T3": 27, "T4": 256}   # |T_n| = n^n, not taken from the program
BAD_MON = "elements: 1 a\nidentity: 1\ntable:\n1 a\na\n"   # short last row

# the monoids each workload converts from .tgen during set-up
SETUP_TGEN = {
    "structure": ("T3", "T4", "M52"),
    "expansion": ("Z3", "N3", "FF", "T2"),
    "words": ("Z2", "FF", "T2"),
}


def setup_jobs(workload: str) -> list[Job]:
    return [Job(f"setup/{m}", ("from-tgen", _w(f"{m}.tgen"), "-o", _w(f"{m}.mon")),
                outs=(_w(f"{m}.mon"),),
                facts=(f"order={ORDERS[m]}",) if m in ORDERS else ())
            for m in SETUP_TGEN[workload]]


def inputs(workload: str, batch: list[Job]) -> dict[str, str]:
    """The files set-up writes: the generated .tgen files, the malformed
    table and the job argument list, by path from the checkout root."""
    files = {_w(f"{m}.tgen"): TGEN[m] for m in (*SETUP_TGEN[workload], "T5")}
    files[_w("bad.mon")] = BAD_MON
    files[_w("jobs.txt")] = "".join(f"{j.id}\t{' '.join(j.argv)}\n" for j in batch)
    return files


def _fixed(job_id: str, *args: str, **kw) -> Slot:
    return Slot(job_id, lambda i, v: Job(i, args, **kw))


def _common() -> list[Slot]:
    """Small jobs in every workload: the two expected-error jobs, and one
    cheap call into each layer, so every per-layer metric is measured on
    every workload."""
    return [
        _fixed("err/T5-cap", "from-tgen", _w("T5.tgen"), code=2),
        _fixed("err/bad-mon", "info", _w("bad.mon"), code=2),
        _fixed("from-dfa/flipflop", "from-dfa", "fixtures/flipflop.dfa"),
        _fixed("from-dfa/swap", "from-dfa", "fixtures/swap.dfa", "-o", _w("swap.mon"),
               outs=(_w("swap.mon"),)),
        _fixed("info/B21", "info", "fixtures/B21.mon"),
        _fixed("ideal/B21", "ideal", "fixtures/B21.mon", "ab"),
        _fixed("sweep/B21", "shadow", "fixtures/B21.mon", facts=("verdict=holds",)),
        # the localization property fails in N3: exit 1 by design
        _fixed("localize/N3", "shadow", "fixtures/N3.mon", "--map", "a=a",
               "--alphas", "a;a", "--ideals", "a^w|a^w",
               code=1, facts=("verdict=violated",)),
        _fixed("terms/Z3", "shadow", "fixtures/Z3.mon", "--map", "a=g,b=g2",
               "--alphas", "a^5;(ab)^w", "--ideals", "b^2|a"),
        _fixed("cut/Z2", "cut", "fixtures/Z2.mon", "-n", "3", "--map", "a=g", "aaaa"),
        _fixed("replay/Z2", "replay", "fixtures/Z2.mon", "-n", "2", "--map", "a=g",
               "--u", "aa,a", "--w", "a,aa"),
        _fixed("expand/Z2", "expand", "fixtures/Z2.mon", "-n", "2", "--gens", "a=g"),
    ]


def _structure() -> list[Slot]:
    slots = []
    for m, elem in (("T4", "ck"), ("T3", "ck"), ("M52", "ab")):
        size = (f"order={ORDERS[m]}",) if m in ORDERS else ()
        slots += [
            _fixed(f"info/{m}", "info", _w(f"{m}.mon"), facts=size),
            _fixed(f"greens/{m}", "greens", _w(f"{m}.mon")),
            _fixed(f"ideal/{m}", "ideal", _w(f"{m}.mon"), elem),
        ]
    slots += [
        _fixed("terms/T4", "shadow", _w("T4.mon"), "--map", "a=c,b=t,c=k",
               "--alphas", "a^3;(bc)^w", "--ideals", "c|(ab)^w,c^2"),
        _fixed("sweep/T3", "shadow", _w("T3.mon"), facts=("verdict=holds",)),
        _fixed("sweep/M52", "shadow", _w("M52.mon"), facts=("verdict=holds",)),
        _fixed("greens/B21", "greens", "fixtures/B21.mon"),
    ]
    return slots


# base .mon, letter map, arities; --table on some jobs, -o on the others
EXPANSIONS = (
    ("Z3", "a=g,b=gg", (2, 3, 4)),
    ("N3", "a=a,b=aa", (2, 3, 4)),
    ("FF", "a=s,b=r", (2, 3, 4)),
    ("T2", "a=s,b=c", (2, 3)),
)


def _expansion() -> list[Slot]:
    slots = []
    k = 0
    for base, gens, arities in EXPANSIONS:
        for n in arities:
            args = ("expand", _w(f"{base}.mon"), "-n", str(n), "--gens", gens)
            out = _w(f"exp-{base}-{n}.mon")
            if k % 2:
                slots.append(_fixed(f"expand/{base}-{n}", *args, "-o", out,
                                    outs=(out, out + ".map")))
            else:
                slots.append(_fixed(f"expand/{base}-{n}", *args, "--table"))
            k += 1
    slots.append(_fixed("expand/B21-2", "expand", "fixtures/B21.mon", "-n", "2",
                        "--gens", "a=a,b=b", "--table"))
    return slots


def _rng(slot_id: str, v: int) -> random.Random:
    return random.Random(f"{slot_id}/{v}")


def _split(rng: random.Random, word: str, parts: int) -> list[str]:
    """Random factorization into `parts` parts; empty parts allowed."""
    cuts = sorted(rng.randrange(len(word) + 1) for _ in range(parts - 1))
    bounds = (0, *cuts, len(word))
    return [word[bounds[k]:bounds[k + 1]] for k in range(parts)]


def _stem(mon: str) -> str:
    return mon.rsplit("/", 1)[-1].split(".")[0]


def _cut_slot(mon: str, gens: str, n: int, length: int, copy: int) -> Slot:
    sid = f"cut/{_stem(mon)}-n{n}-L{length}-{copy}"

    def make(i: str, v: int) -> Job:
        rng = _rng(sid, v)
        word = "".join(rng.choice("ab") for _ in range(length))
        return Job(i, ("cut", mon, "-n", str(n), "--map", gens, word))
    return Slot(sid, make, POOL)


def _lemma_slot(length: int, m: int, n: int, copy: int) -> Slot:
    sid = f"lemma/L{length}-{m}-{n}-{copy}"

    def make(i: str, v: int) -> Job:
        rng = _rng(sid, v)
        word = "".join(rng.choice("ab") for _ in range(length))
        return Job(i, ("lemma", "--u", ",".join(_split(rng, word, m)),
                       "--v", ",".join(_split(rng, word, n))))
    return Slot(sid, make, POOL)


def _odd_parts(rng: random.Random, total: int, parts: int) -> list[int]:
    """Random composition of `total` into `parts` odd numbers."""
    sizes = [1] * parts
    for _ in range((total - parts) // 2):
        sizes[rng.randrange(parts)] += 2
    return sizes


def _replay_slot(length: int, n: int, m: int) -> Slot:
    """Z2 with a -> g and b -> 1: the word a^odd (b) split into n parts that
    all hold an odd number of a's, so every target is g.  The word and the
    targets are fixed, which fixes match_factorization's enumeration; the
    seed picks the two splits."""
    sid = f"replay/L{length}-n{n}-m{m}"
    a_count = length if length % 2 == n % 2 else length - 1
    word = "a" * a_count + "b" * (length - a_count)

    def make(i: str, v: int) -> Job:
        rng = _rng(sid, v)
        ws, pos = [], 0
        for size in _odd_parts(rng, a_count, n):
            ws.append(word[pos:pos + size])
            pos += size
        ws[-1] += word[pos:]
        us = _split(rng, word, m)
        return Job(i, ("replay", _w("Z2.mon"), "-n", str(n), "--map", "a=g,b=1",
                       "--u", ",".join(us), "--w", ",".join(ws)))
    return Slot(sid, make, POOL)


def _terms_slot(mon: str, gens: str, big: bool) -> Slot:
    """Omega terms with seeded small exponents; with `big`, one exponent
    of about 10^7, which FiniteMonoid.power walks one step at a time."""
    sid = f"terms/{_stem(mon)}-{'big' if big else 'small'}"

    def make(i: str, v: int) -> Job:
        rng = _rng(sid, v)
        k = 10_000_000 + v if big else rng.randrange(2, 10)
        alphas = f"a^{k};(ab)^w" if rng.random() < 0.5 else f"(ba)^{rng.randrange(2, 6)}b;a^{k}"
        ideals = f"b^w|(a^{rng.randrange(2, 6)}b)^w,a"
        return Job(i, ("shadow", mon, "--map", gens, "--alphas", alphas, "--ideals", ideals))
    return Slot(sid, make, POOL)


# (monoid, letter map, arity, word length, copies).  Flip-flop cost hardly
# depends on the word; the others vary by about 20% from word to word, so
# they are kept small and spread over several copies.  Their profiles also
# stay smaller than flip-flop's at n=8, so the workload's peak RSS does not
# depend on the seed.
CUTS = (
    (_w("FF.mon"), "a=s,b=r", 8, 120, 2),
    (_w("FF.mon"), "a=s,b=r", 8, 60, 2),
    (_w("FF.mon"), "a=s,b=r", 6, 200, 2),
    ("fixtures/N3.mon", "a=a,b=0", 7, 60, 2),
    ("fixtures/N3.mon", "a=a,b=0", 6, 120, 2),
    ("fixtures/N3.mon", "a=a,b=0", 5, 200, 1),
    ("fixtures/B21.mon", "a=a,b=b", 4, 200, 2),
    ("fixtures/B21.mon", "a=a,b=b", 5, 60, 2),
    ("fixtures/B21.mon", "a=a,b=b", 5, 120, 2),
    (_w("T2.mon"), "a=s,b=c", 4, 120, 2),
    (_w("T2.mon"), "a=s,b=c", 5, 120, 2),
    (_w("T2.mon"), "a=s,b=c", 6, 60, 2),
)


def _words() -> list[Slot]:
    slots = [_cut_slot(mon, gens, n, length, c)
             for mon, gens, n, length, copies in CUTS for c in range(copies)]
    slots += [_replay_slot(16, 8, 4), _replay_slot(16, 8, 6), _replay_slot(18, 9, 5)]
    slots += [_terms_slot(_w("T2.mon"), "a=s,b=c", True),
              _terms_slot(_w("FF.mon"), "a=s,b=r", False),
              _terms_slot(_w("Z2.mon"), "a=g,b=1", False)]
    slots += [_lemma_slot(length, m, n, c)
              for length, m, n in ((12, 2, 3), (16, 3, 5), (24, 4, 4), (30, 5, 8))
              for c in range(2)]
    return slots


SLOTS = {"structure": _structure, "expansion": _expansion, "words": _words}


def slots(workload: str) -> list[Slot]:
    return [*SLOTS[workload](), *_common()]


def batch_jobs(workload: str, seed: int) -> list[Job]:
    """The workload's job list for one seed, with no-op launches
    interleaved to sample the start-up floor."""
    rng = random.Random(seed)
    chosen = [s.job(rng.randrange(s.variants)) for s in slots(workload)]
    batch = []
    for k, job in enumerate(chosen):
        batch.append(job)
        if k % NOOP_EVERY == NOOP_EVERY - 1:
            batch.append(NOOP)
    return batch


def every_job(workload: str) -> list[Job]:
    """Every variant of every job the workload can run, for recording."""
    return [*setup_jobs(workload), NOOP,
            *(s.job(v) for s in slots(workload) for v in range(s.variants))]
