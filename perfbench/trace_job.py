"""Run one `mono` job in process, with spans around the calls into each
layer of monoidkit.

    python3 -I -S perfbench/trace_job.py SEED JOB_ID MONO_ARGS...

Run from the checkout root, in a fresh interpreter per job: `greens` is
cached on table equality, so two jobs in one process would hide its cost.
The worker first times a cold `import monoidkit.cli` from this checkout's
src/, then replaces the public functions listed in TARGETS, in every
monoidkit module that holds them, with wrappers that record a span (name,
start, end, parent) and counts taken from the return value.  `greens` is
traced as its own span wherever it is called, so its cost is not hidden
inside the `is_regular`/`is_aperiodic` spans that call it.  Then it runs
`cli_dispatch` on the job's arguments with stdout captured, times
`profile_product` on a seeded sample of profile pairs of every expansion
built, and prints one JSON object: exit code, captured stdout, spans and
counts.
"""

import sys
import time

_T0 = time.perf_counter()
sys.path.insert(0, "src")
import monoidkit.cli  # noqa: E402  (the timed cold import)

_T1 = time.perf_counter()

import contextlib  # noqa: E402
import functools  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
from collections import Counter  # noqa: E402

PROFILE_SAMPLE = 200   # profile_product calls timed per built expansion


def _expansion_counts(tracer, E):
    tracer.expansions.append(E)
    return {"expansion.order": E.order,
            "expansion.profile_tuples": sum(len(p.tuples) for p in E.profiles)}


# span name, module, attribute (Class.method allowed), counts from the result
TARGETS = (
    ("formats.load_table", "formats", "load_table",
     lambda t, M: {"monoid.order": M.order}),
    ("formats.parse_tgen", "formats", "parse_tgen", None),
    ("formats.parse_dfa", "formats", "parse_dfa", None),
    ("formats.dfa_to_transition_monoid", "formats", "dfa_to_transition_monoid", None),
    ("formats.serialize", "formats", "serialize_monoid", None),
    ("monoid.validate", "monoid", "FiniteMonoid.validate", None),
    ("monoid.power", "monoid", "FiniteMonoid.power", None),
    ("monoid.greens", "monoid", "greens",
     lambda t, gd: {"monoid.j_classes": len(gd.j_classes)}),
    ("monoid.is_regular", "monoid", "is_regular", None),
    ("monoid.is_aperiodic", "monoid", "is_aperiodic", None),
    ("monoid.ideal_generated", "monoid", "ideal_generated", None),
    ("monoid.is_prime_ideal", "monoid", "is_prime_ideal", None),
    ("monoid.is_idempotent_ideal", "monoid", "is_idempotent_ideal", None),
    ("monoid.minimal_ideal", "monoid", "minimal_ideal", None),
    ("monoid.closure", "monoid", "generate_from_transformations",
     lambda t, r: {"monoid.closure_elements": r[0].order}),
    ("words.cut", "words", "cut", lambda t, p: {"words.cut_tuples": len(p.tuples)}),
    ("words.match_factorization", "words", "match_factorization", None),
    ("words.lemma_factor", "words", "lemma_factor", None),
    ("expansion.build", "expansion", "build_expansion", _expansion_counts),
    ("expansion.eta_check", "expansion", "check_eta_aperiodic", None),
    ("shadows.sweep", "shadows", "group_element_shadow",
     lambda t, s: {"shadows.sweep_checked": s.checked}),
    ("shadows.ideal_product_shadow", "shadows", "ideal_product_shadow", None),
    ("shadows.parse_term", "shadows", "parse_term", None),
    ("shadows.evaluate", "shadows", "evaluate", None),
    ("shadows.replay", "shadows", "replay_factorization", None),
)
# Calls made inside these spans are not recorded: the sweep calls greens
# once per step, which would record hundreds of thousands of spans.
OPAQUE = frozenset({"shadows.sweep"})


class Tracer:
    """Spans are [name, start, end, parent index]; a call of a traced
    function from inside a span of the same name (recursion) or inside an
    opaque span is not recorded separately."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.open = set()
        self.opaque = 0
        self.counts = Counter()
        self.expansions = []

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.opaque or name in self.open:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            self.open.add(name)
            self.opaque += name in OPAQUE
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
                self.open.discard(name)
                self.opaque -= name in OPAQUE
            if count is not None:
                self.counts.update(count(self, result))
            return result
        return traced

    def install(self):
        """Replace each target in every monoidkit module that holds it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "monoidkit" or n.startswith("monoidkit.")]
        for name, mod, attr, count in TARGETS:
            owner = importlib.import_module(f"monoidkit.{mod}")
            cls, _, meth = attr.rpartition(".")
            if cls:
                holder = getattr(owner, cls)
                setattr(holder, meth, self.wrap(name, getattr(holder, meth), count))
                continue
            fn = getattr(owner, attr)
            traced = self.wrap(name, fn, count)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, traced)

    def sample_profile_products(self, seed, job_id):
        from monoidkit.expansion import profile_product
        for k, E in enumerate(self.expansions):
            rng = random.Random(f"{seed}/{job_id}/{k}")
            pairs = [(E.profiles[rng.randrange(E.order)], E.profiles[rng.randrange(E.order)])
                     for _ in range(PROFILE_SAMPLE)]
            start = time.perf_counter()
            for p, q in pairs:
                profile_product(E.base, E.n, p, q)
            self.spans.append(["expansion.profile_product_sample", start,
                               time.perf_counter(), -1])
            self.counts["expansion.profile_product_calls"] += PROFILE_SAMPLE


def main(argv):
    seed, job_id, args = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.spans.append(["cli.import", _T0, _T1, -1])
    tracer.install()
    dispatch = tracer.wrap("cli.dispatch", monoidkit.cli.cli_dispatch)
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = dispatch(args)
    tracer.sample_profile_products(seed, job_id)
    json.dump({"code": code, "stdout": captured.getvalue(),
               "spans": tracer.spans, "counts": tracer.counts}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
