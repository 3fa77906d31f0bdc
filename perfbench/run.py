"""End-to-end and per-layer benchmark of the `mono` command line.

    python3 perfbench/run.py --workload {structure,expansion,words}
                             --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the package is imported from its
src/ and needs no build.  A closed loop with one client: this script runs
the workload's job list one job after another, each job a fresh
interpreter (`python3 -I -S`, so nothing from site-packages is loaded and
the package comes from this checkout), and repeats the list while another
pass fits in S seconds.  Every job's exit code, stdout digest and output
file digests are checked against expected.json, plus facts that do not
come from the code under test (see workloads.Job).

With --trace 0 the last stdout line reports the end-to-end metrics; with
--trace 1 each pass runs the list untraced and then traced (trace_job.py)
and reports the per-layer metrics and the tracing overhead, and the spans
are written to perfbench/work/trace-WORKLOAD.json.  See README.md for what
each metric means and which end-to-end metric each layer metric moves.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from workloads import WORK, Job

ROOT = Path(__file__).resolve().parent.parent
EXPECTED = Path(__file__).resolve().parent / "expected.json"
OLD = f"{WORK}/.old"
# An untraced job runs `mono` and, at exit, writes the VmHWM line of its
# own /proc/self/status to the file descriptor given as its first argument:
# getrusage's maxrss would also count the parent's RSS at spawn time.
LAUNCH = """import os, sys
fd = int(sys.argv.pop(1))
sys.path.insert(0, 'src')
try:
    from monoidkit.cli import main
    main()
finally:
    with open('/proc/self/status') as status:
        os.write(fd, ''.join(l for l in status if l.startswith('VmHWM')).encode())
"""
SETUP_REPS = 7
JOB_TIMEOUT_S = 25     # the slowest job takes about 4 s
RUN_LIMIT_S = 150      # no job starts after this, so a run ends within 180 s
ENV = {k: v for k, v in os.environ.items() if not k.startswith("MONO_")}

# per-layer time metrics: (span names, "total" or "self" time).  Self time
# leaves out the child spans: load_table without its validate child is the
# parse time; is_regular/is_aperiodic without their greens child.
LAYER_TIMES = {
    "formats.load_table_s": (("formats.load_table",), "total"),
    "formats.parse_s": (("formats.load_table",), "self"),
    "formats.parse_tgen_s": (("formats.parse_tgen",), "total"),
    "formats.from_dfa_s": (("formats.parse_dfa", "formats.dfa_to_transition_monoid"), "total"),
    "formats.serialize_s": (("formats.serialize",), "total"),
    "monoid.validate_s": (("monoid.validate",), "total"),
    "monoid.greens_s": (("monoid.greens",), "total"),
    "monoid.is_regular_s": (("monoid.is_regular",), "self"),
    "monoid.is_aperiodic_s": (("monoid.is_aperiodic",), "self"),
    "monoid.ideal_generated_s": (("monoid.ideal_generated",), "total"),
    "monoid.is_prime_ideal_s": (("monoid.is_prime_ideal",), "total"),
    "monoid.is_idempotent_ideal_s": (("monoid.is_idempotent_ideal",), "total"),
    "monoid.minimal_ideal_s": (("monoid.minimal_ideal",), "total"),
    "monoid.closure_s": (("monoid.closure",), "total"),
    "monoid.power_s": (("monoid.power",), "total"),
    "words.cut_s": (("words.cut",), "total"),
    "words.match_factorization_s": (("words.match_factorization",), "total"),
    "words.lemma_factor_s": (("words.lemma_factor",), "total"),
    "expansion.build_s": (("expansion.build",), "total"),
    "expansion.eta_check_s": (("expansion.eta_check",), "total"),
    "shadows.sweep_s": (("shadows.sweep",), "total"),
    "shadows.ideal_product_shadow_s": (("shadows.ideal_product_shadow",), "total"),
    "shadows.parse_term_s": (("shadows.parse_term",), "total"),
    "shadows.evaluate_s": (("shadows.evaluate",), "total"),
    "shadows.replay_s": (("shadows.replay",), "total"),
    "cli.import_s": (("cli.import",), "total"),
    "cli.dispatch_s": (("cli.dispatch",), "total"),
}
LAYER_COUNTS = ("monoid.j_classes", "monoid.closure_elements", "monoid.order",
                "words.cut_tuples", "expansion.order", "expansion.profile_tuples",
                "shadows.sweep_checked")


@dataclass
class Outcome:
    job: Job
    wall: float
    cpu: float
    rss_kb: int
    code: int | None
    stdout: bytes
    stderr: bytes
    files: dict[str, str | None]
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_sha(path: Path) -> str | None:
    return _sha(path.read_bytes()) if path.is_file() else None


def retire(path: Path) -> None:
    """Move an old file out of the way instead of deleting or truncating
    it: on a disk mounted with online discard, freeing blocks can stall
    the next file operations by tens of ms, inside a timed job.  The moved
    files are deleted after the measurements."""
    if path.exists():
        old = ROOT / OLD
        old.mkdir(exist_ok=True)
        path.rename(old / f"{time.perf_counter_ns()}")


def _spawn(cmd: list[str], rss_fd: int | None) -> tuple:
    """Run cmd; stdout and stderr come back through pipes, so a job never
    waits on the disk for them.  CPU time is this child's share of
    RUSAGE_CHILDREN; wall time runs from spawn to reap."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                pass_fds=() if rss_fd is None else (rss_fd,))
    finally:
        if rss_fd is not None:
            os.close(rss_fd)
    try:
        stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        stdout, stderr = proc.communicate()
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime
    return wall, cpu, proc.returncode, stdout, stderr


def execute(job: Job, traced: bool, seed: int) -> Outcome:
    """Run one job in a fresh interpreter."""
    for out in job.outs:
        retire(ROOT / out)
    if traced:
        cmd = [sys.executable, "-I", "-S", "perfbench/trace_job.py", str(seed), job.id, *job.argv]
        wall, cpu, code, stdout, stderr = _spawn(cmd, None)
        rss_kb = 0
    else:
        rss_r, rss_w = os.pipe()
        cmd = [sys.executable, "-I", "-S", "-c", LAUNCH, str(rss_w), *job.argv]
        with open(rss_r, "rb") as rss:
            wall, cpu, code, stdout, stderr = _spawn(cmd, rss_w)
            hwm = rss.read().split()   # b"VmHWM: <kB> kB"
        rss_kb = int(hwm[1]) if len(hwm) > 1 else 0
    outcome = Outcome(job, wall, cpu, rss_kb, code, stdout, stderr,
                      {p: _file_sha(ROOT / p) for p in job.outs})
    if traced:
        try:
            outcome.trace = json.loads(stdout.decode("utf-8").splitlines()[-1])
            outcome.code = outcome.trace["code"]
            outcome.stdout = outcome.trace["stdout"].encode("utf-8")
        except (ValueError, IndexError, KeyError, UnicodeDecodeError):
            outcome.code = None
            outcome.problems.append("traced worker printed no result")
    return outcome


def check(o: Outcome, expected: dict) -> None:
    """Compare with the recorded oracle and with the job's own facts."""
    job, p = o.job, o.problems
    exp = expected.get(job.id)
    if exp is None or exp["argv"] != list(job.argv):
        p.append("no recorded result for these arguments")
    else:
        if o.code != exp["code"]:
            p.append(f"exit code {o.code}, expected {exp['code']}")
        if _sha(o.stdout) != exp["stdout"]:
            p.append("stdout differs")
        if o.files != exp["files"]:
            p.append("output files differ")
    if job.code is not None and o.code != job.code:
        p.append(f"exit code {o.code}, {job.code} by design")
    if o.code == 2 and not o.stderr.startswith(b"error: "):
        p.append("exit 2 without an 'error:' line")
    lines = set(o.stdout.decode("utf-8", "replace").splitlines())
    p.extend(f"missing fact {f!r}" for f in job.facts if f not in lines)


def run_jobs(jobs: list[Job], traced: bool, seed: int, expected: dict,
             deadline: float) -> list[Outcome]:
    outcomes = []
    for job in jobs:
        if time.perf_counter() > deadline:
            o = Outcome(job, 0.0, 0.0, 0, None, b"", b"", {})
            o.problems.append("not run: the run's time limit was reached")
        else:
            o = execute(job, traced, seed)
            check(o, expected)
        outcomes.append(o)
    return outcomes


def fresh_work_dir() -> None:
    shutil.rmtree(ROOT / WORK, ignore_errors=True)
    (ROOT / WORK).mkdir(parents=True)


def write_inputs(workload: str, batch: list[Job]) -> None:
    for rel, text in workloads.inputs(workload, batch).items():
        retire(ROOT / rel)
        (ROOT / rel).write_text(text, encoding="utf-8")


def setup(workload: str, batch: list[Job], seed: int, expected: dict,
          deadline: float) -> tuple[float, list[Outcome]]:
    """Write the inputs and convert the generated .tgen files; timed."""
    start = time.perf_counter()
    write_inputs(workload, batch)
    outcomes = run_jobs(workloads.setup_jobs(workload), False, seed, expected, deadline)
    return time.perf_counter() - start, outcomes


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setups: list[float], passes: list[list[Outcome]]) -> dict:
    noop = [o.wall for b in passes for o in b if o.job is workloads.NOOP]
    return {
        "batch_s": (_median([sum(o.wall for o in b) for b in passes]), "s"),
        "cpu_s": (_median([sum(o.cpu for o in b) for b in passes]), "s"),
        "job_max_s": (_median([max(o.wall for o in b) for b in passes]), "s"),
        "startup_s": (_median(noop), "s"),
        "peak_rss_mb": (max(o.rss_kb for b in passes for o in b) / 1024, "MB"),
        "setup_s": (_median(setups), "s"),
    }, {"passes": len(passes), "startup_samples": len(noop), "setup_samples": len(setups)}


def layer_totals(traced: list[Outcome], t0: float, spans_out: list) -> dict:
    """Per-layer totals of one traced pass; appends its spans to spans_out."""
    total = defaultdict(float)
    own = defaultdict(float)
    counts = Counter()
    for seq, o in enumerate(traced):
        if not o.trace:
            continue
        spans = o.trace["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        for k, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            own[name] += end - start - child[k]
            spans_out.append({"job": o.job.id, "seq": seq, "id": k, "name": name,
                              "start": start - t0, "end": end - t0, "parent": parent,
                              "self": end - start - child[k]})
        counts.update(o.trace["counts"])
    metrics = {}
    for metric, (names, mode) in LAYER_TIMES.items():
        source = own if mode == "self" else total
        metrics[metric] = sum(source[n] for n in names)
    for c in LAYER_COUNTS:
        metrics[c] = counts[c]
    calls = counts["expansion.profile_product_calls"]
    metrics["expansion.profile_product_us"] = (
        total["expansion.profile_product_sample"] / calls * 1e6 if calls else 0.0)
    return metrics


def per_layer(pairs, t0: float, trace_out: dict) -> tuple[dict, dict]:
    """Median over passes of each layer metric, and the tracing overhead:
    traced minus untraced job wall time over the same jobs.  The spans and
    each pass's totals go to trace_out."""
    spans: list = []
    rows = [layer_totals(traced, t0, spans) for _, traced in pairs]
    trace_out.update(passes=rows, spans=spans)
    overhead = [sum(o.wall for o in traced[len(traced) - len(plain):])
                - sum(o.wall for o in plain) for plain, traced in pairs]
    metrics = {}
    for name in rows[0]:
        unit = "us" if name.endswith("_us") else "s" if name.endswith("_s") else "count"
        metrics[name] = (statistics.median(r[name] for r in rows), unit)
    metrics["trace.overhead_s"] = (statistics.median(overhead), "s")
    return metrics, {"passes": len(pairs)}


def checkout_ok() -> bool:
    return ((ROOT / "src/monoidkit/cli.py").is_file() and (ROOT / "fixtures").is_dir()
            and EXPECTED.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not checkout_ok():
        print(f"error: {ROOT} is not a monoidkit checkout (need src/monoidkit, "
              "fixtures/ and perfbench/expected.json)", file=sys.stderr)
        return 2
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))
    fresh_work_dir()
    t0 = time.perf_counter()
    deadline = t0 + RUN_LIMIT_S
    batch = workloads.batch_jobs(args.workload, args.seed)

    setups, outcomes = [], []
    for _ in range(SETUP_REPS):
        seconds, done = setup(args.workload, batch, args.seed, expected, deadline)
        setups.append(seconds)
        outcomes += done

    start = time.perf_counter()
    passes = []   # job outcomes, or (untraced, traced) pairs with --trace 1
    while True:
        if args.trace:
            plain = run_jobs(batch, False, args.seed, expected, deadline)
            traced = run_jobs([*workloads.setup_jobs(args.workload), *batch], True,
                              args.seed, expected, deadline)
            passes.append((plain, traced))
            outcomes += plain + traced
        else:
            passes.append(run_jobs(batch, False, args.seed, expected, deadline))
            outcomes += passes[-1]
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > args.seconds:
            break

    if args.trace:
        trace = {"workload": args.workload, "seed": args.seed}
        metrics, notes = per_layer(passes, start, trace)
        (ROOT / WORK / f"trace-{args.workload}.json").write_text(json.dumps(trace),
                                                                 encoding="utf-8")
    else:
        metrics, notes = end_to_end(setups, passes)
    shutil.rmtree(ROOT / OLD, ignore_errors=True)
    failed = [o for o in outcomes if o.problems]
    for o in failed[:20]:
        print(f"FAILED {o.job.id}: {'; '.join(o.problems)}", file=sys.stderr)
    width = max(map(len, metrics))
    for name, (value, unit) in metrics.items():
        print(f"{name:<{width}}  {value:.6g} {unit}")
    print("  ".join(f"{k}={v}" for k, v in notes.items()))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
