"""Record the expected result of every job the benchmark can run.

    python3 perfbench/record.py

Runs every variant of every job of every workload once, untraced, and
writes perfbench/expected.json: per job id its arguments, exit code, and
the sha256 of its stdout and of each output file.  Run it only at a commit
whose outputs are known to be right; the benchmark then checks every later
commit against it.
"""

import json
import sys

import run
import workloads


def main() -> int:
    expected = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.every_job(workload)
        run.fresh_work_dir()
        run.write_inputs(workload, jobs)
        for job in jobs:
            o = run.execute(job, False, 0)
            entry = {"argv": list(job.argv), "code": o.code,
                     "stdout": run._sha(o.stdout), "files": o.files}
            if expected.setdefault(job.id, entry) != entry:
                print(f"error: {job.id} differs between workloads", file=sys.stderr)
                return 1
            print(f"{workload:9} {o.wall:7.3f}s code={o.code} {job.id}", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
