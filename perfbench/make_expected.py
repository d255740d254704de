"""Write expected.json: the content every job's output must have.

Runs each workload's jobs once at the default seed and stores the summary
that checks.py compares against (record lists, minimizers, the bounds CSV,
verify check ids/applicability/margin signs, graph rows).  Other seeds reuse
these summaries: their specs are numerical twins of the default ones (see
workloads.py), and every check also recomputes what it can independently.

Rerun only when a change to vlab alters what an output says, and say why in
the change that commits the new file:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from checks import summarize


def main() -> int:
    run._pin_environment()
    sys.path.insert(0, str(run.SRC))
    import vlab.cli as cli

    expected = {}
    for name in workloads.NAMES:
        workload = workloads.build(name, 0)
        seq_paths = run.prepare_inputs(workload)
        for job in workload.jobs:
            argv = workloads.job_argv(job, seq_paths)
            seconds, outcome = run.run_job(cli, argv)
            expected[job.job_id] = summarize(job.command, outcome)
            print(f"{job.job_id}: {seconds:.2f} s", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
