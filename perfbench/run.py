"""vlab benchmark: one workload per process, jobs one at a time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload records --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0

``--workload`` is one of records, oracle, certify, or ``all``, which runs
each in a fresh process of its own and prints every end-to-end metric with
its unit.  The last line of a single-workload run is one JSON object with
the keys correct, attempted, failed and metrics; the lines before it give
machine facts, per-job times and output hashes, per-command times and the
budget skip count.

The workload process imports ``vlab.cli`` from ``src/`` of the checkout and
calls ``vlab.cli.run(argv)`` for each job in a closed loop with one client.
It runs whole passes over the job list while a further pass still fits in
``--seconds`` (at least one).  Set-up (interpreter start plus ``import
vlab.cli``) is timed in fresh interpreters; the sequence files that
``certify`` reads are made by ``vlab sequence`` in a separate process before
any timing, and kept in a cache keyed by the source tree.

Set-up and job times are reported at the host's reference speed, measured by
a probe loop that runs around and during each of them (see speed.py); the
lines before the result also give the raw wall times.

With ``--trace 1`` the run adds one traced pass (see tracing.py), the kernel
microbenchmarks and the import profile, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed
import tracing
import workloads
from checks import Outcome, check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
EXPECTED = HERE / "expected.json"

SETUP_SAMPLES = 7

COMMANDS = ("sequence", "oracle", "bounds", "verify", "graph")


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pin_environment() -> None:
    """Set for this process and every interpreter it starts (they inherit the
    environment): the checkout's sources on the path, numpy/BLAS thread pools
    capped at nproc, and the CLI's default precision."""
    os.environ["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = str(_nproc())
    os.environ.pop("VLAB_PRECISION_BITS", None)


def machine_facts() -> dict:
    limit = None
    try:
        raw = Path("/sys/fs/cgroup/memory.max").read_text().strip()
        limit = None if raw == "max" else int(raw) // 2**20
    except (OSError, ValueError):
        pass
    if limit is None:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                limit = int(line.split()[1]) // 1024
    import numpy
    return {"nproc": _nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "memory_limit_mb": limit}


# -- set-up and inputs ------------------------------------------------------------


#: run in a fresh interpreter: ``import vlab.cli`` under the speed probe
_SETUP_CODE = """\
import sys
sys.path.append(sys.argv[1])
import speed
with speed.Probed() as probed:
    import vlab.cli
print(repr(probed.samples[0][0]), repr(probed.samples[0][1]), *map(repr, probed.seconds))
"""


def time_setup(samples: int = SETUP_SAMPLES) -> list:
    """(raw, reference) seconds from spawning an interpreter until ``import
    vlab.cli`` returns.  The import runs under the speed probe; the
    interpreter start before it counts at the mean speed of a probe run just
    before the spawn and the first probe in the new interpreter."""
    out = []
    for _ in range(samples):
        before = speed.probe()[1]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(HERE)], cwd=str(ROOT),
                              capture_output=True, text=True, timeout=120, check=True)
        first, first_s, raw, ref = map(float, proc.stdout.split())
        boot = first - start
        out.append((boot + raw, boot * (speed.REF_S / before + speed.REF_S / first_s) / 2 + ref))
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def prepare_inputs(workload) -> dict:
    """Sequence files for ``certify``, made by ``vlab sequence`` in a process
    of their own so that neither their time nor their memory is measured."""
    if not workload.inputs:
        return {}
    cache = WORK / "inputs" / _source_digest()
    cache.mkdir(parents=True, exist_ok=True)
    paths, todo = {}, []
    for inp in workload.inputs:
        path = cache / f"{inp.xi.replace(':', '_')}-{inp.n}-{inp.max_height}.json"
        paths[inp.name] = str(path)
        if not path.is_file():
            todo.append(["sequence", "--xi", inp.xi, "--n", str(inp.n),
                         "--max-height", str(inp.max_height), "--out", str(path) + ".tmp"])
    if todo:
        code = ("import sys, json, vlab.cli\n"
                "for argv in json.loads(sys.argv[1]):\n"
                "    if vlab.cli.run(argv) != 0: sys.exit(1)\n")
        subprocess.run([sys.executable, "-c", code, json.dumps(todo)], cwd=str(ROOT),
                       check=True, timeout=600)
        for argv in todo:
            os.replace(argv[-1], argv[-1][:-4])
    return paths


# -- jobs ----------------------------------------------------------------------------


def run_job(cli, argv, tracer=None, job_id=None):
    """(seconds, reference seconds, Outcome) of one in-process
    ``vlab.cli.run(argv)``, run under the speed probe.  In a traced job the
    probes fall inside the spans (about 1.5% of their time)."""
    out, err = io.StringIO(), io.StringIO()
    code, crash = None, None
    probed = speed.Probed()

    def call():
        return cli.run(argv)

    try:
        with probed, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = tracer.job(job_id, call) if tracer is not None else call()
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a crash is a result to report, not a reason to stop
        crash = traceback.format_exc(limit=-3)
    seconds, ref_seconds = probed.seconds
    return seconds, ref_seconds, Outcome(code, out.getvalue(), err.getvalue(), crash)


def run_pass(cli, workload, seq_paths, expected, tracer=None):
    """Run every job once; returns the list of per-job results."""
    results = []
    for job in workload.jobs:
        argv = workloads.job_argv(job, seq_paths)
        gc.collect()
        seconds, ref_seconds, outcome = run_job(cli, argv, tracer, job.job_id)
        xi = argv[argv.index("--xi") + 1] if "--xi" in argv else None
        verdict = check(job.command, argv, xi, outcome, expected[job.job_id])
        results.append({"job": job.job_id, "command": job.command, "seconds": seconds,
                         "ref_seconds": ref_seconds, "sha256": outcome.sha256(),
                         "verdict": verdict})
    return results


def measure(workload, seconds: float, trace: bool) -> dict:
    expected = json.loads(EXPECTED.read_text())
    setup = time_setup()
    seq_paths = prepare_inputs(workload)
    sys.path.insert(0, str(SRC))
    import vlab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"vlab imported from {cli.__file__}, not from {SRC}")

    passes = []
    begin = time.perf_counter()
    while True:
        passes.append(run_pass(cli, workload, seq_paths, expected))
        walls = [sum(r["seconds"] for r in p) for p in passes]
        if time.perf_counter() - begin + statistics.median(walls) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    report = {"setup": setup, "passes": passes, "walls": walls, "peak_rss_mb": peak_rss_mb}
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        try:
            traced = run_pass(cli, workload, seq_paths, expected, tracer)
        finally:
            tracer.unhook()
        report["traced"] = traced
        report["tracer"] = tracer
        report["kernels"] = tracing.kernels()
        report["imports"] = tracing.import_profile(str(ROOT))
    return report


# -- reporting ---------------------------------------------------------------------------


def summarize(workload, report: dict, trace: bool) -> dict:
    passes = report["passes"] + ([report["traced"]] if trace else [])
    flat = [r for p in passes for r in p]
    attempted = len(flat)
    failed = sum(1 for r in flat if not r["verdict"].ok)
    requested = sum(r["verdict"].requested for r in flat)
    delivered = sum(r["verdict"].delivered for r in flat if r["verdict"].ok)
    walls = report["walls"]
    ref_walls = [sum(r["ref_seconds"] for r in p) for p in report["passes"]]
    median_pass = report["passes"][ref_walls.index(statistics.median_low(ref_walls))]
    per_command = {c: sum(r["ref_seconds"] for r in median_pass if r["command"] == c)
                   for c in COMMANDS}
    setup_raw = [raw for raw, _ in report["setup"]]
    setup_ref = [ref for _, ref in report["setup"]]
    skipped = sum(r["verdict"].skipped_for_budget for r in median_pass)

    print(f"machine: {json.dumps(machine_facts(), sort_keys=True)}")
    print(f"workload: {workload.name}  passes: {len(walls)}  "
          f"pass walls (s): {', '.join(f'{w:.3f}' for w in walls)}  "
          f"at reference speed: {', '.join(f'{w:.3f}' for w in ref_walls)}")
    print(f"  set-up (s): {', '.join(f'{w:.3f}' for w in setup_raw)}  "
          f"at reference speed: {', '.join(f'{w:.3f}' for w in setup_ref)}")
    for i, job in enumerate(workload.jobs):
        times = [p[i]["seconds"] for p in report["passes"]]
        ref_times = [p[i]["ref_seconds"] for p in report["passes"]]
        last = report["passes"][-1][i]
        verdict = last["verdict"]
        print(f"  job {job.job_id:<34} median {statistics.median(times):8.3f} s  "
              f"{statistics.median(ref_times):8.3f} s at ref  "
              f"sha256 {last['sha256'][:16]}  {'ok' if verdict.ok else 'FAIL ' + verdict.reason}")
    for command, secs in per_command.items():
        if any(j.command == command for j in workload.jobs):
            print(f"  {command}_s = {secs:.4f} s at reference speed")
    print(f"  skipped_for_budget = {skipped} count")

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_ref),
            "wall_s": statistics.median(ref_walls),
            "peak_rss_mb": report["peak_rss_mb"],
            "ok_ratio": (attempted - failed) / attempted,
            "answered_ratio": delivered / requested if requested else 1.0,
        }
        units = metric_units("end_to_end")
    else:
        tracer = report["tracer"]
        metrics = tracing.layer_metrics(tracer)
        metrics.update(report["kernels"])
        metrics.update(report["imports"])
        for command, secs in per_command.items():
            metrics[f"{command}_s"] = secs
        metrics["skipped_for_budget"] = skipped
        metrics["raw.setup_s"] = statistics.median(setup_raw)
        metrics["raw.wall_s"] = statistics.median(walls)
        traced_wall = sum(r["ref_seconds"] for r in report["traced"])
        metrics["trace.wall_s"] = traced_wall
        metrics["trace.overhead_s"] = traced_wall - statistics.median(ref_walls)
        units = metric_units("per_layer")
        missing = [p for p, _ in tracer.absent]
        if missing:
            print(f"  absent hooks (their metrics are omitted): {', '.join(missing)}")
        WORK.mkdir(exist_ok=True)
        spans_path = WORK / f"spans-{workload.name}.json"
        spans_path.write_text(json.dumps(
            {"fields": ["name", "layer", "start", "end", "parent", "job", "self"],
             "spans": tracer.spans}))
        print(f"  spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
        metrics = {k: v for k, v in metrics.items() if k in units}
    for r in flat:
        if not r["verdict"].ok:
            print(f"  FAILED {r['job']}: {r['verdict'].reason}", file=sys.stderr)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def metric_units(kind: str) -> dict:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics that
    BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_all(args) -> int:
    """Each workload in a fresh process; prints every metric with its unit."""
    results, status = {}, 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=str(ROOT), capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}")
            status = 1
            continue
        results[name] = json.loads(lines[-1])
        print(f"== {name}: correct={results[name]['correct']} "
              f"attempted={results[name]['attempted']} failed={results[name]['failed']}")
        for metric, entry in results[name]["metrics"].items():
            print(f"   {metric:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(results, sort_keys=True))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("records", "oracle", "certify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vlab" / "cli.py").is_file():
        print(f"no vlab sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    _pin_environment()
    if args.workload == "all":
        return run_all(args)

    workload = workloads.build(args.workload, args.seed)
    report = measure(workload, args.seconds, bool(args.trace))
    result = summarize(workload, report, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
