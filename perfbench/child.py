"""One workload execution in a fresh process.

Usage: ``python3 child.py <job.json> <t0>``, where ``t0`` is the parent's
``CLOCK_MONOTONIC`` reading just before it started this process.  The job
names the INI file, the output root, the CLI commands and whether to trace.

Set-up (interpreter start, ``import stableconv``, ``load_config`` and
``build_spec``) is timed from ``t0`` to the start of the first CLI command.
Each command then runs through ``stableconv.cli.main`` and is timed on its
own.  The result JSON goes to the job's ``result`` path.
"""

import json
import resource
import sys
import time
import traceback


def _now() -> float:
    # system-wide, so comparable with the parent's reading
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main() -> int:
    job_path, t0 = sys.argv[1], float(sys.argv[2])
    with open(job_path) as fh:
        job = json.load(fh)
    from stableconv import cli
    from stableconv.config import load_config

    cfg = load_config(job["ini"])
    cfg.build_spec()
    setup_s = _now() - t0
    result = {"setup_s": setup_s, "stableconv": cli.__file__, "commands": []}
    if job.get("setup_only"):
        _write(job, result)
        return 0

    restore = None
    if job["trace"]:
        import layers  # not part of the program's set-up
        import tracing

        tracer = tracing.Tracer(job["run_id"], hot=layers.HOT)
        restore = tracing.install(tracer, layers.TARGETS)
    try:
        for argv in job["commands"]:
            full = [argv[0], "-c", job["ini"], "-o", job["out"], *argv[1:]]
            entry = {"argv": full, "rc": None, "error": None}
            start = _now()
            try:
                entry["rc"] = cli.main(full)
            except Exception:  # a crash is a failed operation, not a harness error
                entry["error"] = traceback.format_exc()
            entry["s"] = _now() - start
            result["commands"].append(entry)
    finally:
        if restore is not None:
            restore()
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    worker_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result["peak_rss_mb"] = (self_kb + worker_kb) / 1024.0
    if job["trace"]:
        tracer.dump(job["trace_path"])
    _write(job, result)
    return 0


def _write(job, result) -> None:
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    sys.exit(main())
