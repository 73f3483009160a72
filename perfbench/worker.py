"""Run one benchmark workload in this process and print its raw result.

run.py starts this file in a fresh interpreter with PYTHONPATH=src:

  python worker.py --workload NAME --seed N --seconds S --trace 0|1
                   --workdir DIR [--spans-out FILE] [--launch T] [--smoke]
                   [--setup-only]

The last line of stdout is one JSON object.  `--launch` is the parent's
`time.monotonic()` just before it started this process, so set-up time
covers interpreter start, imports and the workload's input files.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

import bfa  # noqa: F401  (importing the library is part of set-up)
from spans import SPAN_METRICS, Recorder, instrument, span_metrics
from workloads import CLI_COMMANDS, WORKLOADS

CAP = 3.0  # no pass starts after CAP x --seconds of measuring


@dataclass
class Record:
    kind: str
    seconds: float
    ok: bool = True


def run_pass(workload, index: int, recorder: Recorder | None = None) -> list[Record]:
    """One pass of the workload's jobs; each job is timed on its own."""
    records: list[Record] = []

    def check(ok, what):
        if not ok:
            records[-1].ok = False
            print(f"check failed: {workload.name} pass {index} {records[-1].kind}: {what}",
                  file=sys.stderr)

    gen = workload.jobs(index, check)
    workload.recorder = recorder
    try:
        job = next(gen)
        while True:
            if recorder is not None:
                recorder.job = len(records)
            t0 = time.perf_counter()
            try:
                result = job.fn()
            except Exception:
                records.append(Record(job.kind, time.perf_counter() - t0, ok=False))
                raise
            finally:
                if recorder is not None:
                    recorder.job = None
            records.append(Record(job.kind, time.perf_counter() - t0))
            job = gen.send(result)
    except StopIteration:
        pass
    except Exception:  # a job or a check raised: count it failed, end the pass
        traceback.print_exc()
        if records:
            records[-1].ok = False
        gen.close()
    finally:
        workload.recorder = None
    return records


def percentile(values, p: float) -> float:
    """Linear interpolation between closest ranks, as numpy's default."""
    ordered = sorted(values)
    pos = p / 100.0 * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(samples: int) -> int:
    """Highest whole percentile p with at least ten of `samples` ranked
    above its interpolation point p/100 (samples - 1); at least the median,
    for runs too small to have such a tail."""
    p = math.ceil(100.0 * (samples - 10) / (samples - 1)) - 1
    return min(99, max(50, p))


def jobs_per_s(records: list[Record], jobs_per_pass: int) -> float:
    """Jobs in one pass over the sum of each job kind's median latency."""
    by_kind: dict[str, list[float]] = {}
    for r in records:
        by_kind.setdefault(r.kind, []).append(r.seconds)
    return jobs_per_pass / sum(statistics.median(v) for v in by_kind.values())


def peak_rss_mb(workload) -> float:
    """Peak RSS of the job process; for cli, of its largest command."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


def measure(workload, seconds: float) -> dict:
    """The workload's whole passes, each job timed alone."""
    start = time.perf_counter()
    records = run_pass(workload, 0)
    jobs_per_pass = len(records)
    passes = 1
    while passes < workload.passes and time.perf_counter() - start <= CAP * seconds:
        records += run_pass(workload, passes)
        passes += 1
    latencies = [r.seconds for r in records]
    tail_p = tail_percentile(len(records))
    return {
        "metrics": {
            "jobs_per_s": jobs_per_s(records, jobs_per_pass),
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_tail_ms": 1e3 * percentile(latencies, tail_p),
            "peak_rss_mb": peak_rss_mb(workload),
        },
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "passes": passes,
        "jobs_per_pass": jobs_per_pass,
        "samples": len(records),
        "tail_percentile": tail_p,
    }


def traced(workload, spans_out: str | None) -> dict:
    """Pass 0 untraced, then pass 0 again with spans; per-layer metrics."""
    base = run_pass(workload, 0)
    recorder = Recorder()
    with instrument(recorder):
        spanned = run_pass(workload, 0, recorder)
    if spans_out:
        recorder.dump(spans_out)
    metrics = span_metrics(recorder)
    units = {name: unit for name, unit, _better in SPAN_METRICS}
    walls = {r.kind: r.seconds for r in base} if workload.name == "cli" else {}
    for name, _argv, _sink in CLI_COMMANDS:
        metrics[f"cli.{name}.wall_ms"] = 1e3 * walls.get(name, 0.0)
        units[f"cli.{name}.wall_ms"] = "ms"
    metrics["trace_overhead_frac"] = (
        jobs_per_s(base, len(base)) / jobs_per_s(spanned, len(spanned)) - 1.0
    )
    units["trace_overhead_frac"] = "frac"
    records = base + spanned
    return {
        "metrics": metrics,
        "units": units,
        "attempted": len(records),
        "failed": sum(not r.ok for r in records),
        "passes": 2,
        "jobs_per_pass": len(base),
        "samples": len(records),
        "spans": len(recorder.spans),
    }


def run(name, seed, seconds, trace, smoke, workdir, spans_out=None, launch=None,
        setup_only=False) -> dict:
    workdir = Path(workdir).resolve()
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, smoke, workdir)
    workload.setup()
    setup_s = time.monotonic() - launch if launch is not None else None
    if setup_only:
        return {"setup_s": setup_s}
    out = traced(workload, spans_out) if trace else measure(workload, seconds)
    out["setup_s"] = setup_s
    out["versions"] = {
        "python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__,
    }
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    out = run(args.workload, args.seed, args.seconds, args.trace, args.smoke, args.workdir,
              args.spans_out, args.launch, args.setup_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
