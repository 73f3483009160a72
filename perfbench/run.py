"""bfa benchmark: run one workload, check its outputs, print its metrics.

Run from the repository root:

  python3 perfbench/run.py --workload spectral --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20

The workload runs in a fresh interpreter against `src/` (see worker.py).
With `--trace 0` the result carries the end-to-end metrics; with
`--trace 1` a traced pass gives the per-layer metrics.  The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
The line before it holds the run's provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import startup

HERE = Path(__file__).resolve().parent
WORKLOADS = ("spectral", "sampling", "labelcover", "cli")
WORK = Path(".perfbench_work")
SETUP_PROBES = 2  # extra fresh set-ups per run; setup_s is the median of 3
WORKER_TIMEOUT_S = 140.0
PROBE_TIMEOUT_S = 20.0
BLAS_THREADS = {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": "2", "MKL_NUM_THREADS": "2"}

END_TO_END = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


class BenchError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ, **BLAS_THREADS)
    env.pop("BFA_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path("src").resolve()), env.get("PYTHONPATH")) if p
    )
    return env


def start_worker(args, workdir: Path, extra: list[str], timeout: float) -> dict:
    """Run worker.py in a fresh interpreter; its last stdout line is JSON."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir), *extra]
    if args.smoke:
        cmd.append("--smoke")
    launch = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--launch", repr(launch)], env=worker_env(),
                              stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, read directly (None outside git)."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def tree_sha256(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def l3_bytes() -> int | None:
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1 << 10, "M": 1 << 20}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def run_one(args) -> tuple[dict, dict]:
    """(result line, provenance) for one workload."""
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    spans_out = WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"
    try:
        extra = ["--spans-out", str(spans_out)] if args.trace else []
        out = start_worker(args, workdir, extra, WORKER_TIMEOUT_S)
        setups = [out["setup_s"]]
        for i in range(0 if args.trace else SETUP_PROBES):
            probe = start_worker(args, workdir / f"probe{i}", ["--setup-only"], PROBE_TIMEOUT_S)
            setups.append(probe["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        out["metrics"].update(startup.breakdown(worker_env(), os.getcwd()))
        units = {**out["units"], **{name: "ms" for name in startup.METRICS}}
    else:
        out["metrics"]["setup_s"] = statistics.median(setups)
        units = dict(END_TO_END)
    metrics = {name: {"value": out["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }
    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_commit": git_commit(),
        "src_sha256": tree_sha256(Path("src")),
        **out["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "l3_bytes": l3_bytes(),
        "blas_threads": BLAS_THREADS,
        "passes": out["passes"],
        "jobs_per_pass": out["jobs_per_pass"],
        "samples": out["samples"],
        "tail_percentile": out.get("tail_percentile"),
        "setup_samples_s": setups,
        "fail_frac": out["failed"] / out["attempted"],
    }
    if args.trace:
        provenance["spans_file"] = str(spans_out)
        provenance["spans"] = out["spans"]
    return result, provenance


def report(result: dict, provenance: dict) -> None:
    tail = provenance.get("tail_percentile")
    print(f"# workload={provenance['workload']} seed={provenance['seed']} "
          f"trace={provenance['trace']} passes={provenance['passes']} "
          f"jobs={provenance['samples']} fail_frac={provenance['fail_frac']:.6g}"
          + (f" tail=p{tail}" if tail is not None else ""))
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:>16.6g} {metric['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args()
    if not (Path("src") / "bfa" / "__init__.py").is_file():
        print("error: run from the repository root (src/bfa not found)", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            one = argparse.Namespace(**{**vars(args), "workload": name})
            result, provenance = run_one(one)
            report(result, provenance)
            print(json.dumps({"provenance": provenance}, sort_keys=True))
            results[name] = result
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
