"""Start-up breakdown: bare interpreter start and `import bfa` by package.

`python -X importtime` prints one row per module, children before their
parent, indented two spaces per nesting level.  numpy and scipy time is the
cumulative time of their outermost rows inside the `bfa` import; the rest
of `bfa`'s cumulative time is its own.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

RUNS = 3
TIMEOUT_S = 30.0
METRICS = ["startup.python_ms", "startup.import_numpy_ms", "startup.import_scipy_ms",
           "startup.import_bfa_self_ms"]


def parse_importtime(text: str) -> dict[str, float]:
    """numpy, scipy and bfa-own milliseconds of one `import bfa`."""
    rows = []  # (name, depth, cumulative us)
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        _self, cumulative, label = line[len("import time:"):].split("|")
        if not cumulative.strip().isdigit():
            continue  # the header row
        name = label.strip()
        depth = (len(label) - len(label.lstrip()) - 1) // 2
        rows.append((name, depth, int(cumulative)))
    top = next(i for i, (name, depth, _) in enumerate(rows) if name == "bfa" and depth == 0)
    parents = [None] * len(rows)
    for i, (_, depth, _) in enumerate(rows):
        parents[i] = next((j for j in range(i + 1, len(rows)) if rows[j][1] < depth), None)

    def under(i, prefixes):
        """Is row i inside `bfa` and outside any row named by `prefixes`?"""
        j = parents[i]
        while j is not None and j != top:
            if rows[j][0].split(".")[0] in prefixes:
                return False
            j = parents[j]
        return j == top

    ms = {"numpy": 0.0, "scipy": 0.0}
    for i, (name, _, cumulative) in enumerate(rows):
        package = name.split(".")[0]
        if package in ms and under(i, ("numpy", "scipy")):
            ms[package] += cumulative / 1e3
    return {
        "startup.import_numpy_ms": ms["numpy"],
        "startup.import_scipy_ms": ms["scipy"],
        "startup.import_bfa_self_ms": rows[top][2] / 1e3 - ms["numpy"] - ms["scipy"],
    }


def breakdown(env: dict, cwd: str) -> dict[str, float]:
    """Medians over RUNS fresh interpreters of each start-up metric."""
    samples: dict[str, list[float]] = {name: [] for name in METRICS}
    for _ in range(RUNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True,
                       timeout=TIMEOUT_S)
        samples["startup.python_ms"].append(1e3 * (time.perf_counter() - t0))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import bfa"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
        for name, value in parse_importtime(proc.stderr).items():
            samples[name].append(value)
    return {name: statistics.median(values) for name, values in samples.items()}
