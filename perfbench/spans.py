"""Span recorder and per-layer report for traced benchmark runs.

Tracing is installed from outside the library: each public function named in
TARGETS is wrapped, and the wrapper replaces the original wherever a `bfa`
module holds it (for example `bfa.operators.wht` as well as `bfa.core.wht`).
Methods are wrapped on their class.  Nested calls into wrapped functions
therefore become child spans, and a span's self time is its duration minus
the time its children cover.

Spans are recorded only while a job runs (`Recorder.job` is set), so the
output checks a workload makes between jobs never count.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from typing import Callable


def _wht_elems(args, kwargs, result, sig):
    return args[0].n * (1 << args[0].n)


def _result_len(args, kwargs, result, sig):
    return len(result)


def _first_arg_len(args, kwargs, result, sig):
    return len(args[0])


def _method_arg_len(args, kwargs, result, sig):
    return len(args[1])  # args[0] is the class of a classmethod


def _samples(args, kwargs, result, sig):
    return sig.bind(*args, **kwargs).arguments.get("samples") or 0  # None: exact only


def _bernoulli_draws(args, kwargs, result, sig):
    bound = sig.bind(*args, **kwargs).arguments
    return bound["m"] * bound["nbits"]


# Traced functions, "<bfa module>.<attribute path>", each with an optional
# work measure (elements, bytes, samples, draws or points) for its stats.
TARGETS = {
    "core.wht": _wht_elems,
    "core.inverse_wht": None,
    "core.make_family": None,
    "core.summary": None,
    "core.serialize_function": _result_len,
    "core.parse_function": _first_arg_len,
    "operators.influences": None,
    "operators.noisy_influence_profile": None,
    "operators.stability": None,
    "operators.stability_mc": _samples,
    "rng.uniform_masks": _result_len,
    "rng.bernoulli_masks": _bernoulli_draws,
    "testers.blr": _samples,
    "testers.nae_test": _samples,
    "testers.kkmo_test": _samples,
    "testers.threexor_test": _samples,
    "testers.nae_query_masks": None,
    "gaussian.MultilinearPoly.evaluate": _result_len,
    "gaussian.sheppard_mc": None,
    "gaussian.rotation_sensitivity_mc": None,
    "invariance.invariance_gap": None,
    "invariance.carbery_wright_mc": None,
    "invariance.berry_esseen_gap": None,
    "inequalities.poincare_check": None,
    "inequalities.edge_isoperimetry_check": None,
    "inequalities.sse_check": None,
    "inequalities.two_pi_check": None,
    "inequalities.kkl_check": None,
    "inequalities.hypercontractivity_check": None,
    "ulc.UlcInstance.adjacency": None,
    "ulc.permutation_map": None,
    "ulc.neighborhood_average": None,
    "ulc.csp_exact_kkmo_value": None,
    "ulc.influence_sets": None,
    "ulc.decode_labelling": None,
    "ulc.planted_instance": None,
    "ulc.reduce_to_csp": None,
    "ulc.UlcInstance.to_json": _result_len,
    "ulc.UlcInstance.from_json": _method_arg_len,
    "ulc.CspInstance.to_json": _result_len,
    "ulc.CspInstance.from_json": _method_arg_len,
    "ulc.csp_value": None,
}

# Spans whose input table is digested, to count distinct transforms.
DIGESTED = {"core.wht"}

# (metric, unit, better).  `<span>.<stat>` with stat one of calls, self_ms,
# bytes, draws, or a rate: the span's work measure over its self time.
SPAN_METRICS = [
    ("core.wht.calls", "count", "lower"),
    ("core.wht.self_ms", "ms", "lower"),
    ("core.wht.melem_per_s", "Melem/s", "higher"),
    ("core.wht.distinct_frac", "frac", "higher"),
    ("core.inverse_wht.calls", "count", "lower"),
    ("core.inverse_wht.self_ms", "ms", "lower"),
    ("core.make_family.self_ms", "ms", "lower"),
    ("core.summary.self_ms", "ms", "lower"),
    ("core.serialize_function.self_ms", "ms", "lower"),
    ("core.serialize_function.bytes", "bytes", "lower"),
    ("core.parse_function.self_ms", "ms", "lower"),
    ("core.parse_function.bytes", "bytes", "lower"),
    ("operators.influences.self_ms", "ms", "lower"),
    ("operators.noisy_influence_profile.self_ms", "ms", "lower"),
    ("operators.stability.self_ms", "ms", "lower"),
    ("operators.stability_mc.self_ms", "ms", "lower"),
    ("operators.stability_mc.samples_per_s", "1/s", "higher"),
    ("rng.uniform_masks.self_ms", "ms", "lower"),
    ("rng.uniform_masks.draws", "count", "lower"),
    ("rng.bernoulli_masks.self_ms", "ms", "lower"),
    ("rng.bernoulli_masks.draws", "count", "lower"),
    ("testers.blr.self_ms", "ms", "lower"),
    ("testers.blr.samples_per_s", "1/s", "higher"),
    ("testers.nae_test.self_ms", "ms", "lower"),
    ("testers.nae_test.samples_per_s", "1/s", "higher"),
    ("testers.kkmo_test.self_ms", "ms", "lower"),
    ("testers.kkmo_test.samples_per_s", "1/s", "higher"),
    ("testers.threexor_test.self_ms", "ms", "lower"),
    ("testers.threexor_test.samples_per_s", "1/s", "higher"),
    ("testers.nae_query_masks.self_ms", "ms", "lower"),
    ("gaussian.MultilinearPoly.evaluate.calls", "count", "lower"),
    ("gaussian.MultilinearPoly.evaluate.self_ms", "ms", "lower"),
    ("gaussian.MultilinearPoly.evaluate.points_per_s", "1/s", "higher"),
    ("gaussian.sheppard_mc.self_ms", "ms", "lower"),
    ("gaussian.rotation_sensitivity_mc.self_ms", "ms", "lower"),
    ("invariance.invariance_gap.self_ms", "ms", "lower"),
    ("invariance.carbery_wright_mc.self_ms", "ms", "lower"),
    ("invariance.berry_esseen_gap.self_ms", "ms", "lower"),
    ("inequalities.poincare_check.self_ms", "ms", "lower"),
    ("inequalities.edge_isoperimetry_check.self_ms", "ms", "lower"),
    ("inequalities.sse_check.self_ms", "ms", "lower"),
    ("inequalities.two_pi_check.self_ms", "ms", "lower"),
    ("inequalities.kkl_check.self_ms", "ms", "lower"),
    ("inequalities.hypercontractivity_check.self_ms", "ms", "lower"),
    ("ulc.UlcInstance.adjacency.calls", "count", "lower"),
    ("ulc.permutation_map.calls", "count", "lower"),
    ("ulc.neighborhood_average.calls", "count", "lower"),
    ("ulc.neighborhood_average.self_ms", "ms", "lower"),
    ("ulc.csp_exact_kkmo_value.self_ms", "ms", "lower"),
    ("ulc.influence_sets.self_ms", "ms", "lower"),
    ("ulc.decode_labelling.self_ms", "ms", "lower"),
    ("ulc.planted_instance.self_ms", "ms", "lower"),
    ("ulc.reduce_to_csp.self_ms", "ms", "lower"),
    ("ulc.UlcInstance.to_json.self_ms", "ms", "lower"),
    ("ulc.UlcInstance.to_json.bytes", "bytes", "lower"),
    ("ulc.UlcInstance.from_json.self_ms", "ms", "lower"),
    ("ulc.UlcInstance.from_json.bytes", "bytes", "lower"),
    ("ulc.CspInstance.to_json.self_ms", "ms", "lower"),
    ("ulc.CspInstance.to_json.bytes", "bytes", "lower"),
    ("ulc.CspInstance.from_json.self_ms", "ms", "lower"),
    ("ulc.CspInstance.from_json.bytes", "bytes", "lower"),
    ("ulc.csp_value.self_ms", "ms", "lower"),
]

# Rate stats: work measure divided by self seconds, times a scale.
RATES = {"melem_per_s": 1e-6, "samples_per_s": 1.0, "points_per_s": 1.0}


def _digest(table) -> tuple:
    data = table.bits if hasattr(table, "bits") else table.values
    return (type(table).__name__, table.n, hashlib.sha1(memoryview(data)).hexdigest())


class Recorder:
    """In-memory spans: [name, start, end, parent index, job, size, excluded].

    `excluded` is time the recorder itself spent inside the span (input
    digests), which is subtracted from self time like a child's.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.digests: dict[str, list] = {}
        self.job: int | None = None  # spans are recorded only while set

    def wrap(self, name: str, fn: Callable) -> Callable:
        recorder = self
        size = TARGETS[name]
        digest = name in DIGESTED
        sig = inspect.signature(fn) if size is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if recorder.job is None:
                return fn(*args, **kwargs)
            parent = recorder.stack[-1] if recorder.stack else None
            if digest:
                t0 = time.perf_counter()
                recorder.digests.setdefault(name, []).append(_digest(args[0]))
                if parent is not None:
                    recorder.spans[parent][6] += time.perf_counter() - t0
            index = len(recorder.spans)
            span = [name, time.perf_counter(), 0.0, parent, recorder.job, 0, 0.0]
            recorder.spans.append(span)
            recorder.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                recorder.stack.pop()
            if size is not None:
                span[5] = size(args, kwargs, result, sig)
            return result

        return traced

    def export(self) -> dict:
        return {"spans": self.spans, "digests": self.digests}

    def extend(self, exported: dict, job: int) -> None:
        """Merge another process's `export()` under one job id."""
        offset = len(self.spans)
        for name, start, end, parent, _job, size, excluded in exported["spans"]:
            self.spans.append(
                [name, start, end, None if parent is None else parent + offset, job, size, excluded]
            )
        for name, digests in exported["digests"].items():
            self.digests.setdefault(name, []).extend(tuple(d) for d in digests)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, job, size, excluded in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent,
                         "job": job, "size": size, "excluded": excluded}
                    )
                    + "\n"
                )


def _resolve(attr: str, module):
    owner_name, _, leaf = attr.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, leaf


@contextlib.contextmanager
def instrument(recorder: Recorder):
    """Wrap every target while the context is open; restore on exit."""
    import bfa  # noqa: F401  (loads every bfa module)

    modules = [m for n, m in list(sys.modules.items()) if n == "bfa" or n.startswith("bfa.")]
    undo = []
    try:
        for name in TARGETS:
            module, _, attr = name.partition(".")
            owner, leaf = _resolve(attr, importlib.import_module(f"bfa.{module}"))
            if isinstance(owner, type):
                raw = owner.__dict__[leaf]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(recorder.wrap(name, raw.__func__))
                else:
                    wrapped = recorder.wrap(name, raw)
                undo.append((owner, leaf, raw))
                setattr(owner, leaf, wrapped)
                continue
            original = getattr(owner, leaf)
            wrapped = recorder.wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, key, original))
                        setattr(module, key, wrapped)
        yield recorder
    finally:
        for owner, key, value in reversed(undo):
            setattr(owner, key, value)


def span_metrics(recorder: Recorder) -> dict[str, float]:
    """Every SPAN_METRICS value; layers the run never called read 0."""
    spans = recorder.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, job, size, excluded in spans:
        if parent is not None:
            covered[parent] += end - start
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    work: dict[str, float] = {}
    for i, (name, start, end, parent, job, size, excluded) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + (end - start) - covered[i] - excluded
        work[name] = work.get(name, 0) + size
    out = {}
    for metric, _unit, _better in SPAN_METRICS:
        name, _, stat = metric.rpartition(".")
        if stat == "calls":
            value = calls.get(name, 0)
        elif stat == "self_ms":
            value = 1e3 * self_s.get(name, 0.0)
        elif stat in ("bytes", "draws"):
            value = work.get(name, 0)
        elif stat == "distinct_frac":
            seen = recorder.digests.get(name, [])
            value = len(set(seen)) / len(seen) if seen else 0.0
        else:
            busy = self_s.get(name, 0.0)
            value = RATES[stat] * work.get(name, 0) / busy if busy > 0 else 0.0
        out[metric] = value
    return out
