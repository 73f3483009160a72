"""The four benchmark workloads: job mixes, their inputs, and output checks.

A workload yields one pass of jobs from a generator.  The runner times only
`Job.fn()`; the generator body between yields (input preparation, reference
values and output checks) runs outside the timed region.  A check that fails
marks the job just run as failed.  Every input and seed derives from the
benchmark's `--seed`.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy import integrate, stats

from bfa import core, gaussian, inequalities, invariance, operators, testers, ulc

HERE = Path(__file__).resolve().parent
EXACT_TOL = 1e-9
Z_TOL = 5.0  # MC estimates must lie within this many standard errors
DKW_ALPHA = 1e-6  # failure probability of one empirical-CDF band


@dataclass
class Job:
    kind: str
    fn: Callable[[], Any]


def derive(seed: int, *tags) -> int:
    """A 32-bit seed for one input, hashed from the workload seed and tags."""
    digest = hashlib.sha256(repr((seed,) + tags).encode()).digest()
    return int.from_bytes(digest[:4], "little")


def within(estimate: float, exact: float, stderr: float) -> bool:
    return abs(estimate - exact) <= Z_TOL * stderr + 1e-12


class Workload:
    name = ""
    # Whole passes per run.  Fixed work keeps the mix of job kinds, and so
    # every percentile, the same from run to run; the counts are sized for
    # about 20 s of measuring on a 2-core machine.
    passes = 1

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.recorder = None  # set by the runner during a traced pass

    def setup(self) -> None:
        """Write the workload's input files."""

    def jobs(self, index: int, check):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# spectral: exact dense analysis
# ---------------------------------------------------------------------------


class Spectral(Workload):
    """Exact analysis of a fixed mix of dense tables, n = 18 .. 24.

    n = 20 tables (8 MiB as float64) fit a 32 MiB L3; n = 24 (128 MiB) is
    four times larger, so both FWHT regimes show.  Majority stops at n = 21:
    `make_family("maj:23")` peaks near 3.8 GB.
    """

    name = "spectral"
    passes = 2
    FAMILIES = ["random:18", "random:20", "random:22", "random:24",
                "tribes:4:5", "tribes:5:4", "maj:19", "maj:21"]
    SMOKE = ["random:8", "random:10", "tribes:2:3", "maj:9"]
    RHOS = (-1.0 / 3.0, 0.5, 0.9)

    def jobs(self, index, check):
        families = self.SMOKE if self.smoke else self.FAMILIES
        bfn_family = families[1]
        for family in families:
            kind, _, rest = family.partition(":")
            spec = family
            if kind == "random":
                spec = f"random:{derive(self.seed, self.name, family, index)}:{rest}"
            f = yield Job(f"{family}/make_family", lambda: core.make_family(spec))
            n = f.n
            s = yield Job(f"{family}/wht", lambda: core.wht(f))
            check(abs(float(np.sum(s.coeffs**2)) - 1.0) <= EXACT_TOL, "Parseval")
            if kind == "maj":
                levels = np.array([core.maj_coefficient(n, k) for k in range(n + 1)])
                err = np.max(np.abs(s.coeffs - levels[core.popcounts(n)]))
                check(err <= EXACT_TOL, "majority coefficients")
            out = yield Job(f"{family}/summary", lambda: core.summary(s))
            w = out.level_weights
            check(abs(float(w.sum()) - 1.0) <= EXACT_TOL, "level weights sum to 1")
            if kind == "maj":
                check(np.max(np.abs(w - core.maj_level_weights(n))) <= EXACT_TOL,
                      "majority level weights")
            ks = np.arange(n + 1)
            prof = yield Job(f"{family}/influences", lambda: operators.influences(s))
            check(abs(prof.total - float(np.dot(ks, w))) <= EXACT_TOL,
                  "total influence = sum k W^k")
            if kind == "maj":
                check(np.max(np.abs(prof.per_var - core.maj_influence(n))) <= EXACT_TOL,
                      "majority influences")
            noisy = yield Job(f"{family}/noisy_influence_profile",
                              lambda: operators.noisy_influence_profile(s, 0.9))
            expect = float(np.dot(ks[1:] * 0.9 ** (ks[1:] - 1.0), w[1:]))
            check(abs(float(noisy.sum()) - expect) <= EXACT_TOL,
                  "noisy influences sum to sum k rho^(k-1) W^k")
            for rho in self.RHOS:
                value = yield Job(f"{family}/stability@{rho:.3f}",
                                  lambda: operators.stability(s, rho))
                check(abs(value - float(np.polynomial.polynomial.polyval(rho, w))) <= EXACT_TOL,
                      "stability = sum rho^k W^k")
            yield from self._suite(f, family, w, check)
            if family == bfn_family:
                yield from self._bfn(f, index, check)

    def _suite(self, f, family, w, check):
        """The `ineq suite` rows plus hypercontractivity; asserted rows hold."""
        rep = yield Job(f"{family}/poincare", lambda: inequalities.poincare_check(f))
        check(rep.holds, "Poincare")
        rep = yield Job(f"{family}/edge_isoperimetry",
                        lambda: inequalities.edge_isoperimetry_check(f))
        check(rep.holds, "edge isoperimetry")
        rep = yield Job(f"{family}/sse", lambda: inequalities.sse_check(
            core.RealTable(f.n, (1.0 - f.signs()) / 2.0), 1.0 / 3.0))
        check(rep.holds, "small-set expansion at rho = 1/3")
        rep = yield Job(f"{family}/two_pi", lambda: inequalities.two_pi_check(f, 0.1))
        check(abs(rep.lhs - float(w[1])) <= EXACT_TOL, "two_pi reports W^1")
        if abs(float(np.mean(f.signs()))) <= 1e-12:
            rep = yield Job(f"{family}/kkl", lambda: inequalities.kkl_check(f))
            check(rep.holds, "KKL chain")
        rep = yield Job(f"{family}/hypercontractivity",
                        lambda: inequalities.hypercontractivity_check(f, 2.0, 4.0, 0.5))
        check(rep.holds, "(2,4)-hypercontractivity at rho = 1/2")

    def _bfn(self, f, index, check):
        path = self.workdir / f"spectral-{index}.bfn"
        yield Job("bfn/write", lambda: path.write_text(core.serialize_function(f)))
        g = yield Job("bfn/read", lambda: core.parse_function(path.read_text()))
        check(g == f, ".bfn read returns the written table")
        path.unlink()


# ---------------------------------------------------------------------------
# sampling: seeded Monte-Carlo
# ---------------------------------------------------------------------------


def pair_product(n: int) -> gaussian.MultilinearPoly:
    """Q = c sum_{i<j} u_i u_j with unit variance (the `clt --quad-n` family)."""
    c = math.sqrt(2.0 / (n * (n - 1)))
    return gaussian.MultilinearPoly(
        n, {(1 << i) | (1 << j): c for i in range(n) for j in range(i + 1, n)}
    )


def pair_product_gaussian_cdf(n: int, t: float) -> float:
    """Pr[Q(G) <= t] for the pair product, in closed form up to quadrature.

    sum_{i<j} G_i G_j = ((n-1) Z^2 - W) / 2 with Z^2 ~ chi2(1) and
    W ~ chi2(n-1) independent, so the CDF is one integral over W.
    """
    c = math.sqrt(2.0 / (n * (n - 1)))
    shift = 2.0 * t / c
    chi_w, chi_z = stats.chi2(n - 1), stats.chi2(1)

    def integrand(w):
        return chi_w.pdf(w) * chi_z.cdf((shift + w) / (n - 1))

    lo = max(0.0, -shift)
    value, _ = integrate.quad(integrand, lo, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
    return value


@lru_cache(maxsize=None)
def pair_product_gap(n: int) -> float:
    """Exact sup_t |Pr[Q(x) <= t] - Pr[Q(G) <= t]|, x Rademacher.

    On the cube Q = c (S^2 - n) / 2 with S = n - 2k, k ~ Bin(n, 1/2).
    """
    c = math.sqrt(2.0 / (n * (n - 1)))
    probs: dict[float, float] = {}  # atom -> mass; k and n - k share an atom
    for k in range(n + 1):
        a = round(c * ((n - 2 * k) ** 2 - n) / 2.0, 12)
        probs[a] = probs.get(a, 0.0) + math.comb(n, k) / 2.0**n
    gap, below = 0.0, 0.0
    for a in sorted(probs):
        g = pair_product_gaussian_cdf(n, a)
        gap = max(gap, abs(below - g))
        below += probs[a]
        gap = max(gap, abs(below - g))
    return gap


def dkw(m: int) -> float:
    """Empirical-CDF band that holds with probability 1 - DKW_ALPHA."""
    return math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * m))


class Sampling(Workload):
    """Seeded MC jobs at 10^6 samples; RNG draws, mask packing, table
    gathers and Gaussian polynomial evaluation dominate."""

    name = "sampling"
    passes = 3
    EPS = (0.05, 0.2)
    DELTA = 0.785

    def setup(self):
        self.samples = 10**4 if self.smoke else 10**6
        self.n = 10 if self.smoke else 20
        self.polys = {
            k: gaussian.MultilinearPoly.from_spectrum(core.wht(core.make_family(f"maj:{k}")))
            for k in (5, 7)
        }
        self.quads = {n: pair_product(n) for n in (16, 32)}
        self.references = {}

    def _rerun(self, index, check, fn, result):
        """Rerun the pass-0 job of a kind with the same seed, untimed."""
        if index == 0:
            check(repr(fn()) == repr(result), "rerun with the same seed is identical")

    def jobs(self, index, check):
        m = self.samples
        f = core.make_family(f"random:{derive(self.seed, self.name, index)}:{self.n}")

        def seed(kind):
            return derive(self.seed, self.name, index, kind)

        exact = operators.stability(f, 0.5)
        fn = lambda: operators.stability_mc(f, 0.5, m, seed("stability_mc"))  # noqa: E731
        rep = yield Job("stability_mc", fn)
        check(within(rep.estimate, exact, rep.stderr), "stability_mc near Stab_0.5")
        self._rerun(index, check, fn, rep)

        for kind, fn in (
            ("blr", lambda: testers.blr(f, m, seed("blr"))),
            ("nae_test", lambda: testers.nae_test(f, m, seed("nae_test"))),
            ("kkmo_test", lambda: testers.kkmo_test(f, 0.707, m, seed("kkmo_test"))),
            ("threexor_test", lambda: testers.threexor_test(f, 0.1, m, seed("threexor_test"))),
        ):
            out = yield Job(kind, fn)
            check(within(out.mc.estimate, out.exact_accept, out.mc.stderr),
                  f"{kind} MC near its exact acceptance")
            self._rerun(index, check, fn, out)

        fn = lambda: gaussian.sheppard_mc(0.5, m, seed("sheppard_mc"))  # noqa: E731
        rep = yield Job("sheppard_mc", fn)
        check(within(rep.estimate, math.acos(0.5) / math.pi, rep.stderr), "Sheppard's formula")
        self._rerun(index, check, fn, rep)

        for k, q in self.polys.items():
            kind = f"rotation_sensitivity_mc/maj:{k}"
            fn = lambda: gaussian.rotation_sensitivity_mc(  # noqa: E731
                q, self.DELTA, m, seed(kind))
            rep = yield Job(kind, fn)
            # no closed form for sgn of a multilinear majority on Gaussians:
            # compare with an estimate on an independent seed
            if kind not in self.references:
                self.references[kind] = gaussian.rotation_sensitivity_mc(
                    q, self.DELTA, m, derive(self.seed, "reference", kind))
            ref = self.references[kind]
            check(abs(rep.estimate - ref.estimate)
                  <= Z_TOL * math.hypot(rep.stderr, ref.stderr), f"{kind} near reference")
            self._rerun(index, check, fn, rep)

        for n, q in self.quads.items():
            kind = f"invariance_gap/quad:{n}"
            fn = lambda: invariance.invariance_gap(q, m, seed(kind))  # noqa: E731
            rep = yield Job(kind, fn)
            exact_side = n <= invariance.MAX_EXACT_POLY_VARS
            band = dkw(m) if exact_side else 2.0 * dkw(m)
            check(abs(rep.sup_cdf_gap - pair_product_gap(n)) <= band, f"{kind} near exact gap")
            check(abs(rep.tau - 2.0 / n) <= EXACT_TOL and rep.degree == 2
                  and rep.mode == ("exact" if exact_side else "mc"), f"{kind} tau/degree/mode")
            self._rerun(index, check, fn, rep)

        q = self.quads[16]
        fn = lambda: invariance.carbery_wright_mc(  # noqa: E731
            q, self.EPS, m, seed("carbery_wright_mc"))
        rep = yield Job("carbery_wright_mc/quad:16", fn)
        for row in rep.rows:
            exact = pair_product_gaussian_cdf(16, row.eps) - pair_product_gaussian_cdf(16, -row.eps)
            check(within(row.estimate, exact, row.stderr), f"small ball at eps = {row.eps}")
        self._rerun(index, check, fn, rep)


# ---------------------------------------------------------------------------
# labelcover: the long-code pipeline
# ---------------------------------------------------------------------------


class Labelcover(Workload):
    """Planted unique-label-cover instances through the long-code reduction.

    V spans 4x, so the quadratic neighbourhood averaging shows as a slope in
    the per-V latencies; row-of-dicts CSP JSON dominates at m = 10^5.
    """

    name = "labelcover"
    passes = 2
    DEGREE = 4
    GAMMA = 0.2
    RHO = 0.707

    def configs(self):
        """(V, delta, tester); the tester alternates so each appears at both deltas."""
        sizes = (10, 16) if self.smoke else (100, 200, 400)
        testers_ = (f"kkmo:{self.RHO}", "nae")
        out = []
        for i, v in enumerate(sizes):
            for j, delta in enumerate((0.0, 0.1)):
                out.append((v, delta, testers_[(i + j) % 2]))
        return out

    def jobs(self, index, check):
        L = 4 if self.smoke else 6
        m = 2000 if self.smoke else 10**5
        for v, delta, tester in self.configs():
            tag = f"V{v}/delta{delta}/{tester.split(':')[0]}"
            seed = derive(self.seed, self.name, index, tag)
            psi, labels = yield Job(f"{tag}/planted_instance",
                                    lambda: ulc.planted_instance(v, self.DEGREE, L, delta, seed))
            doc = yield Job(f"{tag}/ulc_to_json", psi.to_json)
            back = yield Job(f"{tag}/ulc_from_json", lambda: ulc.UlcInstance.from_json(doc))
            check((back.L, back.num_vertices, back.edges, back.perms)
                  == (psi.L, psi.num_vertices, psi.edges, psi.perms), "instance JSON round trip")
            csp = yield Job(f"{tag}/reduce_to_csp", lambda: ulc.reduce_to_csp(psi, tester, m, seed))
            doc = yield Job(f"{tag}/csp_to_json", csp.to_json)
            back = yield Job(f"{tag}/csp_from_json", lambda: ulc.CspInstance.from_json(doc))
            check(all(np.array_equal(getattr(back, a), getattr(csp, a))
                      for a in ("verts", "masks", "signs"))
                  and (back.L, back.k, back.predicate, back.tester, back.seed, back.folded)
                  == (csp.L, csp.k, csp.predicate, csp.tester, csp.seed, csp.folded),
                  "CSP JSON round trip")
            assign = ulc.dictator_assignment(psi, labels)
            spec = ulc.LongCodeTester.parse(tester)
            rep = yield Job(f"{tag}/csp_value", lambda: ulc.csp_value(csp, assign))
            # an edge used by a constraint is corrupted w.p. at most delta
            floor = (1.0 - spec.k * delta) * spec.dictator_acceptance
            check(rep.estimate >= floor - 4.0 * rep.stderr, "dictators pass the reduction")
            if spec.name == "kkmo":
                exact = yield Job(f"{tag}/csp_exact_kkmo_value",
                                  lambda: ulc.csp_exact_kkmo_value(psi, self.RHO, assign))
                check(within(rep.estimate, exact, rep.stderr), "sampled value near exact")
                if delta == 0.0:
                    check(abs(exact - spec.dictator_acceptance) <= EXACT_TOL,
                          "exact value of planted dictators")
            decoded = yield Job(f"{tag}/decode_labelling",
                                lambda: ulc.decode_labelling(psi, assign, self.GAMMA, seed))
            if delta == 0.0:
                check(np.array_equal(decoded, labels), "decoding recovers the planted labels")
            sets = yield Job(f"{tag}/influence_sets",
                             lambda: ulc.influence_sets(psi, assign, self.GAMMA))
            check(all(len(j) <= 1.0 / self.GAMMA**2 and len(jp) <= 2.0 / self.GAMMA**2
                      for j, jp in sets), "influence-set sizes")


# ---------------------------------------------------------------------------
# cli: README commands as fresh processes
# ---------------------------------------------------------------------------

# (name, argv, file that receives stdout); "{seed}" is replaced per run.
CLI_COMMANDS = [
    ("fourier", ["fourier", "--fn", "maj:3", "--json"], None),
    ("influence", ["influence", "--fn", "tribes:2:2", "--rho", "0.9"], None),
    ("stability", ["stability", "--fn", "maj:5", "--rho", "0.5", "--samples", "100000",
                   "--seed", "{seed}"], None),
    ("test_blr", ["test", "blr", "--fn", "parity:0b101:8", "--exact"], None),
    ("test_kkmo", ["test", "kkmo", "--fn", "maj:5", "--rho", "0.707", "--samples", "100000"], None),
    ("test_decode", ["test", "decode", "--fn", "parity:0b11:4", "--x", "0b01",
                     "--trials", "41"], None),
    ("gaussian_sheppard", ["gaussian", "sheppard", "--rho", "0.5", "--samples", "1000000"], None),
    ("gaussian_rs", ["gaussian", "rs", "--fn", "maj:3", "--delta", "0.785"], None),
    ("ineq_kkl", ["ineq", "kkl", "--fn", "maj:5"], None),
    ("ineq_suite", ["ineq", "suite", "--fn", "maj:3", "--fn", "tribes:2:2"], None),
    ("clt_be", ["clt", "be", "--n", "400"], None),
    ("clt_invariance", ["clt", "invariance", "--quad-n", "16", "--samples", "1000000"], None),
    ("ulc_gen", ["ulc", "gen", "--vertices", "10", "--degree", "2", "--labels", "4",
                 "--delta", "0", "--seed", "{seed}", "--planted-out", "labels.json"], "psi.json"),
    ("ulc_reduce", ["ulc", "reduce", "--in", "psi.json", "--tester", "kkmo:0.707",
                    "--m", "100000", "--seed", "{seed}"], "csp.json"),
    ("ulc_value", ["ulc", "value", "--in", "psi.json", "--assign", "dictator",
                   "--labels-in", "labels.json", "--tester", "nae", "--m", "100000"], None),
    ("ulc_decode", ["ulc", "decode", "--in", "psi.json", "--assign", "dictator",
                    "--labels-in", "labels.json", "--gamma", "0.2"], None),
    ("fourier_bfn", ["fourier", "--fn", "f16.bfn"], None),
]
SMOKE_COMMANDS = ("fourier", "ulc_gen", "ulc_decode")
CLI_TIMEOUT_S = 60.0
TSV_HEADER = "name\tlhs\trhs\tmargin\tstderr"


def parses(stdout: bytes) -> bool:
    """JSON documents parse; TSV reports have the config line, the header,
    and five cells per row with numeric or empty value cells."""
    try:
        text = stdout.decode("utf-8")
        if text.startswith("{"):
            json.loads(text)
            return True
        lines = text.rstrip("\n").split("\n")
        if len(lines) < 2 or not lines[0].startswith("# ") or lines[1] != TSV_HEADER:
            return False
        for line in lines[2:]:
            cells = line.split("\t")
            if len(cells) != 5:
                return False
            for cell in cells[1:]:
                if cell:
                    float(cell)
        return True
    except ValueError:  # includes JSON and UTF-8 decoding errors
        return False


class Cli(Workload):
    """Every README command, plus `fourier` on an n = 16 .bfn file, each a
    fresh `python -m bfa.cli` process, one after another."""

    name = "cli"
    passes = 2

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        table = core.make_family(f"random:{derive(self.seed, self.name, 'bfn')}:16")
        (self.workdir / "f16.bfn").write_text(core.serialize_function(table))
        # commands import the same bfa as this process, whatever the cwd
        src = str(Path(core.__file__).resolve().parents[1])
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=path, BFA_SEED=str(derive(self.seed, self.name)))
        self.first: dict[str, bytes] = {}

    def _run(self, name, argv, sink):
        spans_path = self.workdir / f"spans-{name}.json"
        if self.recorder is None:
            cmd = [sys.executable, "-m", "bfa.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
        proc = subprocess.run(cmd, cwd=self.workdir, env=self.env, capture_output=True,
                              timeout=CLI_TIMEOUT_S)
        if sink is not None:
            (self.workdir / sink).write_bytes(proc.stdout)
        if self.recorder is not None and proc.returncode == 0:
            self.recorder.extend(json.loads(spans_path.read_text()), self.recorder.job)
        return proc

    def jobs(self, index, check):
        for name, argv, sink in CLI_COMMANDS:
            if self.smoke and name not in SMOKE_COMMANDS:
                continue
            seed = str(derive(self.seed, self.name, name))
            argv = [seed if a == "{seed}" else a for a in argv]
            proc = yield Job(name, lambda: self._run(name, argv, sink))
            check(proc.returncode == 0, f"{name} exits 0: {proc.stderr.decode()[-300:]}")
            first = self.first.setdefault(name, proc.stdout)
            check(proc.stdout == first, f"{name} stdout identical to its first run")
            check(parses(proc.stdout), f"{name} output parses")


WORKLOADS = {w.name: w for w in (Spectral, Sampling, Labelcover, Cli)}
