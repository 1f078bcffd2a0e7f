"""The benchmark's workloads: seeded inputs, one timed pass, and the checks.

Every workload is a closed loop with one caller.  ``build`` turns the
seed into inputs (formulas, couplings, check samples) and builds the
``Potential`` objects; it is what ``setup_s`` times.  ``run_pass`` is
what ``solve_s`` times: jump tables go through ``sturmjumps.cli.main``
in-process and counts through the library functions.  ``check``
compares the first pass against independent references, outside the
timing, and every later pass against the first.

An operation is one root lambda_n, one count N(lambda) or one verify
suite.  It fails if it raises or if its answer fails a check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import time
from types import SimpleNamespace

from clock import Clock
from tracing import Tracer

import sturmjumps
from sturmjumps import AtJumpAmbiguity, Potential, cli, liouville_green, spectra_oracle

TWO_PI = 2.0 * math.pi
ROOT_TOL = 1e-10  # the CLI's default --root-tol, used by every jump table here
COUNT_RTOL = 1e-10  # the CLI's default --rtol, used by every N(lambda) answer
EXACT = ("(1+x)^(-4)", 0.0, 1.0)  # V^(-1/4) linear, so U == 0 and lambda_n = 2*pi*n
EXACT_D = 0.5

# failures the package signals by raising; anything else is a bug in the benchmark
OP_ERRORS = (ArithmeticError, RuntimeError, ValueError)


class Tally:
    """Operations attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, k: int):
        self.attempted += k

    def fail(self, message: str, k: int = 1):
        self.failed += k
        if len(self.messages) < 20:
            self.messages.append(message)


def _cli(argv):
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _parse_csv(text):
    """(n, lambda_n) pairs from the jumps CSV, located by column name."""
    return [(int(row["n"]), float(row["lambda_n"])) for row in csv.DictReader(io.StringIO(text))]


def count_off_jump(p, lam, tracer):
    """N(lambda) under the CLI's policy: nudge lambda up by 3e-7 when it sits on a jump."""
    for _ in range(8):
        try:
            return lam, sturmjumps.count_negative(p, lam, rtol=COUNT_RTOL)
        except AtJumpAmbiguity:
            tracer.count("at_jump_retries")
            lam *= 1.0 + 3e-7
    raise AtJumpAmbiguity(lam, float("nan"))


def jump_structure(p, roots, sample, tally, clock):
    """Criterion 8's rule: N(lambda_n(1 - 1e-8)) = n - 1 and N(lambda_n(1 + 1e-8)) = n.

    Each query is one timed N(lambda) answer (rtol 1e-12, guard band 1e-9).
    """
    by_n = dict(roots)
    for n in sample:
        lam = by_n[n]
        for sign, want in ((-1.0, n - 1), (1.0, n)):
            tally.ops(1)
            try:
                key = f"{p.source} N(lambda_{n}{sign:+.0f}e-8)"
                with clock.block(solve=False), clock.count(key):
                    got = sturmjumps.count_negative(p, lam * (1.0 + sign * 1e-8), rtol=1e-12, jump_guard=1e-9)
            except OP_ERRORS as exc:
                tally.fail(f"{p.source}: N near lambda_{n} raised {exc!r}")
                continue
            if got != want:
                tally.fail(f"{p.source}: N(lambda_{n}{sign:+.0f}e-8) = {got}, want {want}")


def stratified_sample(rng, items, size):
    """One item from each of ``size`` contiguous, near-equal strata of ``items``, in order."""
    bounds = [round(k * len(items) / size) for k in range(size + 1)]
    return [rng.choice(items[bounds[k] : bounds[k + 1]]) for k in range(size)]


def root_error_over_tol(roots, exact, d):
    """max_n D*|lambda_n - exact_n| / (tol*n): the theta error the --root-tol contract bounds by 1."""
    return max(d * abs(lam - exact(n)) / (ROOT_TOL * n) for n, lam in roots)


def gross_root_errors(source, roots, exact, tally):
    for n, lam in roots:
        ref = exact(n)
        if not abs(lam - ref) <= 1e-6 * ref:
            tally.fail(f"{source}: lambda_{n} = {lam!r}, exact {ref!r}")


def bessel_root(gamma):
    """Exact lambda_n for V = x^gamma on [0, 1] with u(0) = u(1) = 0.

    u = sqrt(x) J_nu(2 lambda x^((gamma+2)/2) / (gamma+2)) with nu = 1/(gamma+2),
    so lambda_n = (gamma+2)/2 * j_(nu, n).
    """
    import mpmath  # reference only; kept out of the set-up the benchmark times

    nu = mpmath.mpf(1) / (gamma + 2)
    scale = (gamma + 2.0) / 2.0
    return lambda n: scale * float(mpmath.besseljzero(nu, n))


class Workload:
    """A workload; BENCHMARK.json records why each one is there."""

    name = ""

    def build(self, seed: int):
        """Seeded inputs and built potentials (timed as setup)."""
        raise NotImplementedError

    def run_pass(self, inputs, tally, tracer, clock):
        """One pass, timed in blocks on ``clock``; returns an output comparable between passes."""
        raise NotImplementedError

    def check(self, inputs, output, tally):
        """Checks of the first pass's output against references; returns root_err_over_tol."""
        raise NotImplementedError


class JumpTables(Workload):
    """`sturmjumps jumps` on 2+sin(x) (criterion 4's example) and the exact potential."""

    name = "jumps-smooth"
    specs = (("2+sin(x)", 0.0, 3.0, 60), (*EXACT, 80))
    sample_size = 50

    def build(self, seed):
        rng = random.Random(seed)
        potentials = [Potential.from_formula(src, a, b) for src, a, b, _ in self.specs]
        for p in potentials:
            p.value_fn
        sample = stratified_sample(rng, list(range(1, self.specs[0][3] + 1)), self.sample_size)
        return {"seed": seed, "potentials": potentials, "sample": sample}

    def argv(self, src, a, b, n_max, threads):
        return [
            "jumps", "--potential", src, "--a", repr(a), "--b", repr(b),
            "--n-min", "1", "--n-max", str(n_max), "--threads", str(threads),
        ]

    def run_pass(self, inputs, tally, tracer, clock, threads=1):
        tables = []
        for src, a, b, n_max in self.specs:
            tally.ops(n_max)
            with clock.block(), tracer.span("cli.main"):
                code, text = _cli(self.argv(src, a, b, n_max, threads))
            if code != 0:
                tally.fail(f"jumps {src}: exit code {code}", n_max)
                tables.append(None)
            else:
                tables.append(_parse_csv(text))
        if tables[0] is not None:
            with tracer.paused():
                jump_structure(inputs["potentials"][0], tables[0], inputs["sample"], tally, clock)
        return tables

    def check(self, inputs, output, tally):
        exact_roots = output[1]
        if exact_roots is None:
            return math.nan
        exact = lambda n: TWO_PI * n
        gross_root_errors(EXACT[0], exact_roots, exact, tally)
        return root_error_over_tol(exact_roots, exact, EXACT_D)

    def pool_probe(self, inputs, output, tally):
        """One untimed pass with --threads 2, the only one that runs the process pool.

        Returns the pool's busy fraction (worker CPU from RUSAGE_CHILDREN over
        workers x jump_sequence wall time) and the largest lambda_n gap to
        ``output``, the one-worker tables.  Its answers are checked like any pass.
        """
        probe = Tracer("pool-probe")
        probe.install()
        probe.active = True
        try:
            pooled = self.run_pass(inputs, tally, probe, Clock(), threads=2)
        finally:
            probe.active = False
            probe.uninstall()
        self.check(inputs, pooled, tally)
        gaps = [
            abs(x[1] - y[1])
            for mine, ref in zip(pooled, output)
            if mine is not None and ref is not None
            for x, y in zip(mine, ref)
        ]
        c = probe.counters
        busy = c["pool_cpu_s"] / c["pool_capacity_s"] if c["pool_capacity_s"] else 0.0
        return busy, max(gaps, default=0.0)


class SingularEnds(Workload):
    """Criterion 7's endpoint examples on the conjecture-class path.

    x and sqrt(x) run as jump tables, checked against their exact Bessel
    roots; (1-x)/x, whose V is infinite at 0, runs as the conjecture suite.
    """

    name = "jumps-singular"
    tables = (("x", 1.0, 0.0, 70, 100), ("sqrt(x)", 0.5, 0.0, 70, 100))
    suite = ("(1-x)/x", -1.0, 1.0, 95, 100)  # conjecture_fit needs n_max >= 100
    sample_size = 50

    def build(self, seed):
        rng = random.Random(seed)
        potentials = [
            Potential.from_formula(src, 0.0, 1.0, regularity="conjecture", gamma_a=ga, gamma_b=gb)
            for src, ga, gb, *_ in (*self.tables, self.suite)
        ]
        for p in potentials:
            p.value_fn
        pool = [(i, n) for i, (*_, n_min, n_max) in enumerate(self.tables) for n in range(n_min, n_max + 1)]
        sample = stratified_sample(rng, pool, self.sample_size)
        return {"seed": seed, "potentials": potentials, "sample": sample}

    def run_pass(self, inputs, tally, tracer, clock):
        out = []
        for src, ga, gb, n_min, n_max in self.tables:
            k = n_max - n_min + 1
            tally.ops(k)
            argv = [
                "jumps", "--potential", src, "--a", "0", "--b", "1", "--class", "conjecture",
                "--gamma-a", repr(ga), "--gamma-b", repr(gb), "--n-min", str(n_min),
                "--n-max", str(n_max), "--threads", "1",
            ]
            with clock.block(), tracer.span("cli.main"):
                code, text = _cli(argv)
            if code != 0:
                tally.fail(f"jumps {src}: exit code {code}", k)
                out.append(None)
            else:
                out.append(_parse_csv(text))
        src, ga, gb, n_min, n_max = self.suite
        tally.ops(1)
        argv = [
            "verify", "--suite", "conjecture", "--potential", src, "--a", "0", "--b", "1",
            "--class", "conjecture", "--gamma-a", repr(ga), "--gamma-b", repr(gb),
            "--n-min", str(n_min), "--n-max", str(n_max), "--threads", "1",
        ]
        with clock.block(), tracer.span("cli.main"):
            code, text = _cli(argv)
        report = None
        if code not in (0, 2):
            tally.fail(f"verify {src}: exit code {code}")
        else:
            report = json.loads(text)
            report = (code, report["passed"], report["metrics"]["constant_estimate"],
                      report["metrics"]["predicted"])
        out.append(report)
        with tracer.paused():
            for i, roots in enumerate(out[:-1]):
                if roots is not None:
                    ns = [n for j, n in inputs["sample"] if j == i]
                    jump_structure(inputs["potentials"][i], roots, ns, tally, clock)
        return out

    def check(self, inputs, output, tally):
        errs = []
        for (src, ga, gb, *_), roots in zip(self.tables, output):
            if roots is None:
                continue
            exact = bessel_root(ga)
            d = 1.0 / (1.0 + ga / 2.0)  # integral of x^(gamma/2) over [0, 1]
            gross_root_errors(src, roots, exact, tally)
            errs.append(root_error_over_tol(roots, exact, d))
            # conjecture_fit reads only n and e_n from each record
            records = [SimpleNamespace(n=n, lambda_n=lam, e_n=lam * d / math.pi - n) for n, lam in roots]
            fit = sturmjumps.conjecture_fit(records, ga, gb)
            if not abs(fit.constant_estimate - fit.predicted) <= 0.01:
                tally.fail(f"{src}: kappa {fit.constant_estimate} vs predicted {fit.predicted}")
        report = output[-1]
        if report is not None:
            code, passed, kappa, predicted = report
            if code != 0 or not passed or not abs(kappa - predicted) <= 0.01:
                tally.fail(f"verify {self.suite[0]}: passed={passed}, kappa {kappa} vs {predicted}")
        return max(errs) if errs else math.nan


def criterion3_draw(rng):
    """(c0, c1, c2, L, max V / min V) for V = c0 + c1*sin(c2*x) on [0, L], as criterion 3 draws them."""
    c0 = rng.uniform(1.0, 3.0)
    c1 = rng.uniform(0.0, c0 - 0.5)
    c2 = rng.uniform(0.5, 3.0)
    length = rng.uniform(1.0, 5.0)
    t = c2 * length  # sin(c2*x) sweeps [0, t]
    hi = 1.0 if t >= math.pi / 2 else math.sin(t)
    lo = -1.0 if t >= 3 * math.pi / 2 else min(0.0, math.sin(t))
    return c0, c1, c2, length, (c0 + c1 * hi) / (c0 + c1 * lo)


class CountsTransform(Workload):
    """Liouville-Green data and N(lambda) answers; no root finding."""

    name = "counts-transform"
    n_random = 32
    per_potential = 8
    counts = (4.0, 1000.0)  # couplings ask for N(lambda) from about 4 to about 1000
    oracle_lam_max = 80.0  # criterion 3's range, where a 20000-point mesh resolves the count
    oracle_samples = 20
    probe_ns = (20, 60, 100, 140)

    def build(self, seed):
        rng = random.Random(seed)
        # criterion 3's generator, stratified by the max/min ratio of V on
        # [0, L], which sets the phase work per count: one potential from each
        # of n_random equally likely strata of that ratio.  Seeds then differ
        # little in the work they ask for.
        draws = sorted((criterion3_draw(rng) for _ in range(64 * self.n_random)), key=lambda d: d[-1])
        specs = []
        for i in range(self.n_random):
            c0, c1, c2, length, _ = rng.choice(draws[64 * i : 64 * (i + 1)])
            specs.append((f"{c0!r}+{c1!r}*sin({c2!r}*x)", 0.0, length))
        specs.append(("exp(x)", 0.0, 1.0))
        specs.append(EXACT)
        potentials = [Potential.from_formula(src, a, b) for src, a, b in specs]
        for p in potentials:
            p.value_fn
        # positions in log(N) over ``counts``: every potential gets one in each
        # of per_potential strata of [0, 1], and within a stratum the
        # potentials take its sub-strata in a fixed scrambled order of their
        # ratio stratum.  Phase work grows with the count N ~ lambda*D/pi, so
        # every seed asks for nearly the same work at every count.
        k, m = len(potentials), self.per_potential
        positions = [
            [(j + ((13 * i + 7 * j) % k + rng.random()) / k) / m for j in range(m)]
            for i in range(k)
        ]
        return {"seed": seed, "potentials": potentials, "positions": positions, "rng": rng,
                "oracle_s": []}

    def run_pass(self, inputs, tally, tracer, clock):
        out = []
        for i, (p, positions) in enumerate(zip(inputs["potentials"], inputs["positions"])):
            with clock.block():
                out.append(self._one_potential(i, p, positions, tally, tracer, clock))
        return out

    def _one_potential(self, i, p, positions, tally, tracer, clock):
        with tracer.span("liouville_green.lg_data"):
            lg = liouville_green.lg_data(p, 512)
        lo, hi = self.counts
        answers = []
        for j, pos in enumerate(positions):
            # the bracket holds only above sqrt(C)
            lam = max(math.pi * lo * (hi / lo) ** pos / lg.d, 1.1 * math.sqrt(lg.c))
            tally.ops(1)
            try:
                with clock.count(f"N {i}.{j}"), tracer.span("count.query"):
                    lam, n = count_off_jump(p, lam, tracer)
            except OP_ERRORS as exc:
                tally.fail(f"{p.source}: N({lam!r}) raised {exc!r}")
                answers.append(None)
                continue
            with tracer.span("liouville_green.count_bracket"):
                bracket = liouville_green.count_bracket(lg, lam)
            answers.append((lam, n, bracket))
        return lg.d, lg.c, answers

    def check(self, inputs, output, tally):
        exact_p = inputs["potentials"][-1]
        oracle_pool = []
        for p, (_, _, answers) in zip(inputs["potentials"], output):
            for ans in answers:
                if ans is None:
                    continue
                lam, n, (lower, upper) = ans
                if not lower <= n <= upper:
                    tally.fail(f"{p.source}: N({lam!r}) = {n} outside [{lower}, {upper}]")
                if p is exact_p:
                    want = math.ceil(lam / TWO_PI) - 1
                    if n != want:
                        tally.fail(f"{p.source}: N({lam!r}) = {n}, exact {want}")
                elif lam <= self.oracle_lam_max:
                    oracle_pool.append((p, lam, n))
        rng = inputs["rng"]
        picked = rng.sample(oracle_pool, min(self.oracle_samples, len(oracle_pool)))
        for p, lam, n in picked:
            t = sturmjumps.phase(p, lam, rtol=COUNT_RTOL).theta_b / math.pi
            if abs(t - round(t)) < 0.05:  # criterion 3: the oracle cannot resolve near-jump couplings
                continue
            t0 = time.perf_counter()
            want = spectra_oracle.count_matrix(p, lam, 20000)
            inputs["oracle_s"].append(time.perf_counter() - t0)
            if n != want:
                tally.fail(f"{p.source}: N({lam!r}) = {n}, matrix oracle {want}")
        # the root-tolerance contract, probed on the exact potential through the
        # public root finder: this workload's own answers carry no roots
        d = sturmjumps.integrate_sqrt_v(exact_p, exact_p.a, exact_p.b).value
        roots = []
        for n in self.probe_ns:
            tally.ops(1)
            try:
                roots.append((n, sturmjumps.find_jump(exact_p, n, tol=ROOT_TOL, d_value=d).lambda_n))
            except OP_ERRORS as exc:
                tally.fail(f"{exact_p.source}: lambda_{n} raised {exc!r}")
        exact = lambda n: TWO_PI * n
        gross_root_errors(exact_p.source, roots, exact, tally)
        return root_error_over_tol(roots, exact, EXACT_D) if roots else math.nan


WORKLOADS = {w.name: w for w in (JumpTables(), SingularEnds(), CountsTransform())}
