"""The entry points the benchmark (perfbench/) calls, with the keywords it calls them with.

A renamed keyword or function would show up in the benchmark only as a
failed workload.  These calls mirror perfbench/workloads.py and
perfbench/worker.py on small inputs; the module attributes are the ones
perfbench/tracing.py wraps.
"""

import contextlib
import csv
import io
import json
import math
from functools import cached_property
from types import SimpleNamespace

import sturmjumps
from sturmjumps import AtJumpAmbiguity, Potential, cli, liouville_green, spectra_oracle  # noqa: F401

EXACT = ("(1+x)^(-4)", 0.0, 1.0)  # lambda_n = 2 pi n


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def test_library_calls_with_the_benchmarks_keywords():
    p = Potential.from_formula(*EXACT)
    assert isinstance(Potential.__dict__["value_fn"], cached_property)
    assert "value_fn" in type(p).__dict__
    p.value_fn
    d = sturmjumps.integrate_sqrt_v(p, p.a, p.b).value
    assert d == 0.5
    rec = sturmjumps.find_jump(p, 3, tol=1e-10, d_value=d)
    assert abs(rec.lambda_n - 6.0 * math.pi) * d <= 1e-10 * 3
    assert sturmjumps.count_negative(p, 20.0, rtol=1e-12, jump_guard=1e-9) == 3
    lg = liouville_green.lg_data(p, 512)
    lower, upper = liouville_green.count_bracket(lg, 20.0)
    assert lower <= 3 <= upper
    assert math.ceil(sturmjumps.phase(p, 20.0, rtol=1e-10).theta_b / math.pi) - 1 == 3
    q = Potential.from_formula("2+sin(x)", 0.0, 3.0)
    assert spectra_oracle.count_matrix(q, 5.0, 2000) == sturmjumps.count_negative(q, 5.0, rtol=1e-10)
    fn = sturmjumps.compile_value(q.ast)
    assert fn(1.0) == 2.0 + math.sin(1.0)


def test_conjecture_fit_reads_n_and_e_n():
    # perfbench fits its Bessel tables from records that carry only these fields
    records = [SimpleNamespace(n=n, lambda_n=0.0, e_n=0.25 + 0.01 / n) for n in range(20, 101)]
    fit = sturmjumps.conjecture_fit(records, 1.0, 0.0)
    assert math.isfinite(fit.constant_estimate) and math.isfinite(fit.predicted)


def test_modules_keep_the_attributes_the_tracer_wraps():
    import sturmjumps.jumps as jumps
    import sturmjumps.liouville_green as lgmod
    import sturmjumps.oscillation as osc

    for module, attr in (
        (cli, "jump_sequence"),
        (cli, "conjecture_fit"),
        (jumps, "find_jump"),
        (jumps, "integrate_sqrt_v"),
        (osc, "phase"),
        (lgmod, "integrate_sqrt_v"),
        (lgmod, "eval_jet2"),
    ):
        assert callable(getattr(module, attr)), f"{module.__name__}.{attr}"


def test_cli_calls_with_the_benchmarks_argv():
    src, a, b = EXACT
    code, text = _cli([
        "jumps", "--potential", src, "--a", repr(a), "--b", repr(b),
        "--n-min", "1", "--n-max", "6", "--threads", "2",
    ])
    assert code == 0
    rows = [(int(r["n"]), float(r["lambda_n"])) for r in csv.DictReader(io.StringIO(text))]
    assert [n for n, _ in rows] == list(range(1, 7))
    assert all(abs(lam - 2.0 * math.pi * n) * 0.5 <= 1e-10 * n for n, lam in rows)
    code, text = _cli([
        "verify", "--suite", "conjecture", "--potential", "(1-x)/x", "--a", "0", "--b", "1",
        "--class", "conjecture", "--gamma-a", repr(-1.0), "--gamma-b", repr(1.0),
        "--n-min", "95", "--n-max", "100", "--threads", "1",
    ])
    assert code in (0, 2)
    report = json.loads(text)
    assert isinstance(report["passed"], bool)
    assert math.isfinite(report["metrics"]["constant_estimate"])
    assert math.isfinite(report["metrics"]["predicted"])
