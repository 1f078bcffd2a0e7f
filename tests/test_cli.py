import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import sturmjumps
from sturmjumps import cli
from sturmjumps.cli import main
from sturmjumps.jumps import JumpRecord

PI = "3.141592653589793"

# the options every subcommand takes, as config keys
_COMMON = {"potential", "a", "b", "class", "gamma_a", "gamma_b", "out"}


def run(args):
    return main(args)


def test_count_constant_potential(tmp_path):
    out = tmp_path / "count.json"
    code = run(
        ["count", "--potential", "1", "--a", "0", "--b", PI, "--lambda", "2.5", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 2
    assert payload["theta_b"] == pytest.approx(2.5 * math.pi, rel=1e-10)
    assert payload["config"]["lambda"] == 2.5
    assert set(payload["config"]) == {"subcommand"} | _COMMON | {"lambda", "method", "rtol"}
    # how it was computed: the propagator's cells and error bar, no sliver on the theorem class
    assert payload["cells"] > 0 and payload["rk_steps"] == payload["rk_rejected"] == 0
    assert 0.0 < payload["error_estimate"] <= 1e-10 * payload["theta_b"]


def test_count_matrix_method(tmp_path):
    out = tmp_path / "count.json"
    code = run(
        [
            "count", "--potential", "1", "--a", "0", "--b", PI,
            "--lambda", "2.5", "--method", "matrix", "--mesh", "9999",
            "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["count"] == 2
    assert set(payload["config"]) == {"subcommand"} | _COMMON | {"lambda", "method", "mesh"}
    for key in ("theta_b", "error_estimate", "cells", "rk_steps", "rk_rejected"):
        assert payload[key] is None, key


def test_count_json_says_how_it_was_computed(tmp_path):
    # a conjecture-class count carries the slivers' collocation cells and the
    # error bar beside the propagator's cells; a rerun is byte-identical
    out = tmp_path / "count.json"
    argv = ["count", "--potential", "(1-x)/x", "--a", "0", "--b", "1", "--class", "conjecture",
            "--gamma-a", "-1", "--gamma-b", "1", "--lambda", "470", "--rtol", "1e-11", "--out", str(out)]
    texts = []
    for _ in range(2):
        assert run(argv) == 0
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]
    payload = json.loads(texts[0])
    res = sturmjumps.phase(
        sturmjumps.Potential.from_formula("(1-x)/x", 0.0, 1.0, regularity="conjecture", gamma_a=-1.0, gamma_b=1.0),
        470.0, rtol=1e-11,
    )
    assert payload["count"] == res.count and payload["theta_b"] == res.theta_b
    assert (payload["cells"], payload["rk_steps"], payload["rk_rejected"]) == (res.cells, res.steps, res.rejected_steps)
    assert payload["error_estimate"] == res.error_estimate > 0.0 and payload["rk_steps"] > 0


def test_jumps_csv_schema_and_determinism(tmp_path):
    out1, out2 = tmp_path / "j1.csv", tmp_path / "j2.csv"
    argv = [
        "jumps", "--potential", "1", "--a", "0", "--b", PI,
        "--n-min", "1", "--n-max", "5", "--threads", "1",
    ]
    assert run(argv + ["--out", str(out1)]) == 0
    assert run(argv + ["--out", str(out2)]) == 0
    text = out1.read_text()
    lines = text.strip().split("\n")
    assert lines[0] == "n,lambda_n,e_n,n_times_e_n"
    assert len(lines) == 6
    for i, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        assert int(fields[0]) == i
        assert float(fields[1]) == pytest.approx(float(i), abs=1e-8)
    assert out1.read_bytes() == out2.read_bytes()


def test_jumps_json_format(tmp_path):
    out = tmp_path / "j.json"
    code = run(
        [
            "jumps", "--potential", "1", "--a", "0", "--b", PI,
            "--n-min", "2", "--n-max", "3", "--format", "json", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert [r["n"] for r in payload["records"]] == [2, 3]
    records, diag = payload["records"], payload["diagnostics"]
    # a theorem-class potential: the cell propagator, no RK steps, an error bar per root
    assert all(r["phase_calls"] >= 1 and r["cells"] > 0 and r["rk_steps"] == 0 for r in records)
    assert diag["phase_calls"] == sum(r["phase_calls"] for r in records)
    assert diag["rk_steps"] == sum(r["rk_steps"] for r in records)
    assert diag["rk_rejected"] == sum(r["rk_rejected"] for r in records)
    assert diag["cells"] == sum(r["cells"] for r in records)
    assert all(r["error_bar"] >= 0.0 for r in records)
    assert 0.0 <= diag["residual_over_tol_max"] <= diag["residual_plus_error_bar_over_tol_max"] <= 1.0


def test_jumps_csv_independent_of_threads(tmp_path):
    outs = [tmp_path / "w1.csv", tmp_path / "w2.csv"]
    for threads, out in zip(("1", "2"), outs):
        code = run(
            [
                "jumps", "--potential", "2+sin(x)", "--a", "0", "--b", "3",
                "--n-min", "1", "--n-max", "40", "--threads", threads, "--out", str(out),
            ]
        )
        assert code == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_transform_artifact(tmp_path):
    out = tmp_path / "lg.json"
    code = run(
        [
            "transform", "--potential", "exp(x)", "--a", "0", "--b", "1",
            "--grid", "256", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["D"] == pytest.approx(2.0 * (math.exp(0.5) - 1.0), abs=1e-9)
    assert payload["C"] == pytest.approx(1.05 / 16.0, rel=1e-9)
    assert len(payload["samples"]) == 256
    assert set(payload["samples"][0]) == {"x", "xi", "U"}
    diag = payload["diagnostics"]
    assert (diag["xi_evaluations"], diag["xi_bisections"]) == (30 * 255, 0)
    assert diag["d_evaluations"] > 0


def test_transform_interval_not_starting_at_zero(tmp_path):
    # the grid's end nodes used to land one ulp outside [3.4442, 3.8235]
    out = tmp_path / "lg.json"
    argv = ["--potential", "2+sin(x)", "--a", "3.4442", "--b", "3.8235", "--out", str(out)]
    assert run(["transform"] + argv) == 0
    samples = json.loads(out.read_text())["samples"]
    assert (samples[0]["x"], samples[-1]["x"]) == (3.4442, 3.8235)
    assert run(["verify", "--suite", "bracket", "--samples", "20", "--lambda-max", "60"] + argv) == 0


def test_verify_theorem_suite_passes(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "verify", "--suite", "theorem", "--potential", "1", "--a", "0", "--b", PI,
            "--n-min", "10", "--n-max", "60", "--threads", "1", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    _check_root_diagnostics(payload, 51, theorem=True)


def _check_root_diagnostics(payload, roots, theorem):
    assert "report" not in payload
    diag = payload["diagnostics"]
    assert set(diag) == {
        "phase_calls", "rk_steps", "rk_rejected", "cells",
        "residual_over_tol_max", "residual_plus_error_bar_over_tol_max",
    }
    assert roots <= diag["phase_calls"] <= 5 * roots
    # both classes run on the cell propagator; the conjecture class adds RK45 on its end slivers
    assert diag["cells"] > 0
    assert (diag["rk_steps"] > 0) == (not theorem)
    assert diag["rk_rejected"] >= 0
    assert 0.0 <= diag["residual_over_tol_max"] <= diag["residual_plus_error_bar_over_tol_max"] <= 1.0


def test_verify_conjecture_suite_detects_wrong_exponents(tmp_path):
    # sqrt(x) has endpoint exponents (1/2, 0); declaring (3/2, 0) predicts
    # the wrong constant and the suite must fail with exit code 2
    out = tmp_path / "r.json"
    code = run(
        [
            "verify", "--suite", "conjecture", "--potential", "sqrt(x)", "--a", "0", "--b", "1",
            "--class", "conjecture", "--gamma-a", "1.5", "--gamma-b", "0",
            "--n-max", "120", "--threads", "1", "--out", str(out),
        ]
    )
    assert code == 2
    payload = json.loads(out.read_text())
    assert payload["passed"] is False
    assert abs(payload["metrics"]["constant_estimate"] - (-1.0 / 20.0)) < 0.01


def test_verify_conjecture_suite_passes(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "verify", "--suite", "conjecture", "--potential", "x", "--a", "0", "--b", "1",
            "--class", "conjecture", "--gamma-a", "1", "--gamma-b", "0",
            "--n-max", "120", "--threads", "1", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["metrics"]["predicted"] == pytest.approx(-1.0 / 12.0, rel=1e-12)
    # the suite's n_min default, max(20, n_max // 20), is recorded as run
    assert (payload["config"]["n_min"], payload["config"]["n_max"]) == (20, 120)
    _check_root_diagnostics(payload, 101, theorem=False)


def test_verify_weyl_suite_small(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "verify", "--suite", "weyl", "--potential", "2+sin(x)", "--a", "0", "--b", "3",
            "--samples", "25", "--lambda-max", "60", "--out", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["metrics"]["weyl_defect_max"] <= 1.5


def test_verify_weyl_redraws_a_coupling_at_a_jump(tmp_path, monkeypatch):
    # V = 1 on [0, pi] jumps at lambda = n: a draw of 3 is redrawn, and the
    # defects of 2.5 and 1.5 are 0.5; a range of draws all at jumps is an error
    import sturmjumps.cli as cli

    draws = []

    class Draws:
        def __init__(self, seed):
            pass

        def uniform(self, lo, hi):
            return draws.pop(0)

    monkeypatch.setattr(cli.random, "Random", Draws)
    out = tmp_path / "r.json"
    argv = ["verify", "--suite", "weyl", "--potential", "1", "--a", "0", "--b", PI, "--samples", "2", "--out", str(out)]
    draws[:] = [3.0, 2.5, 1.5]
    assert run(argv) == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert (metrics["samples"], metrics["redrawn_at_jumps"]) == (2, 1)
    assert metrics["weyl_defect_max"] == pytest.approx(0.5, abs=1e-9)
    draws[:] = [3.0, 4.0, 5.0, 2.5]
    assert run(argv) == 1


def test_verify_bracket_suite_small(tmp_path):
    out = tmp_path / "r.json"
    code = run(
        [
            "verify", "--suite", "bracket", "--potential", "exp(x)", "--a", "0", "--b", "1",
            "--samples", "30", "--lambda-max", "80", "--grid", "256", "--out", str(out),
        ]
    )
    assert code == 0
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["inclusion_violations"] == 0
    # the sweep starts just above sqrt(C), where the bracket begins to hold
    lo, hi = metrics["lambda_range"]
    assert lo == pytest.approx(1.1 * math.sqrt(metrics["C"]), rel=1e-8) and hi == pytest.approx(80.0)


def test_usage_errors():
    assert run(["count", "--potential", "1", "--a", "1", "--b", "0", "--lambda", "2"]) == 64
    assert run(["count", "--potential", "2+*x", "--a", "0", "--b", "1", "--lambda", "2"]) == 64
    assert run(["jumps", "--potential", "1", "--a", "0", "--b", "1", "--n-min", "5", "--n-max", "2"]) == 64
    assert run(["count", "--a", "0", "--b", "1", "--lambda", "2"]) == 64


_SIN = ["--potential", "2+sin(x)", "--a", "0", "--b", "3"]


@pytest.mark.parametrize(
    "argv",
    [
        ["count", *_SIN, "--lambda", "inf"],
        ["count", *_SIN, "--lambda", "nan"],
        ["count", *_SIN, "--lambda", "10", "--rtol", "inf"],
        ["count", *_SIN, "--lambda", "10", "--rtol", "nan"],
        ["jumps", *_SIN, "--n-min", "1", "--n-max", "3", "--root-tol", "inf"],
        ["verify", "--suite", "weyl", *_SIN, "--lambda-min", "inf"],
        ["verify", "--suite", "weyl", *_SIN, "--lambda-max", "inf"],
        ["verify", "--suite", "bracket", *_SIN, "--lambda-max", "nan"],
    ],
)
def test_values_that_are_not_positive_and_finite_are_usage_errors(argv, monkeypatch, capsys):
    # checked with the other options, before any phase or table
    for name in ("phase", "jump_sequence"):
        monkeypatch.setattr(cli, name, lambda *args, **kwargs: pytest.fail("work was done"))
    assert run(argv) == 64
    assert "must be positive and finite" in capsys.readouterr().err


def test_computational_error_exit_code():
    # log(x-2) is undefined on (0, 1)
    assert run(["count", "--potential", "log(x-2)", "--a", "0", "--b", "1", "--lambda", "2"]) == 1


def test_console_entry_point(tmp_path):
    out = tmp_path / "c.json"
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(sturmjumps.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [
            sys.executable, "-m", "sturmjumps",
            "count", "--potential", "1", "--a", "0", "--b", PI,
            "--lambda", "2.5", "--out", str(out),
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert "N(2.5) = 2" in proc.stderr
    assert json.loads(out.read_text())["count"] == 2


def test_threads_default_to_one_worker(tmp_path, monkeypatch):
    # neither the CPU count nor an environment variable picks the workers
    monkeypatch.setenv("STURM_JUMPS_THREADS", "2")
    out = tmp_path / "j.json"
    base = ["--potential", "1", "--a", "0", "--b", PI, "--out", str(out)]
    assert run(["jumps", "--n-max", "6", "--format", "json"] + base) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["threads"] == 1
    assert len(payload["records"]) == 6
    assert run(["verify", "--suite", "theorem", "--n-max", "40"] + base) == 0
    assert json.loads(out.read_text())["config"]["threads"] == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["jumps", "--n-max", "2", "--threads", "0"],
        ["jumps", "--n-max", "2", "--threads", "-5"],
        ["verify", "--suite", "theorem", "--n-max", "40", "--threads", "0"],
        ["verify", "--suite", "conjecture", "--n-max", "100", "--threads", "-1"],
    ],
)
def test_threads_below_one_are_usage_errors(argv):
    assert run(argv + ["--potential", "1", "--a", "0", "--b", PI]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["jumps", "--n-max", "2", "--rtol", "1e-3"],
        ["jumps", "--n-max", "2", "--seed", "7"],
        ["jumps", "--n-max", "2", "--delta-tol", "5"],
        ["count", "--lambda", "2", "--root-tol", "1e-9"],
        ["count", "--lambda", "2", "--threads", "1"],
        ["count", "--lambda", "2", "--quad-tol", "1e-9"],
        ["transform", "--threads", "1"],
        ["transform", "--rtol", "1e-9"],
        ["verify", "--suite", "weyl", "--samples", "2", "--delta-tol", "1e-9"],
        ["verify", "--suite", "weyl", "--samples", "2", "--quad-tol", "1e-9"],
        # each suite reads only its own options
        ["verify", "--suite", "theorem", "--samples", "5"],
        ["verify", "--suite", "theorem", "--seed", "3"],
        ["verify", "--suite", "theorem", "--grid", "300"],
        ["verify", "--suite", "theorem", "--lambda-max", "7"],
        ["verify", "--suite", "theorem", "--rtol", "1e-3"],
        ["verify", "--suite", "weyl", "--threads", "1"],
        ["verify", "--suite", "weyl", "--n-max", "20"],
        ["verify", "--suite", "bracket", "--seed", "3"],
        ["verify", "--suite", "bracket", "--lambda-min", "10"],
        ["verify", "--suite", "conjecture", "--rtol", "1e-3"],
        # each count method reads only its own options
        ["count", "--lambda", "2", "--mesh", "100"],
        ["count", "--lambda", "2", "--method", "phase", "--mesh", "100"],
        ["count", "--lambda", "2", "--method", "matrix", "--rtol", "1e-9"],
    ],
)
def test_unread_options_are_usage_errors(argv):
    assert run(argv + ["--potential", "1", "--a", "0", "--b", PI]) == 64


def test_config_holds_exactly_the_subcommand_options(tmp_path):
    out = tmp_path / "a.json"
    base = ["--potential", "1", "--a", "0", "--b", PI, "--out", str(out)]
    cases = [
        (["jumps", "--n-max", "2", "--format", "json", "--threads", "1"],
         {"n_min", "n_max", "format", "root_tol", "threads"}),
        (["transform", "--grid", "256"], {"grid"}),
        (["verify", "--suite", "weyl", "--samples", "3"],
         {"suite", "samples", "lambda_min", "lambda_max", "rtol", "seed"}),
        (["verify", "--suite", "theorem", "--n-max", "40", "--threads", "1"],
         {"suite", "n_min", "n_max", "root_tol", "threads"}),
        (["verify", "--suite", "bracket", "--samples", "3", "--lambda-max", "5"],
         {"suite", "samples", "lambda_max", "grid", "rtol"}),
    ]
    for argv, own in cases:
        assert run(argv + base) == 0
        config = json.loads(out.read_text())["config"]
        assert set(config) == {"subcommand"} | _COMMON | own
        assert config["subcommand"] == argv[0] and config["out"] == str(out)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "weyl", "--samples", "-3"],
        ["verify", "--suite", "bracket", "--samples", "0"],
        ["verify", "--suite", "bracket", "--grid", "100"],
        ["transform", "--grid", "100"],
        ["count", "--lambda", "2", "--method", "matrix", "--mesh", "0"],
        ["verify", "--suite", "theorem", "--n-min", "600"],
        ["verify", "--suite", "weyl", "--lambda-max", "0"],
        ["verify", "--suite", "weyl", "--lambda-min", "500", "--lambda-max", "10"],
        ["verify", "--suite", "weyl", "--lambda-min", "2000"],
        # V = 1 has C = 0, so the bracket suite's sweep starts at 0.1
        ["verify", "--suite", "bracket", "--lambda-max", "0.05"],
    ],
)
def test_bad_counts_are_usage_errors(argv):
    assert run(argv + ["--potential", "1", "--a", "0", "--b", PI]) == 64


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "theorem", "--potential", "2+sin(x)", "--a", "0", "--b", "3", "--n-min", "1", "--n-max", "10"],
        ["verify", "--suite", "conjecture", "--n-max", "50"],
        ["verify", "--suite", "conjecture", "--n-min", "100", "--n-max", "101"],
    ],
)
def test_verify_ranges_its_check_cannot_read_are_usage_errors(argv, monkeypatch, capsys):
    # the suite's range rule answers before any root is found, with the check's own text
    monkeypatch.setattr(cli, "jump_sequence", lambda *args, **kwargs: pytest.fail("a table was computed"))
    base = [] if "--potential" in argv else ["--potential", "x", "--a", "0", "--b", "1", "--class", "conjecture", "--gamma-a", "1", "--gamma-b", "0"]
    assert run(argv + base) == 64
    assert "usage error: insufficient range" in capsys.readouterr().err


@pytest.mark.parametrize(
    "suite,n_min,n_max",
    [("conjecture", 95, 100), ("theorem", 10, 500)],  # the benchmark's conjecture table, the theorem defaults
)
def test_verify_accepts_the_ranges_its_check_reads(suite, n_min, n_max, monkeypatch):
    tables = []

    def table(p, lo, hi, **kwargs):
        tables.append((lo, hi))
        return [JumpRecord(n, float(n), 0.0, 0.25 + 1e-3 / n) for n in range(lo, hi + 1)]

    monkeypatch.setattr(cli, "jump_sequence", table)
    argv = ["verify", "--suite", suite, "--potential", "x", "--a", "0", "--b", "1", "--class", "conjecture", "--gamma-a", "1", "--gamma-b", "0"]
    if suite == "conjecture":
        argv += ["--n-min", str(n_min), "--n-max", str(n_max)]
    assert run(argv) in (0, 2) and tables == [(n_min, n_max)]


def test_verify_records_the_suite_defaults_it_ran(tmp_path):
    out = tmp_path / "r.json"
    base = ["--potential", "1", "--a", "0", "--b", PI, "--out", str(out)]
    assert run(["verify", "--suite", "theorem", "--n-max", "40", "--threads", "1"] + base) == 0
    payload = json.loads(out.read_text())
    assert (payload["config"]["n_min"], payload["config"]["n_max"]) == (10, 40)
    assert payload["metrics"]["n_range"] == [10, 40]
    assert payload["config"]["threads"] == 1
    assert run(["verify", "--suite", "weyl", "--lambda-max", "20"] + base) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["samples"] == payload["metrics"]["samples"] == 500
    assert run(["verify", "--suite", "bracket", "--samples", "10"] + base) == 0
    payload = json.loads(out.read_text())
    assert payload["config"]["lambda_max"] == 500.0


def test_count_at_tight_rtol_just_past_a_jump():
    # lambda_1(1 + 1e-8) of 2+sin(x) on [0, 3]: theta_b/pi - 1 ~ 1e-8, well
    # outside the phase's 1e-12 resolution, so the first eigenvalue is negative
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(
            ["count", "--potential", "2+sin(x)", "--a", "0", "--b", "3",
             "--rtol", "1e-12", "--lambda", "0.6191778634899344"]
        )
    assert code == 0
    assert json.loads(out.getvalue())["count"] == 1


def test_jumps_with_blow_up_end_away_from_zero(capsys):
    # x/(1-x) is (1-x)/x mirrored, so its jumps are the same couplings
    code = run([
        "jumps", "--potential", "x/(1-x)", "--a", "0", "--b", "1", "--class", "conjecture",
        "--gamma-a", "1", "--gamma-b", "-1", "--n-max", "3", "--threads", "1",
    ])
    assert code == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    mirror = sturmjumps.jump_sequence(
        sturmjumps.Potential.from_formula("(1-x)/x", 0.0, 1.0, regularity="conjecture", gamma_a=-1.0, gamma_b=1.0), 1, 3
    )
    for row, rec in zip(rows, mirror):
        n, lam = int(row.split(",")[0]), float(row.split(",")[1])
        assert n == rec.n and abs(lam - rec.lambda_n) * math.pi / 2.0 <= 2e-10 * n


@pytest.mark.parametrize(
    "potential, text",
    [("2+sin(x)-3.5/(1+((x-1.37)/0.00002)^2)", "potential fell to 0.142"), ("2+sqrt(x)", "near x=0.0")],
)
def test_mesh_errors_print_plain_floats(potential, text, capsys):
    # a dip below V's floor, and a cell at x = 0 that never converges (V' is infinite there)
    assert run(["count", "--potential", potential, "--a", "0", "--b", "3", "--lambda", "10"]) == 1
    err = capsys.readouterr().err
    assert text in err and "np.float64" not in err


# the argvs of the benchmark's jump tables and conjecture suite, and a count
_BENCH_ARGVS = [
    ["jumps", "--potential", "2+sin(x)", "--a", "0.0", "--b", "3.0", "--n-min", "1", "--n-max", "60", "--threads", "1"],
    ["jumps", "--potential", "(1+x)^(-4)", "--a", "0.0", "--b", "1.0", "--n-min", "1", "--n-max", "80", "--threads", "1"],
    ["jumps", "--potential", "x", "--a", "0", "--b", "1", "--class", "conjecture", "--gamma-a", "1.0",
     "--gamma-b", "0.0", "--n-min", "70", "--n-max", "100", "--threads", "1"],
    ["verify", "--suite", "conjecture", "--potential", "(1-x)/x", "--a", "0", "--b", "1", "--class", "conjecture",
     "--gamma-a", "-1.0", "--gamma-b", "1.0", "--n-min", "95", "--n-max", "100", "--threads", "1"],
    ["count", "--potential", "2+sin(x)", "--a", "0", "--b", "3", "--lambda", "10", "--rtol", "1e-12"],
    ["transform", "--potential", "exp(x)", "--a", "0", "--b", "1", "--grid", "256"],
]


def _read(parser, argv):
    """What ``main`` makes of argv with ``parser``: ("usage error", message) or (exit code, stdout)."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = parser.parse_args(argv)
            cli._resolve(args)
    except cli._UsageError as exc:
        return "usage error", str(exc)
    except SystemExit as exc:
        return exc.code, out.getvalue()
    return None, vars(args)


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--help"],
        ["jumps", "--help"],
        ["transform", "--help"],
        ["verify", "--help"],
        # a missing required option, a bad value and an option the selector does not read
        ["count", "--potential", "1", "--a", "0", "--b", "1"],
        ["count", "--potential", "1", "--a", "0", "--b", "1", "--lambda", "2", "--method", "matrix", "--rtol", "1"],
        ["jumps", "--potential", "1", "--a", "0", "--b", "1"],
        ["jumps", "--potential", "1", "--a", "0", "--b", "1", "--n-max", "3", "--format", "xml"],
        ["transform", "--potential", "1", "--a", "0", "--b", "1", "--grid", "many"],
        ["transform", "--potential", "1", "--a", "0", "--b", "1", "--bogus"],
        ["verify", "--potential", "1", "--a", "0", "--b", "1"],
        ["verify", "--suite", "weyl", "--potential", "1", "--a", "0", "--b", "1", "--n-max", "20"],
        *_BENCH_ARGVS,
    ],
)
def test_one_subcommand_parser_reads_as_the_full_parser(argv):
    # build_parser(argv) holds argv[0]'s subcommand alone and build_parser() all
    # four; their help, usage errors and namespaces agree
    parser = cli.build_parser(argv)
    assert list(parser._subparsers._group_actions[0].choices) == [argv[0]]
    assert list(cli.build_parser()._subparsers._group_actions[0].choices) == list(cli._COMMANDS)
    got, want = _read(parser, argv), _read(cli.build_parser(), argv)
    assert got == want
    if argv[-1] == "--help":
        assert want[0] == 0 and want[1].startswith(f"usage: sturmjumps {argv[0]} [-h] --potential POTENTIAL")
    else:
        assert want[0] in ("usage error", None)


@pytest.mark.parametrize(
    "argv, code, text",
    [
        (["--help"], 0, "usage: sturmjumps [-h] {count,jumps,transform,verify} ...\n"),
        ([], 64, "usage error: the following arguments are required: subcommand\n"),
        (["bogus"], 64, "usage error: argument subcommand: invalid choice: 'bogus' "
                        "(choose from 'count', 'jumps', 'transform', 'verify')\n"),
        (["jump", "--help"], 64, "usage error: argument subcommand: invalid choice: 'jump' "
                                 "(choose from 'count', 'jumps', 'transform', 'verify')\n"),
    ],
)
def test_argv_that_names_no_subcommand_reads_every_subcommand(argv, code, text, capsys):
    if code == 0:
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert out == cli.build_parser().format_help() and out.startswith(text)
        for line in ("count negative eigenvalues at one coupling", "locate jump couplings lambda_n",
                     "Liouville-Green data: D, U(xi), C", "run an asymptotic-law check suite"):
            assert line in out
    else:
        assert main(argv) == code
        assert capsys.readouterr().err == text


def test_entry_points_agree_on_a_potential_that_is_not_c2_at_an_end(capsys):
    # (1-x)^1.5 has an infinite V'' at b = 1: validation, the transform, the
    # phase at the bulk's ends and the CLI all read the same jet there
    from sturmjumps import EvalDomainError, PhaseError, jump_sequence, lg_data, phase

    p = sturmjumps.Potential.from_formula("2+(1-x)^1.5", 0.0, 1.0)
    text = "power not twice differentiable at zero base"
    for error, call in ((EvalDomainError, p.validate), (EvalDomainError, lambda: lg_data(p)),
                        (PhaseError, lambda: phase(p, 10.0)), (PhaseError, lambda: jump_sequence(p, 1, 5))):
        with pytest.raises(error, match=text):
            call()
    common = ["--potential", "2+(1-x)^1.5", "--a", "0", "--b", "1"]
    for argv in (["count", *common, "--lambda", "10"], ["jumps", *common, "--n-min", "1", "--n-max", "5"]):
        assert main(argv) == 1
        assert text in capsys.readouterr().err
