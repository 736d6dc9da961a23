import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import almgren_lab
from almgren_lab import almgren as almgren_mod
from almgren_lab import cli, hemisphere, profile
from almgren_lab.cli import run
from almgren_lab.core import DomainError, WeightParams


def run_capture(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def test_hemisphere_spectrum_command(capsys):
    code, out = run_capture(capsys, ["spectrum", "hemisphere", "--s", "1.25",
                                     "--N", "3", "--count", "6"])
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "almgren-lab/1"
    mus = [m["mu"] for m in payload["modes"]]
    assert any(abs(m) < 1e-8 for m in mus)
    assert any(abs(m - 3.5) < 1e-5 for m in mus)
    ells = [m["l"] for m in payload["modes"]]
    assert ells == sorted(ells)


def test_cylinder_spectrum_command(capsys):
    code, out = run_capture(capsys, ["spectrum", "cylinder", "--s", "1.5",
                                     "--N", "1", "--R", "0.5", "--count", "4"])
    assert code == 0
    payload = json.loads(out)
    lams = [m["lambda"] for m in payload["modes"]]
    assert lams == sorted(lams)
    assert abs(lams[0] - math.pi ** 2 / 2) < 1e-10


def test_profile_command(capsys):
    code, out = run_capture(capsys, ["profile", "--s", "1.5"])
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["J"] - 2.0) <= 1e-5
    assert payload["b"] == 0.0


def test_validation_exit_codes(capsys):
    assert run(["profile", "--s", "2.5"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["fit", "--input", "/nonexistent.csv", "--sigma-candidates", "1"]) == 2


def test_fit_command_and_failure_code(tmp_path, capsys):
    lam = np.geomspace(0.3, 0.02, 10)
    path = tmp_path / "samples.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "phi", "phi_tilde"])
        for l in lam:
            writer.writerow([l, 2.0 * l ** 2, 0.0])
    code, out = run_capture(capsys, ["fit", "--input", str(path), "--s", "1.25",
                                     "--N", "3", "--sigma-candidates", "0,1,2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sigma_used"] == pytest.approx(2.0)
    assert payload["c1_hat"] == pytest.approx(2.0, rel=1e-8)
    # classification failure maps to the numerical-failure exit code
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "phi", "phi_tilde"])
        for l in lam:
            writer.writerow([l, math.exp(-1.0 / l), 0.0])
    capsys.readouterr()
    assert run(["fit", "--input", str(path), "--s", "1.25", "--N", "3",
                "--sigma-candidates", "6.0"]) == 3


def test_synthesize_and_almgren_commands(tmp_path, capsys):
    spec = {"params": {"s": 1.25, "N": 3, "R": 1.0},
            "terms": [{"l": 1, "c1": 1.0, "d1": 0.5}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, out = run_capture(capsys, ["synthesize", "--spec", str(spec_path)])
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"][0]["sigma_plus"] == pytest.approx(1.0, abs=1e-6)

    out_dir = tmp_path / "artifacts"
    code, out = run_capture(capsys, ["almgren", "--spec", str(spec_path),
                                     "--out", str(out_dir)])
    assert code == 0
    summary = json.loads((out_dir / "almgren_summary.json").read_text())
    assert summary["gamma"] == pytest.approx(1.0, abs=1e-4)
    with open(out_dir / "almgren_trace.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["r", "D", "H", "N", "nu1", "nu2"]
    assert len(rows) > 100


def test_extend_command(tmp_path, capsys):
    n = 32
    xs = np.arange(n) * 2 * math.pi / n
    path = tmp_path / "u.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "value"])
        for x in xs:
            writer.writerow([f"{x:.17g}", f"{math.cos(2 * x):.17g}"])
    out_dir = tmp_path / "ext"
    code, out = run_capture(capsys, ["extend", "--input", str(path),
                                     "--t-levels", "0.0,0.5", "--s", "1.5",
                                     "--N", "1", "--out", str(out_dir)])
    assert code == 0
    with open(out_dir / "extension.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["x1", "t", "value"]
    level0 = [float(r[2]) for r in rows[1:] if float(r[1]) == 0.0]
    assert np.allclose(level0, np.cos(2 * xs), atol=1e-12)


def test_check_inequalities_command(capsys):
    code, out = run_capture(capsys, ["check-inequalities", "--which", "hardy",
                                     "--s", "1.25", "--N", "3", "--count", "5",
                                     "--seed", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["min_margin"] > -1e-12


@pytest.mark.parametrize("count", ["0", "-3"])
def test_check_inequalities_rejects_empty_count(capsys, count):
    code = run(["check-inequalities", "--which", "hardy", "--count", count])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--count" in captured.err


def test_high_spec_position_synthesizes_exactly_and_past_the_cap_exits_2(tmp_path, capsys):
    # position 28 at N = 3 is sigma = 9 in sector k = 7 (positions 25-29 hold k = 1, 3, ..., 9)
    spec_path = tmp_path / "high.json"
    spec_path.write_text(json.dumps({"params": {"s": 1.25, "N": 3},
                                     "terms": [{"l": 28, "c1": 1.0, "d1": 0.5}]}))
    code, out = run_capture(capsys, ["synthesize", "--spec", str(spec_path)])
    assert code == 0
    term = json.loads(out)["terms"][0]
    assert (term["l"], term["k"]) == (9, 7)
    assert term["sigma_plus"] == pytest.approx(9.0, rel=1e-15)
    assert term["mu"] == 9 * (9 + 3 + 0.5 - 1)
    assert term["K"] == pytest.approx(2 * (2 * 9 + 3 + 0.5 + 1), rel=1e-15)

    spec_path.write_text(json.dumps({"params": {"s": 1.25, "N": 3},
                                     "terms": [{"l": hemisphere.MAX_MODES, "c1": 1.0}]}))
    start = time.perf_counter()
    code = run(["synthesize", "--spec", str(spec_path)])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "past the last mode position" in captured.err
    assert elapsed < 1.0


@pytest.mark.parametrize("count", [0, -3, hemisphere.MAX_MODES + 1, 10 ** 9])
def test_hemisphere_count_outside_the_cap_exits_2(capsys, count):
    start = time.perf_counter()
    code = run(["spectrum", "hemisphere", "--s", "1.25", "--N", "3", "--count", str(count)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert time.perf_counter() - start < 1.0


def _hemisphere_listing(capsys, *argv):
    code, out = run_capture(capsys, ["spectrum", "hemisphere", *argv])
    assert code == 0
    return json.loads(out)["modes"]


def test_hemisphere_k_max_keeps_the_true_multiplicity(capsys):
    # --k-max filters the listed sectors; sigma = 26 at N = 3 still has M = C(28, 2)
    modes = _hemisphere_listing(capsys, "--s", "1.25", "--N", "3", "--count", "40",
                                "--k-max", "2")
    assert len(modes) == 40
    assert all(m["k"] <= 2 for m in modes)
    top = [m for m in modes if m["l"] == 26]
    assert [m["k"] for m in top] == [0, 2]
    assert all(m["multiplicity"] == 378 for m in top)


def test_hemisphere_listing_near_s_2_keeps_each_sigma_whole(capsys):
    # near s = 2 too, each sigma is listed under one l with its full multiplicity
    modes = _hemisphere_listing(capsys, "--s", "1.8012296771332643", "--N", "2",
                                "--count", "7")
    assert [(m["l"], m["k"]) for m in modes] == [(0, 0), (1, 1), (2, 0), (2, 2),
                                                (3, 1), (3, 3), (4, 0)]
    assert [m["multiplicity"] for m in modes] == [1, 2, 3, 3, 4, 4, 5]


def test_hemisphere_mu_is_exact_and_order_independent_of_s(capsys):
    modes = _hemisphere_listing(capsys, "--s", "1.5", "--N", "1", "--count", "5")
    assert [m["mu"] for m in modes] == [0.0, 1.0, 4.0, 9.0, 16.0]
    listings = [_hemisphere_listing(capsys, "--s", s, "--N", "4", "--count", "30")
                for s in ("1.05", "1.5", "1.95")]
    keys = [[(m["l"], m["k"]) for m in modes] for modes in listings]
    assert keys[0] == keys[1] == keys[2]
    for modes in listings:
        assert [(m["l"], m["k"]) for m in modes] == sorted((m["l"], m["k"]) for m in modes)


def test_determinism_given_seed(capsys):
    argv = ["check-inequalities", "--which", "hardy", "--s", "1.25", "--N", "3",
            "--count", "4", "--seed", "7"]
    _, out1 = run_capture(capsys, argv)
    _, out2 = run_capture(capsys, argv)
    assert out1 == out2


def test_config_file_merged_under_flags(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 1.25, "N": 3}))
    code, out = run_capture(capsys, ["profile", "--config", str(cfg), "--s", "1.5",
                                     "--resolution", "2048"])
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 0.0  # the flag s = 1.5 wins over the config s = 1.25


def test_selftest(capsys):
    code, out = run_capture(capsys, ["selftest"])
    assert code == 0
    assert "PASS" in out


def test_almgren_overflowing_coefficients_exit_2(tmp_path, capsys):
    # the pieces overflow: the command must fail before it prints any NaN or Infinity
    spec_path = tmp_path / "huge.json"
    spec_path.write_text(json.dumps({"params": {"s": 1.25, "N": 3},
                                     "terms": [{"l": 1, "c1": 1e308, "d1": 1e308}]}))
    code = run(["almgren", "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip()


_MALFORMED_SPECS = {
    "terms empty": {"params": {"s": 1.25, "N": 3}, "terms": []},
    "terms missing": {"params": {"s": 1.25, "N": 3}},
    "terms not a list": {"params": {"s": 1.25, "N": 3}, "terms": {"l": 1}},
    "term not an object": {"params": {"s": 1.25, "N": 3}, "terms": [1]},
    "l missing": {"params": {"s": 1.25, "N": 3}, "terms": [{"c1": 1.0}]},
    "l negative": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": -1, "c1": 1.0}]},
    "l float": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1.0, "c1": 1.0}]},
    "l bool": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": True, "c1": 1.0}]},
    "l string": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": "1", "c1": 1.0}]},
    "c1 string": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "c1": "x"}]},
    "c1 bool": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "c1": False}]},
    "c1 nan": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "c1": math.nan}]},
    "d1 inf": {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "d1": math.inf}]},
    "s string": {"params": {"s": "x", "N": 3}, "terms": [{"l": 1, "c1": 1.0}]},
    "params not an object": {"params": [1.25, 3], "terms": [{"l": 1, "c1": 1.0}]},
    "spec not an object": [{"l": 1, "c1": 1.0}],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SPECS))
@pytest.mark.parametrize("command", ["synthesize", "almgren"])
def test_malformed_spec_exits_2_before_any_eigensolve(tmp_path, capsys, monkeypatch,
                                                      command, case):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("the spec reached the eigensolver")

    monkeypatch.setattr(cli, "_load_modes", no_eigensolve)
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(_MALFORMED_SPECS[case]))
    code = run([command, "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["synthesize", "almgren"])
def test_spec_index_past_the_mode_list_exits_2(tmp_path, capsys, monkeypatch, command):
    load = cli._load_modes
    monkeypatch.setattr(cli, "_load_modes", lambda *a: load(*a)[:2])
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"params": {"s": 1.25, "N": 3},
                                     "terms": [{"l": 2, "c1": 1.0}]}))
    code = run([command, "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "out of range for 2 modes" in captured.err


def test_python_dash_m_selftest():
    src_dir = os.path.dirname(os.path.dirname(almgren_lab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src_dir] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "almgren_lab", "selftest"],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout[proc.stdout.index("{"):])["ok"] is True


# ---------------------------------------------------------------------------
# one parser per process, bulk CSV rows, one root solve per zero, lazy imports


def _torus_csv(path, dim, n):
    """A band-limited sample on the 2 pi torus, written as the CLI reads it."""
    x = np.arange(n) * 2 * math.pi / n
    mesh = np.meshgrid(*([x] * dim), indexing="ij")
    u = 0.3 + np.cos(sum((d + 1) * m for d, m in enumerate(mesh)) + 0.4) - 0.5 * np.sin(2 * mesh[0])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{d + 1}" for d in range(dim)] + ["value"])
        for index in np.ndindex(u.shape):
            writer.writerow([f"{x[i]:.17g}" for i in index] + [f"{u[index]:.17g}"])
    return path


def _reference_csv(header, rows) -> bytes:
    """Rows written one at a time by csv.writer with 17 significant digits."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow([f"{float(v):.17g}" for v in row])
    return buf.getvalue().encode()


def test_run_reuses_one_parser_and_keeps_no_state(tmp_path, capsys, monkeypatch):
    assert cli.build_parser() is not cli.build_parser()
    assert run(["spectrum", "cylinder", "--count", "3"]) == 0
    capsys.readouterr()

    def no_rebuild():
        raise AssertionError("run rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", no_rebuild)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 1.25, "N": 2, "R": 0.5}))

    def cylinder(*argv):
        code, out = run_capture(capsys, ["spectrum", "cylinder", *argv])
        assert code == 0
        return json.loads(out)

    default = cylinder()
    assert len(default["modes"]) == 6 and default["params"]["s"] == 1.5
    assert len(cylinder("--count", "2", "--N", "2", "--s", "1.7")["modes"]) == 2
    assert run(["nonsense"]) == 2
    assert run(["spectrum", "cylinder", "--count", "x"]) == 2
    capsys.readouterr()
    assert cylinder() == default       # --count, --N and --s come back to their defaults
    merged = cylinder("--config", str(cfg), "--s", "1.6")
    assert merged["params"]["s"] == 1.6 and merged["params"]["N"] == 2
    assert merged["params"]["R"] == 0.5
    assert cylinder() == default       # nothing of the config stays behind


@pytest.mark.parametrize("dim,n", [(1, 48), (2, 16)])
def test_extend_csv_matches_a_per_row_writer(tmp_path, capsys, dim, n):
    path = _torus_csv(tmp_path / "u.csv", dim, n)
    levels = [0.0, 0.37, 1.25]
    argv = ["extend", "--input", str(path), "--t-levels", "0,0.37,1.25",
            "--s", "1.42", "--N", str(dim)]
    grid, length, axes = cli._read_field_csv(str(path))
    U = profile.build_extension(WeightParams(s=1.42, N=dim), grid, levels, box_length=length)
    mesh = np.meshgrid(*axes, indexing="ij")
    want = _reference_csv([f"x{d + 1}" for d in range(dim)] + ["t", "value"],
                          ([m[index] for m in mesh] + [t, U[i][index]]
                           for i, t in enumerate(levels) for index in np.ndindex(grid.shape)))
    code, out = run_capture(capsys, argv)
    assert code == 0
    assert out.encode() == want
    code, out = run_capture(capsys, argv + ["--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "extension.csv").read_bytes() == want


def test_extend_accepts_one_sample_along_a_higher_axis(tmp_path, capsys):
    # the box length comes from x1 only; one x2 value is a valid 2-D grid
    x = np.arange(16) * 2 * math.pi / 16
    path = tmp_path / "u.csv"
    path.write_text("x1,x2,value\n" + "".join(f"{v:.17g},0,{math.cos(v):.17g}\n" for v in x))
    code, out = run_capture(capsys, ["extend", "--input", str(path), "--t-levels", "0,0.5",
                                     "--s", "1.42", "--N", "2"])
    assert code == 0
    assert len(out.splitlines()) == 1 + 2 * 16


def test_almgren_csv_matches_a_per_row_writer(tmp_path, capsys):
    spec = {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 1, "c1": 1.0, "d1": 0.5},
                                                    {"l": 3, "c1": -0.4, "d1": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    code, _ = run_capture(capsys, ["almgren", "--spec", str(spec_path), "--out", str(tmp_path)])
    assert code == 0
    _, sol = cli._spec_solution(str(spec_path), cli.RunConfig())
    tr = almgren_mod.trace(sol, almgren_mod.radius_schedule(sol.R))
    want = _reference_csv(["r", "D", "H", "N", "nu1", "nu2"],
                          zip(tr.r, tr.D, tr.H, tr.N, tr.nu1, tr.nu2))
    assert (tmp_path / "almgren_trace.csv").read_bytes() == want


def test_emit_csv_refuses_non_finite_values(capsys):
    with pytest.raises(DomainError, match="non-finite"):
        cli._emit_csv(cli.RunConfig(), "table", ["a", "b"], np.array([[1.0, math.inf]]))
    assert capsys.readouterr().out == ""


def test_almgren_degree_40_spec_prints_finite_nu1(tmp_path, capsys):
    # s_u2^2 underflows below r = 0.01 while D and H stay finite
    spec_path = tmp_path / "deg40.json"
    spec_path.write_text(json.dumps({"params": {"s": 1.3, "N": 1},
                                     "terms": [{"l": 40, "c1": 1.0}]}))
    code, _ = run_capture(capsys, ["almgren", "--spec", str(spec_path), "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "almgren_trace.csv") as fh:
        rows = list(csv.DictReader(fh))
    nu1 = np.array([float(row["nu1"]) for row in rows])
    assert np.all(np.isfinite(nu1)) and np.all(nu1 >= 0.0)
    assert float(rows[-1]["r"]) < 0.001


@pytest.mark.parametrize("N", [1, 2])
def test_cylinder_spectrum_solves_each_zero_once(capsys, monkeypatch, N):
    import scipy.optimize

    solves = []
    brentq = scipy.optimize.brentq

    def counting(*args, **kwargs):
        solves.append(args[1:3])
        return brentq(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "brentq", counting)
    code, out = run_capture(capsys, ["spectrum", "cylinder", "--s", "1.37", "--N", str(N),
                                     "--R", "0.7", "--count", "6"])
    assert code == 0
    assert len(json.loads(out)["modes"]) == 6
    assert len(solves) == 6


_MALFORMED_NUMBERS = {
    "extend non-numeric cell": ("extend", "x1,value\n0,1\n3.14,abc\n", "--t-levels", "0,0.5", "u.csv"),
    "extend header only": ("extend", "x1,value\n", "--t-levels", "0,0.5", "u.csv"),
    "extend empty file": ("extend", "", "--t-levels", "0,0.5", "u.csv"),
    "extend ragged row": ("extend", "x1,value\n0,1\n3.14\n", "--t-levels", "0,0.5", "u.csv"),
    "extend one column": ("extend", "value\n1\n2\n", "--t-levels", "0,0.5", "u.csv"),
    "extend one point": ("extend", "x1,value\n0,1\n", "--t-levels", "0,0.5", "u.csv"),
    "t-levels non-numeric": ("extend", None, "--t-levels", "0,x", "--t-levels"),
    "t-levels nan": ("extend", None, "--t-levels", "0,nan", "finite"),
    "t-levels inf": ("extend", None, "--t-levels", "0,inf", "finite"),
    "fit non-numeric cell": ("fit", "lambda,phi,phi_tilde\n0.3,1,x\n", "--sigma-candidates", "0,1",
                             "u.csv"),
    "fit ragged row": ("fit", "lambda,phi,phi_tilde\n0.3,1\n", "--sigma-candidates", "0,1", "u.csv"),
    "sigma-candidates non-numeric": ("fit", None, "--sigma-candidates", "0,x", "--sigma-candidates"),
    "sigma-candidates empty": ("fit", None, "--sigma-candidates", ",", "--sigma-candidates"),
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_NUMBERS))
def test_malformed_cli_numbers_exit_2(tmp_path, capsys, case):
    command, text, flag, value, named = _MALFORMED_NUMBERS[case]
    path = tmp_path / "u.csv"
    if text is not None:
        path.write_text(text)
    elif command == "extend":
        _torus_csv(path, 1, 24)
    else:
        lam = np.geomspace(0.3, 0.02, 8)
        path.write_text("lambda,phi,phi_tilde\n"
                        + "".join(f"{l:.17g},{l ** 2:.17g},{0.5 * l ** 2:.17g}\n" for l in lam))
    code = run([command, "--input", str(path), flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and named in captured.err


def test_profile_request_loads_neither_scipy_optimize_nor_interpolate():
    src_dir = os.path.dirname(os.path.dirname(almgren_lab.__file__))
    code = (f"import sys; sys.path.insert(0, {src_dir!r}); import almgren_lab.cli as cli; "
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert cli.run(['profile', '--s', '1.5', '--resolution', '512']) == 0\n"
            "print(sorted(m for m in ('scipy.optimize', 'scipy.interpolate') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
