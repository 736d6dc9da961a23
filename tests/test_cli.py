import argparse
import csv
import dataclasses
import io
import json
import math
import os
import re
import shlex
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


def _parsed(*argv):
    """The options of a command line, parsed and not run."""
    return cli.build_parser().parse_args(list(argv))


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
    # there is no --format flag: every command writes JSON
    assert run(["spectrum", "hemisphere", "--format", "csv"]) == 2
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


@pytest.mark.parametrize("count", [hemisphere.MAX_MODES + 1, 10 ** 5])
def test_cylinder_count_outside_the_cap_exits_2(capsys, count):
    # the list is built from count^2 candidates: 100000 would run without end
    start = time.perf_counter()
    code = run(["spectrum", "cylinder", "--s", "1.5", "--N", "2", "--count", str(count)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"cap of {hemisphere.MAX_MODES}" in captured.err
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
    cfg.write_text(json.dumps({"s": 1.25}))
    code, out = run_capture(capsys, ["profile", "--config", str(cfg), "--s", "1.5",
                                     "--resolution", "2048"])
    assert code == 0
    payload = json.loads(out)
    assert payload["b"] == 0.0  # the flag s = 1.5 wins over the config s = 1.25


def test_config_file_with_unknown_keys_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"S": 1.9, "fmt": "csv"}))   # a misspelt s
    code = run(["spectrum", "hemisphere", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "['S', 'fmt']" in captured.err
    cfg.write_text(json.dumps([1.9]))
    assert run(["spectrum", "hemisphere", "--config", str(cfg)]) == 2
    assert capsys.readouterr().out == ""
    cfg.write_text(json.dumps({"s": 1.25, "N": 2}))
    code, out = run_capture(capsys, ["spectrum", "hemisphere", "--config", str(cfg),
                                     "--count", "3"])
    assert code == 0
    assert json.loads(out)["params"]["s"] == 1.25 and json.loads(out)["params"]["N"] == 2


def test_profile_resolution_past_the_cap_exits_2(capsys):
    start = time.perf_counter()
    code = run(["profile", "--resolution", str(profile.MAX_PROFILE_CELLS + 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert str(profile.MAX_PROFILE_CELLS) in captured.err
    assert time.perf_counter() - start < 1.0


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
    "N float": {"params": {"s": 1.25, "N": 3.0}, "terms": [{"l": 1, "c1": 1.0}]},
    "params not an object": {"params": [1.25, 3], "terms": [{"l": 1, "c1": 1.0}]},
    "spec not an object": [{"l": 1, "c1": 1.0}],
}


@pytest.mark.parametrize("case", sorted(_MALFORMED_SPECS))
@pytest.mark.parametrize("command", ["synthesize", "almgren"])
def test_malformed_spec_exits_2_before_any_eigensolve(tmp_path, capsys, monkeypatch,
                                                      command, case):
    def no_eigensolve(*args, **kwargs):
        raise AssertionError("the spec reached the eigensolver")

    monkeypatch.setattr(hemisphere, "hemisphere_modes", no_eigensolve)
    spec_path = tmp_path / "bad.json"
    spec_path.write_text(json.dumps(_MALFORMED_SPECS[case]))
    code = run([command, "--spec", str(spec_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["synthesize", "almgren"])
def test_spec_index_past_the_mode_list_exits_2(tmp_path, capsys, monkeypatch, command):
    load = hemisphere.hemisphere_modes
    monkeypatch.setattr(hemisphere, "hemisphere_modes", lambda *a: load(*a)[:2])
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


@pytest.mark.parametrize("dim,n", [(1, 48), (2, 16), (3, 8)])
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
    _, sol = cli._spec_solution(str(spec_path), _parsed("almgren", "--spec", str(spec_path)))
    tr = almgren_mod.trace(sol, almgren_mod.radius_schedule(sol.R))
    want = _reference_csv(["r", "D", "H", "N", "nu1", "nu2"],
                          zip(tr.r, tr.D, tr.H, tr.N, tr.nu1, tr.nu2))
    assert (tmp_path / "almgren_trace.csv").read_bytes() == want


def test_almgren_request_forms_the_pieces_once(tmp_path, capsys, monkeypatch):
    # the limit is fitted on the trace the request prints: one pass of the
    # closed pieces, and the same summary as a limit that forms its own
    spec = {"params": {"s": 1.25, "N": 3}, "terms": [{"l": 0, "c1": 0.7, "d1": 1.3},
                                                    {"l": 1, "c1": 1.0, "d1": 0.5},
                                                    {"l": 3, "c1": -0.4, "d1": 0.2}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    calls = []
    pieces = almgren_mod._pieces
    monkeypatch.setattr(almgren_mod, "_pieces",
                        lambda sol, radii, method: calls.append(method) or pieces(sol, radii, method))
    code, _ = run_capture(capsys, ["almgren", "--spec", str(spec_path), "--out", str(tmp_path)])
    assert code == 0
    assert calls == ["closed"]
    monkeypatch.undo()
    _, sol = cli._spec_solution(str(spec_path), _parsed("almgren", "--spec", str(spec_path)))
    want = almgren_mod.frequency_limit(sol)
    summary = json.loads((tmp_path / "almgren_summary.json").read_text())
    assert (summary["gamma"], summary["H_limit"], summary["fit_residual"]) == (
        want.gamma, want.h_limit, want.fit_residual)


# -0, subnormals, the ends of the float range, integers and a repeating fraction
_EDGE_NUMBERS = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e308, -1e308, 3, -7, 0.1, 1 / 3]


def test_emit_csv_writes_edge_numbers_as_a_per_row_writer(capsys):
    args = _parsed("selftest")
    rows = np.array(_EDGE_NUMBERS).reshape(5, 2)
    cli._emit_csv(args, "table", ["a", "b"], rows)
    assert capsys.readouterr().out.encode() == _reference_csv(["a", "b"], rows)
    integers = np.array([[3, -7, 0], [12, 2 ** 53, -1]])
    cli._emit_csv(args, "table", ["a", "b", "c"], integers)
    assert capsys.readouterr().out.encode() == _reference_csv(["a", "b", "c"], integers)
    # a table of levels over a grid: the edge numbers as coordinates, levels and values
    axes = [np.array(_EDGE_NUMBERS[:4]), np.array(_EDGE_NUMBERS[4:7])]
    levels = [0.0, 1e308, 5e-324]
    values = np.resize(np.array(_EDGE_NUMBERS[::-1]), (3, 4, 3))
    cli._emit_csv(args, "grid", ["x1", "x2", "t", "value"], values, axes=axes, levels=levels)
    want = _reference_csv(["x1", "x2", "t", "value"],
                          ([axes[0][i], axes[1][j], t, values[k, i, j]]
                           for k, t in enumerate(levels) for i in range(4) for j in range(3)))
    assert capsys.readouterr().out.encode() == want


def test_emit_csv_refuses_non_finite_values(capsys):
    with pytest.raises(DomainError, match="non-finite"):
        cli._emit_csv(_parsed("selftest"), "table", ["a", "b"], np.array([[1.0, math.inf]]))
    assert capsys.readouterr().out == ""
    # a table of levels over a grid gates its coordinates and levels too
    for axis, level in (([0.0, math.nan], 0.5), ([0.0, 1.0], -math.inf)):
        with pytest.raises(DomainError, match="non-finite"):
            cli._emit_csv(_parsed("selftest"), "grid", ["x1", "t", "value"], np.zeros((1, 2)),
                          axes=[np.array(axis)], levels=[level])
    assert capsys.readouterr().out == ""


def test_almgren_close_exponents_at_n_plus_b_below_1_exits_0(tmp_path, capsys):
    # N + b = 0.2355: the constant mode's sigma+ = -b lies within 1 + b of
    # sigma = 1, too close for the schedule's three decades to show the tail
    spec_path = tmp_path / "close.json"
    spec_path.write_text(json.dumps({"params": {"s": 1.882238, "N": 1},
                                     "terms": [{"l": 0, "c1": 0.3}, {"l": 1, "c1": 1.0}]}))
    code, _ = run_capture(capsys, ["almgren", "--spec", str(spec_path), "--out", str(tmp_path)])
    assert code == 0
    summary = json.loads((tmp_path / "almgren_summary.json").read_text())
    assert summary["gamma"] == pytest.approx(0.764476, abs=1e-10)
    assert summary["matched_branch"] == "sigma_plus"
    assert 0.0 <= summary["fit_residual"] <= almgren_mod.FIT_RESIDUAL_BOUND


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
    from almgren_lab import cylinder

    solves = []
    kernel = cylinder._bessel_zeros

    def counting(nu, m):
        solves.append(list(m))
        return kernel(nu, m)

    monkeypatch.setattr(cylinder, "_bessel_zeros", counting)
    code, out = run_capture(capsys, ["spectrum", "cylinder", "--s", "1.37", "--N", str(N),
                                     "--R", "0.7", "--count", "6"])
    assert code == 0
    assert len(json.loads(out)["modes"]) == 6
    assert solves == [[1, 2, 3, 4, 5, 6]]


_MALFORMED_NUMBERS = {
    "extend non-numeric cell": ("extend", "x1,value\n0,1\n3.14,abc\n", "--t-levels", "0,0.5", "u.csv"),
    "extend header only": ("extend", "x1,value\n", "--t-levels", "0,0.5", "u.csv"),
    "extend empty file": ("extend", "", "--t-levels", "0,0.5", "u.csv"),
    "extend ragged row": ("extend", "x1,value\n0,1\n3.14\n", "--t-levels", "0,0.5", "u.csv"),
    "extend one column": ("extend", "value\n1\n2\n", "--t-levels", "0,0.5", "u.csv"),
    "extend one point": ("extend", "x1,value\n0,1\n", "--t-levels", "0,0.5", "u.csv"),
    # loadtxt reads nan and inf as numbers; the line count includes the blank line
    "extend nan coordinate": ("extend", "x1,value\n0,1\n\nnan,2\n", "--t-levels", "0,0.5",
                              "u.csv: line 4 holds a value that is not finite"),
    "t-levels non-numeric": ("extend", None, "--t-levels", "0,x", "--t-levels"),
    "t-levels nan": ("extend", None, "--t-levels", "0,nan", "finite"),
    "t-levels inf": ("extend", None, "--t-levels", "0,inf", "finite"),
    "fit non-numeric cell": ("fit", "lambda,phi,phi_tilde\n0.3,1,x\n", "--sigma-candidates", "0,1",
                             "u.csv"),
    "fit ragged row": ("fit", "lambda,phi,phi_tilde\n0.3,1\n", "--sigma-candidates", "0,1", "u.csv"),
    "fit inf sample": ("fit", "lambda,phi,phi_tilde\n0.3,1,0.5\n0.2,-inf,0.1\n",
                       "--sigma-candidates", "0,1", "u.csv: line 3 holds a value that is not finite"),
    "sigma-candidates non-numeric": ("fit", None, "--sigma-candidates", "0,x", "--sigma-candidates"),
    "sigma-candidates empty": ("fit", None, "--sigma-candidates", ",", "--sigma-candidates"),
    "sigma-candidates nan": ("fit", None, "--sigma-candidates", "0,nan", "finite"),
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


@pytest.mark.parametrize("which", ["hardy", "rellich", "sobolev"])
def test_reference_radius_past_the_float_range_exits_2(capsys, which):
    # the margins' powers of R overflowed: a raw OverflowError and a traceback
    code = run(["check-inequalities", "--which", which, "--R", "1e308"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "reference radius R" in captured.err


# One fresh interpreter runs these steps in order and records the scipy
# modules loaded once each has run.  None loads any: the closed forms, the
# profile solve, the Gauss-Jacobi rules of the inequalities, the
# finite-volume eigensolves and splines and selftest's Bessel zero all run on
# numpy.  A step's record covers its predecessors too, so a step that loaded
# a module would show it.
_CLOSED_FORM_STEPS = ["import almgren_lab", "import almgren_lab.cli",
                      "import almgren_lab.inequalities", "spectrum hemisphere", "synthesize",
                      "almgren", "fit", "profile", "check-inequalities hardy",
                      "check-inequalities rellich", "check-inequalities sobolev"]
_FV_STEPS = {   # what runs
    "hemisphere_eigs": ("from almgren_lab import WeightParams, hemisphere_eigs\n"
                        "mode = hemisphere_eigs(WeightParams(s=1.25, N=3), k_max=2, per_k=3,\n"
                        "                       resolution=128)[4]\n"
                        "mode.profile(0.5), mode.profile.deriv(0.5)\n"),
    "solve_profile": ("from almgren_lab import solve_profile\n"
                      "sol = solve_profile(0.4, resolution=512)\n"
                      "sol.phi_at(1.0), sol.zeta_at(1.0)\n"),
    "selftest": "import almgren_lab.cli as cli\nassert cli.run(['selftest']) == 0\n",
}


@pytest.fixture(scope="module")
def scipy_footprints(tmp_path_factory):
    """The fresh interpreter's run: its exit, stderr and {step: scipy modules loaded}."""
    tmp = tmp_path_factory.mktemp("footprints")
    spec = tmp / "spec.json"
    spec.write_text(json.dumps({"params": {"s": 1.3, "N": 3},
                                "terms": [{"l": 0, "c1": 1.0}, {"l": 2, "c1": 0.5, "d1": 0.3}]}))
    samples = tmp / "samples.csv"
    lam = np.geomspace(0.3, 0.02, 8)
    samples.write_text("lambda,phi,phi_tilde\n" + "".join(
        f"{l:.17g},{l ** 1.5:.17g},{0.5 * l ** 1.5:.17g}\n" for l in lam))
    commands = {"spectrum hemisphere": ["spectrum", "hemisphere", "--N", "3", "--count", "10"],
                "synthesize": ["synthesize", "--spec", str(spec)],
                "almgren": ["almgren", "--spec", str(spec)],
                "fit": ["fit", "--input", str(samples), "--sigma-candidates", "0.5,1.5,2.5"],
                "profile": ["profile", "--s", "1.5", "--resolution", "512"]}
    commands.update({f"check-inequalities {which}": ["check-inequalities", "--which", which,
                                                     "--N", "4", "--count", "2"]
                     for which in ("hardy", "rellich", "sobolev")})
    steps = [(what, what + "\n" if what.startswith("import") else
              f"import almgren_lab.cli as cli\nassert cli.run({commands[what]!r}) == 0\n")
             for what in _CLOSED_FORM_STEPS]
    steps += list(_FV_STEPS.items())
    src_dir = os.path.dirname(os.path.dirname(almgren_lab.__file__))
    code = (f"import sys; sys.path.insert(0, {src_dir!r})\n"
            "import contextlib, io, json\n"
            f"for what, body in {steps!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        exec(body, {})\n"
            "    print(json.dumps([what, sorted(m for m in sys.modules\n"
            "                                   if m.split('.')[0] == 'scipy')]))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    return proc.returncode, proc.stderr, dict(json.loads(line) for line in proc.stdout.splitlines())


def test_import_and_closed_form_commands_load_no_scipy(scipy_footprints):
    # the closed forms, the profile solve and the Gauss-Jacobi rules run on
    # numpy and math; every scipy kernel is imported by the function that
    # calls it, on first use
    code, err, loaded = scipy_footprints
    assert code == 0, err
    assert [(what, loaded[what]) for what in _CLOSED_FORM_STEPS] == \
        [(what, []) for what in _CLOSED_FORM_STEPS]


def test_cylinder_and_extend_commands_load_no_scipy(tmp_path):
    # the Bessel zeros, norms and radial factors and extend's K_s run on the
    # numpy kernels of special_functions: no scipy module, private ones included
    samples = _torus_csv(tmp_path / "u.csv", 1, 16)
    src_dir = os.path.dirname(os.path.dirname(almgren_lab.__file__))
    commands = [("spectrum cylinder --N 1", ["spectrum", "cylinder", "--N", "1", "--count", "6"]),
                ("spectrum cylinder --N 2", ["spectrum", "cylinder", "--N", "2", "--count", "6"]),
                ("extend", ["extend", "--input", str(samples), "--t-levels", "0,0.5"])]
    steps = [(what, f"assert cli.run({argv!r}) == 0\n") for what, argv in commands]
    steps += [("extension_energy_identity",
               "import numpy as np\nfrom almgren_lab import WeightParams\n"
               "from almgren_lab.profile import extension_energy_identity\n"
               "x = np.arange(16) * 2 * np.pi / 16\n"
               "extension_energy_identity(WeightParams(s=1.4, N=1), np.cos(x) + 0.2 * np.sin(3 * x))\n"),
              ("cylinder_mode(...).radial",
               "from almgren_lab import WeightParams, cylinder_mode\n"
               "cylinder_mode(WeightParams(s=1.3, N=2), 3, 2).radial([0.0, 0.4, 1.7])\n")]
    code = (f"import sys; sys.path.insert(0, {src_dir!r})\n"
            "import contextlib, io\n"
            "import almgren_lab.cli as cli\n"
            f"for what, body in {steps!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        exec(body, {'cli': cli})\n"
            "    print(what, '|', sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines == [f"{what} | []" for what, _ in steps]


@pytest.mark.parametrize("what", sorted(_FV_STEPS))
def test_fv_cross_checks_and_selftest_load_no_scipy(what, scipy_footprints):
    # the finite-volume eigensolves and splines run on core's tridiagonal
    # cyclic reduction, and selftest's Bessel zero on special_functions
    code, err, loaded = scipy_footprints
    assert code == 0, err
    assert loaded[what] == []


def test_json_artifact_is_compact_and_the_file_holds_the_printed_payload(tmp_path, capsys):
    code, out = run_capture(capsys, ["spectrum", "hemisphere", "--s", "1.25", "--N", "3",
                                     "--count", "6", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "hemisphere_spectrum.json").read_text()
    assert text == out and out.count("\n") == 1     # one line, as printed
    payload = json.loads(out)
    assert payload == json.loads(text)
    assert list(payload) == sorted(payload) and payload["schema"] == cli.SCHEMA
    assert len(payload["modes"]) == 6


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_json_payload_exits_2_with_nothing_on_stdout(tmp_path, capsys,
                                                                monkeypatch, bad):
    real = profile.solve_profile

    def broken(*args, **kwargs):
        sol = real(*args, **kwargs)
        return dataclasses.replace(sol, J=bad)

    monkeypatch.setattr(profile, "solve_profile", broken)
    code = run(["profile", "--s", "1.5", "--resolution", "512", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "non-finite" in captured.err
    assert not (tmp_path / "profile.json").exists()


# ---------------------------------------------------------------------------
# each subcommand takes the options it reads; --config is parsed like the flags


_REQUIRED = {
    "spectrum hemisphere": ["spectrum", "hemisphere"],
    "spectrum cylinder": ["spectrum", "cylinder"],
    "profile": ["profile"],
    "extend": ["extend", "--input", "u.csv"],
    "synthesize": ["synthesize", "--spec", "spec.json"],
    "almgren": ["almgren", "--spec", "spec.json"],
    "fit": ["fit", "--input", "u.csv", "--sigma-candidates", "0,1"],
    "check-inequalities": ["check-inequalities", "--which", "hardy"],
    "selftest": ["selftest"],
}

_READ_OPTIONS = {   # every option a subcommand reads, with a value as it prints
    "spectrum hemisphere": {"s": "1.25", "N": "3", "count": "4", "k_max": "2"},
    "spectrum cylinder": {"s": "1.25", "N": "3", "R": "0.5", "count": "4"},
    "profile": {"s": "1.25", "resolution": "1024", "t_max": "30.0", "samples": "8"},
    "extend": {"s": "1.25", "N": "1", "t_levels": "0,1"},
    "synthesize": {"s": "1.25", "N": "3", "R": "0.5"},
    "almgren": {"s": "1.25", "N": "3", "R": "0.5"},
    "fit": {"s": "1.25", "N": "3"},
    "check-inequalities": {"s": "1.25", "N": "3", "R": "0.5", "count": "4", "seed": "7"},
    "selftest": {"seed": "7"},
}

_DROPPED_FLAGS = [
    ("spectrum hemisphere", "--resolution", "4096"), ("spectrum hemisphere", "--seed", "1"),
    ("spectrum hemisphere", "--R", "3.5"), ("spectrum cylinder", "--k-max", "2"),
    ("profile", "--N", "7"), ("profile", "--R", "3.5"), ("profile", "--seed", "1"),
    ("extend", "--R", "3.5"), ("extend", "--resolution", "4096"), ("extend", "--seed", "1"),
    ("synthesize", "--resolution", "4096"), ("synthesize", "--seed", "1"),
    ("almgren", "--resolution", "4096"), ("almgren", "--seed", "1"),
    ("fit", "--R", "3.5"), ("fit", "--resolution", "4096"), ("fit", "--seed", "1"),
    ("check-inequalities", "--resolution", "4096"),
    ("selftest", "--s", "2"), ("selftest", "--N", "4"), ("selftest", "--R", "3.5"),
    ("selftest", "--resolution", "4096"),
]


@pytest.mark.parametrize("command", sorted(_READ_OPTIONS))
def test_each_subcommand_parses_exactly_the_options_it_reads(command):
    given = _READ_OPTIONS[command]
    argv = list(_REQUIRED[command])
    for dest, value in given.items():
        argv += ["--" + dest.replace("_", "-"), value]
    args = _parsed(*argv, "--out", "o", "--config", "c.json")
    options = set(vars(args)) - {"command", "func", "which", "input", "spec",
                                 "sigma_candidates", "out", "config"}
    # profile's --b is the other spelling of --s
    assert options == set(given) | ({"b"} if command == "profile" else set())
    for dest, value in given.items():
        assert str(getattr(args, dest)) == value


@pytest.mark.parametrize("command,flag,value", _DROPPED_FLAGS)
def test_a_flag_the_subcommand_does_not_read_exits_2(capsys, command, flag, value):
    # selftest --s 2 would pass for --seed 2 if argparse took abbreviations
    code = run(_REQUIRED[command] + [flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: {flag}" in captured.err


_BAD_CONFIGS = [
    ("s-string", {"s": "abc"}, ["spectrum", "hemisphere"]),
    ("seed-string", {"seed": "x"}, ["check-inequalities", "--which", "hardy", "--count", "1"]),
    ("seed-negative", {"seed": -1}, ["selftest"]),
    ("N-bool", {"N": True}, ["spectrum", "hemisphere"]),
    ("N-fraction", {"N": 2.5}, ["spectrum", "cylinder"]),
    ("R-list", {"R": [0.5]}, ["spectrum", "cylinder"]),
    ("out-null", {"out": None}, ["spectrum", "cylinder"]),
    ("key-not-read", {"seed": 1}, ["profile", "--resolution", "512"]),
    ("R-not-read-by-hemisphere", {"R": 2.0}, ["spectrum", "hemisphere"]),
]


@pytest.mark.parametrize("case,data,argv", _BAD_CONFIGS, ids=[c[0] for c in _BAD_CONFIGS])
def test_config_values_are_checked_as_the_flags_are(tmp_path, capsys, case, data, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(data))
    code = run(argv + ["--config", str(cfg)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.strip()
    if case == "key-not-read":
        assert "['seed']" in captured.err and "['out', 'resolution', 's']" in captured.err
    if case == "R-not-read-by-hemisphere":
        assert "spectrum hemisphere reads the keys ['N', 'out', 's']" in captured.err


def test_config_string_values_parse_as_the_flag_text(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": "1.25", "N": "2"}))
    argv = ["spectrum", "hemisphere", "--count", "2"]
    from_file = run_capture(capsys, argv + ["--config", str(cfg)])
    assert from_file == run_capture(capsys, argv + ["--s", "1.25", "--N", "2"])
    assert from_file[0] == 0


@pytest.mark.parametrize("argv", [
    ["profile", "--samples", "0"],
    ["profile", "--samples", "-3"],
    ["profile", "--t-max", "nan"],
    ["profile", "--t-max", "inf"],
    ["check-inequalities", "--which", "hardy", "--count", "1", "--seed", "-1"],
    ["selftest", "--seed", "-1"],
    # a step T_max / resolution past the cap: the one-node tail raised IndexError
    ["profile", "--t-max", "5000", "--resolution", "512"],
], ids=lambda argv: " ".join(argv))
def test_malformed_numeric_options_exit_2(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert sum("error:" in line for line in captured.err.splitlines()) == 1
    assert "Traceback" not in captured.err


def test_extend_n_must_match_the_csv_and_defaults_to_it(tmp_path, capsys):
    path = _torus_csv(tmp_path / "u.csv", 1, 16)
    argv = ["extend", "--input", str(path), "--t-levels", "0,0.5", "--s", "1.42"]
    code = run(argv + ["--N", "3"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "--N 3" in captured.err and "1 coordinate columns" in captured.err
    code, implied = run_capture(capsys, argv)
    assert code == 0
    assert run_capture(capsys, argv + ["--N", "1"]) == (0, implied)
    plane = _torus_csv(tmp_path / "v.csv", 2, 8)
    argv = ["extend", "--input", str(plane), "--t-levels", "0,0.5", "--s", "1.42"]
    assert run_capture(capsys, argv) == run_capture(capsys, argv + ["--N", "2"])


def test_profile_s_and_b_are_exclusive_and_a_config_s_yields_to_b(tmp_path, capsys):
    code = run(["profile", "--s", "1.2", "--b", "0.5", "--resolution", "512"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"s": 1.25}))
    code, out = run_capture(capsys, ["profile", "--config", str(cfg), "--b", "0.5",
                                     "--resolution", "512"])
    assert code == 0
    assert json.loads(out)["b"] == 0.5


def _readme_command_lines():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    # every "almgren-lab ..." or "python -m almgren_lab ..." up to a comment or the line end
    return [shlex.split(line) for line in re.findall(r"almgren[-_]lab ([^#\n]*)", block)]


def test_readme_command_lines_parse():
    lines = _readme_command_lines()
    assert len(lines) >= 10
    parser = cli.build_parser()
    for argv in lines:
        parser.parse_args(argv)     # a dropped flag ends in SystemExit


def _parser_options(parser, words):
    """The --flags the parser gives the subcommand `words`, less --help, --out and --config."""
    for word in words:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[word]
    flags = {o for a in parser._actions for o in a.option_strings if o.startswith("--")}
    return flags - {"--help", "--out", "--config"}


def _leaf_commands(parser, words=()):
    """Every runnable subcommand of the parser, as its words."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [words]
    return [leaf for name, p in subs[0].choices.items()
            for leaf in _leaf_commands(p, (*words, name))]


def test_readme_option_table_matches_the_parser():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    parser = cli.build_parser()
    seen = []
    # rows "| `name`, `name` | options |": every --flag named in the options cell
    for names, options in re.findall(r"^\| (`[^|]+`) \| ([^|]+) \|$", text, re.M):
        for name in re.findall(r"`([^`]+)`", names):
            words = tuple(name.split())
            named = set(re.findall(r"--[A-Za-z][A-Za-z-]*", options))
            assert named == _parser_options(parser, words), name
            seen.append(words)
    assert sorted(seen) == sorted(_leaf_commands(parser))
