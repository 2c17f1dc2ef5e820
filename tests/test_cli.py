"""End-to-end CLI behavior: parsing, config manifests, formats, exit codes."""
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

from pamlab import greens, spectral
from pamlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# basics
# ---------------------------------------------------------------------------

def test_mu_text_output(capsys):
    code, out, err = run(capsys, "mu", "--d", "1", "--kappa", "0.75")
    assert code == 0 and err == ""
    assert float(out) == pytest.approx((math.sqrt(13) - 3) / 2, abs=1e-8)


def test_missing_required_parameter(capsys):
    code, out, err = run(capsys, "mu", "--d", "1")
    assert code == 2
    assert "missing required parameter --kappa" in err


def test_unknown_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["mu", "--d", "1", "--frobnicate", "7"])
    assert exc.value.code == 2


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("pam ")


def test_green_defaults(capsys):
    code, out, _ = run(capsys, "green", "--d", "3")
    assert code == 0
    assert float(out) == pytest.approx(greens.green_zero(3).value, abs=1e-9)
    code, out, _ = run(capsys, "green", "--d", "1")
    assert code == 0 and out.strip() == "inf"


def test_green_json_divergent(capsys):
    code, out, _ = run(capsys, "green", "--d", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["value"] == "inf"          # never a float sentinel
    assert doc["result"]["divergent"] is True
    assert doc["manifest"]["command"] == "green"
    assert "out" not in doc["manifest"]["params"]


def test_green_at_requires_x(capsys):
    code, _, err = run(capsys, "green", "--d", "3", "--quantity", "at")
    assert code == 2 and "--x is required" in err


def test_green_mc_requires_seed(capsys):
    code, _, err = run(capsys, "green", "--d", "5", "--method", "monte-carlo")
    assert code == 2 and "--seed is required" in err


@pytest.mark.parametrize("samples", ["1", "0", "-5"])
def test_green_mc_needs_two_samples(capsys, samples):
    code, out, err = run(capsys, "green", "--d", "5", "--method", "monte-carlo",
                         "--seed", "1", "--samples", samples)
    assert code == 2 and out == ""
    assert "need at least 2 samples" in err


# ---------------------------------------------------------------------------
# lambda estimators
# ---------------------------------------------------------------------------

def test_lambda_spectral_needs_a_radius(capsys):
    code, _, err = run(capsys, "lambda-spectral", "--d", "1", "--n", "1",
                       "--p", "1", "--kappa", "0.1", "--rho", "0.1")
    assert code == 2 and "one of --radius or --radii" in err


def test_lambda_spectral_negative_radius_names_it(capsys):
    code, _, err = run(capsys, "lambda-spectral", "--d", "1", "--n", "1",
                       "--p", "1", "--kappa", "0.1", "--rho", "0.1", "--radius", "-1")
    assert code == 2 and "got R=-1" in err


def test_lambda_spectral_radii_text(capsys):
    code, out, _ = run(capsys, "lambda-spectral", "--d", "1", "--n", "1",
                       "--p", "1", "--kappa", "0.25", "--rho", "0.25",
                       "--radii", "1,2")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    (r1, v1), (r2, v2) = (ln.split() for ln in lines)
    assert (r1, r2) == ("1", "2")
    assert float(v2) >= float(v1)


def test_lambda_spectral_nonconvergence_exit_code(capsys):
    code, _, err = run(capsys, "lambda-spectral", "--d", "1", "--n", "1",
                       "--p", "1", "--kappa", "0.25", "--rho", "0.25",
                       "--radius", "16", "--tol", "1e-16")
    assert code == 3
    assert "residual" in err


def test_lambda_spectral_json_records_the_solve(capsys, tmp_path):
    code, out, _ = run(capsys, "lambda-spectral", "--d", "3", "--n", "1",
                       "--p", "2", "--kappa", "0.05", "--rho", "0.1",
                       "--radius", "1", "--format", "json")
    assert code == 0
    (est,) = json.loads(out)["result"]["estimates"]
    assert (est["solver"], est["dim"], est["matvecs"]) == ("dense", 255, 256)
    # the CSV form keeps its columns
    csv_out = tmp_path / "ls.csv"
    code, _, _ = run(capsys, "lambda-spectral", "--d", "1", "--n", "1",
                     "--p", "1", "--kappa", "0.25", "--rho", "0.25",
                     "--radius", "2", "--format", "csv", "--out", str(csv_out))
    assert code == 0
    assert csv_out.read_text().splitlines()[0] == \
        "d,n,p,kappa,rho,R,lambda_box,residual"


def test_lambda_mc_requires_seed(capsys):
    code, _, err = run(capsys, "lambda-mc", "--d", "1", "--n", "1", "--p", "1",
                       "--kappa", "0.1", "--rho", "0.1", "--t", "2")
    assert code == 2 and "reproducible" in err


def test_lambda_mc_frozen_point(capsys):
    code, out, _ = run(capsys, "lambda-mc", "--d", "1", "--n", "1", "--p", "1",
                       "--kappa", "0", "--rho", "0", "--t", "2",
                       "--samples", "40", "--seed", "3")
    assert code == 0
    assert out.strip() == "1.0 +- 0.0"


def test_lambda_mc_suppresses_weak_interval(capsys):
    code, out, _ = run(capsys, "lambda-mc", "--d", "1", "--n", "1", "--p", "1",
                       "--kappa", "0", "--rho", "0", "--t", "2",
                       "--samples", "10", "--seed", "3")
    assert code == 0
    assert "confidence interval suppressed" in out
    assert "ESS 10.0 < 30" in out


# ---------------------------------------------------------------------------
# config manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip_is_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, out, _ = run(capsys, "mu", "--d", "1", "--kappa", "0.75",
                       "--out", str(a))
    assert code == 0 and out.strip() == f"wrote {a}"
    code, _, _ = run(capsys, "mu", "--config", str(a), "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_command_mismatch(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "mu", "--d", "1", "--kappa", "0.5", "--out", str(a))
    code, _, err = run(capsys, "green", "--config", str(a))
    assert code == 2 and "is for command" in err


def test_config_overridden_by_explicit_flag(capsys, tmp_path):
    a = tmp_path / "a.json"
    run(capsys, "mu", "--d", "1", "--kappa", "0.5", "--out", str(a))
    code, out, _ = run(capsys, "mu", "--config", str(a), "--kappa", "0.0")
    assert code == 0 and float(out) == 1.0


def test_missing_config_file(capsys, tmp_path):
    code, _, err = run(capsys, "mu", "--config", str(tmp_path / "nope.json"))
    assert code == 2 and "cannot read config" in err


# ---------------------------------------------------------------------------
# csv output
# ---------------------------------------------------------------------------

def test_csv_with_sidecar_manifest(capsys, tmp_path):
    out = tmp_path / "m.csv"
    code, text, _ = run(capsys, "mu", "--d", "1", "--kappa", "0.5",
                        "--format", "csv", "--out", str(out))
    assert code == 0 and text.strip() == f"wrote {out}"
    lines = out.read_text().splitlines()
    assert lines[0] == "d,kappa,mu"
    d, kappa, val = lines[1].split(",")
    assert (d, kappa) == ("1", "0.5")
    assert float(val) == pytest.approx(math.sqrt(2) - 1, abs=1e-8)
    sidecar = json.loads((tmp_path / "m.csv.manifest.json").read_text())
    assert sidecar["command"] == "mu"
    assert sidecar["params"]["kappa"] == 0.5


def test_csv_requires_out(capsys):
    code, _, err = run(capsys, "mu", "--d", "1", "--kappa", "0.5",
                       "--format", "csv")
    assert code == 2 and "requires --out" in err


def test_csv_refused_where_meaningless(capsys, tmp_path):
    code, _, err = run(capsys, "tensor-gap", "--d", "1", "--n", "1",
                       "--kappa", "0.2", "--rho", "0.2", "--radius", "2",
                       "--format", "csv", "--out", str(tmp_path / "t.csv"))
    assert code == 2 and "no CSV form" in err


# ---------------------------------------------------------------------------
# phase, check-gn, tensor-gap
# ---------------------------------------------------------------------------

def test_phase_sweep_end_to_end(capsys, tmp_path):
    out = tmp_path / "grid.csv"
    code, text, _ = run(capsys, "phase", "--d", "1", "--n", "1",
                        "--p-values", "1", "--kappas", "0.1,0.3",
                        "--rho", "0.25", "--radii", "1,2", "--out", str(out))
    assert code == 0
    assert text.strip() == f"2 rows -> {out}"
    lines = out.read_text().splitlines()
    assert lines[0].startswith("d,n,p,kappa,rho,lambda_est")
    assert len(lines) == 3
    sidecar = json.loads((tmp_path / "grid.csv.manifest.json").read_text())
    assert sidecar["command"] == "phase"
    assert "out" not in sidecar["params"]


def test_phase_requires_out(capsys):
    code, _, err = run(capsys, "phase", "--d", "1", "--n", "1",
                       "--kappa", "0.1", "--rho", "0.1")
    assert code == 2 and "require --out" in err


def test_phase_requires_some_kappa(capsys, tmp_path):
    code, _, err = run(capsys, "phase", "--d", "1", "--n", "1",
                       "--rho", "0.1", "--out", str(tmp_path / "g.csv"))
    assert code == 2 and "--kappa or --kappas" in err


def test_phase_has_no_workers_flag(capsys, tmp_path):
    out = tmp_path / "g.csv"
    with pytest.raises(SystemExit) as exc:
        main(["phase", "--d", "1", "--n", "1", "--kappa", "0.1", "--rho", "0.1",
              "--radii", "1", "--workers", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert not out.exists()


def test_phase_manifest_with_workers_key_still_loads(capsys, tmp_path):
    # manifests written while phase had --workers carry the key; it is ignored
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code, _, _ = run(capsys, "phase", "--d", "1", "--n", "1", "--p-values", "1",
                     "--kappa", "0.1", "--rho", "0.25", "--radii", "1",
                     "--out", str(a))
    assert code == 0
    sidecar = tmp_path / "a.csv.manifest.json"
    manifest = json.loads(sidecar.read_text())
    assert "workers" not in manifest["params"]
    manifest["params"]["workers"] = 2
    old = tmp_path / "old.manifest.json"
    old.write_text(json.dumps(manifest))
    code, _, _ = run(capsys, "phase", "--config", str(old), "--out", str(b))
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "b.csv.manifest.json").read_bytes() == sidecar.read_bytes()


def test_check_gn_reports_counts(capsys):
    code, out, _ = run(capsys, "check-gn", "--d", "1", "--radius", "6",
                       "--samples", "200", "--seed", "9")
    assert code == 0
    assert out.startswith("200/200 hold")
    assert "min margin" in out


def test_check_gn_requires_seed(capsys):
    code, _, err = run(capsys, "check-gn", "--d", "1")
    assert code == 2 and "--seed is required" in err


def test_check_gn_rejects_high_d(capsys):
    code, _, err = run(capsys, "check-gn", "--d", "3", "--seed", "1")
    assert code == 2 and "--d must be 1 or 2" in err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_check_gn_rejects_no_samples(capsys, samples):
    code, out, err = run(capsys, "check-gn", "--d", "1", "--seed", "1",
                         "--samples", samples)
    assert code == 2 and out == ""
    assert "--samples must be >= 1" in err


def test_tensor_gap_text(capsys):
    code, out, _ = run(capsys, "tensor-gap", "--d", "1", "--n", "1",
                       "--kappa", "0.25", "--rho", "0.25", "--radius", "4")
    assert code == 0
    assert "lambda1" in out and "gap" in out and "rayleigh2" in out


@pytest.mark.parametrize("argv", [
    ("mu", "--d", "3", "--kappa", "0.1", "--tol", "1e-14"),
    ("lambda-spectral", "--d", "1", "--n", "1", "--p", "1", "--kappa", "0.25",
     "--rho", "0.25", "--radius", "2", "--tol", "0"),
    ("tensor-gap", "--d", "1", "--n", "1", "--kappa", "0.25", "--rho", "0.25",
     "--radius", "2", "--tol", "-1"),
    ("phase", "--d", "1", "--n", "1", "--kappa", "0.1", "--rho", "0.1",
     "--radii", "1", "--tol", "-1"),
], ids=["mu-tol-floor", "lambda-spectral-tol", "tensor-gap-tol", "phase-tol"])
def test_bad_solver_inputs_are_usage_errors(capsys, tmp_path, argv):
    out = tmp_path / "g.csv"
    code, _, err = run(capsys, *argv, "--out", str(out))
    assert code == 2 and err.startswith("error:")
    assert not out.exists()


def test_green_rejects_nan_tol(capsys, monkeypatch):
    def no_quadrature(*args, **kwargs):
        raise AssertionError("a NaN tol reached the quadrature")

    monkeypatch.setattr(greens, "_certified_integral", no_quadrature)
    code, out, err = run(capsys, "green", "--d", "3", "--tol", "nan")
    assert code == 2 and out == "" and "tol must be finite and > 0, got nan" in err


def test_lambda_spectral_rejects_tol_before_labelling(capsys, monkeypatch):
    def no_labelling(*args):
        raise AssertionError("tol reached the orbit labelling")

    monkeypatch.setattr(spectral, "_quotient", no_labelling)
    code, out, err = run(capsys, "lambda-spectral", "--d", "3", "--n", "1",
                         "--p", "2", "--kappa", "0.05", "--rho", "0.1",
                         "--radius", "2", "--tol", "0")
    assert code == 2 and out == "" and "tol must be finite" in err


@pytest.mark.parametrize("grid", [
    ("--d", "3", "--kappas", "-0.1", "--rho", "0.1"),
    ("--d", "3", "--kappas", "0.1,nan", "--rho", "0.1"),
    ("--d", "3", "--kappa", "0.1", "--rho", "0.1", "--p-values", "0"),
    ("--d", "0", "--kappa", "0.1", "--rho", "0.1"),
], ids=["negative-kappa", "nan-kappa", "p-zero", "d-zero"])
def test_phase_rejects_bad_grid_before_writing(capsys, tmp_path, grid):
    out = tmp_path / "f.csv"
    code, _, err = run(capsys, "phase", "--n", "1", *grid, "--radii", "1",
                       "--out", str(out))
    assert code == 2 and err.startswith("error:")
    assert not out.exists()


def test_installed_entry_point():
    exe = shutil.which("pam")
    assert exe, "console script `pam` should be installed"
    proc = subprocess.run([exe, "mu", "--d", "1", "--kappa", "0.5"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert float(proc.stdout) == pytest.approx(math.sqrt(2) - 1, abs=1e-8)


def test_cli_import_leaves_mpmath_out():
    # mpmath is a test oracle only; importing it would add tens of ms to
    # every command's set-up
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pamlab.cli; print('mpmath' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_scipy_optimize_out():
    # mu's root-finder is pamlab._brent; scipy.optimize (and the linprog,
    # shgo and scipy.spatial it imports) is a test oracle only
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pamlab.cli; "
         "print([m for m in ('scipy.optimize', 'scipy.spatial') if m in sys.modules])"],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
