"""The three benchmark workloads: what each runs, and the checks on its outputs.

`run` executes a workload's operations through the ``pam`` command line
(``pamlab.cli.main``, in this process) and the public API, writing every
output file into ``work``; it returns the outputs as plain JSON values and is
all that the timed region of a pass contains.  `check` then tests each
output against the model's invariants and against the values recorded at the
seed commit in ``reference.json``, and returns one entry per operation: the
operation's name and its failure messages (empty when it passed).
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os

import numpy as np

from pamlab import cli, greens, montecarlo, phase, spectral

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

SOLVER_TOL = 1e-8       # lambda-spectral and phase --tol default
TENSOR_TOL = 1e-10      # tensor-gap --tol default
BRACKET_TOL = 1e-9

SPECTRAL_BOX = {
    "lambda-spectral d=3": "lambda-spectral --d 3 --n 1 --p 2 --kappa 0.05 --rho 0.1 --radii 1,2",
    "lambda-spectral d=1": "lambda-spectral --d 1 --n 1 --p 2 --kappa 0.25 --rho 0.25 --radii 8,16,32",
    "tensor-gap d=1": "tensor-gap --d 1 --n 1 --kappa 0.25 --rho 0.25 --radius 8",
}
PHASE_SWEEP = ("phase --d 3 --n 1 --p-values 1,2 --kappas 0.02,0.05,0.08,0.12,0.16,0.2,0.25,0.3 "
               "--rhos 0.02,0.05,0.1,0.15 --radii 1")
GREEN = {
    "green d=3": "green --d 3",
    "green d=5 alpha": "green --d 5 --quantity alpha",
    "green d=3 at": "green --d 3 --quantity at --x 1,2,3",
}
GREEN_TOL = 1e-9        # green --tol default; alpha's error is propagated from two such values
LAMBDA_MC = {
    "lambda-mc d=1": "lambda-mc --d 1 --n 1 --p 1 --kappa 0.25 --rho 0.25 --t 20 --samples 8000 --workers 1",
    "lambda-mc d=3": "lambda-mc --d 3 --n 2 --p 2 --kappa 0.1 --rho 0.1 --t 5 --samples 16000 --workers 2",
}
CROSSCHECK = dict(d=3, n=1, p=1, kappa=0.1, rho=0.1, radius=16, t=10.0, draws=10_000)


def _pam(command: str, out: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(command.split() + ["--out", out])
    if code != 0:
        raise RuntimeError(f"pam exited with code {code}")


def _pam_json(command: str, work: str, stem: str) -> dict:
    out = os.path.join(work, stem + ".json")
    _pam(command, out)
    with open(out) as fh:
        return json.load(fh)["result"]


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _attempt(outputs: dict, name: str, fn) -> None:
    try:
        outputs[name] = fn()
    except Exception as exc:  # noqa: BLE001 - a failed operation is a measured outcome
        outputs[name] = {"error": f"{type(exc).__name__}: {exc}"}


# ---------------------------------------------------------------------------
# spectral-box
# ---------------------------------------------------------------------------

def _run_spectral_box(seed: int, work: str) -> dict:
    outputs = {}
    for i, (name, command) in enumerate(SPECTRAL_BOX.items()):
        _attempt(outputs, name, lambda: _pam_json(command, work, f"spectral{i}"))
    return outputs


def _check_spectral_box(seed, outputs, ref):
    for name in ("lambda-spectral d=3", "lambda-spectral d=1"):
        res, problems = outputs[name], []
        if "error" not in res:
            p, ests = res["params"], res["estimates"]
            cap = min(spectral.mu(p["d"], p["kappa"]), spectral.mu(p["d"], p["rho"] / p["p"]))
            for a, b in zip(ests, ests[1:]):
                if b["lambda_box"] < a["lambda_box"] - a["residual"] - b["residual"]:
                    problems.append(f"R={b['R']} value {b['lambda_box']!r} below R={a['R']}")
            if [e["R"] for e in ests] != [e["R"] for e in ref[name]["estimates"]]:
                problems.append("radii differ from the reference")
            for e, r in zip(ests, ref[name]["estimates"]):
                if e["lambda_box"] > cap + 1e-9:
                    problems.append(f"R={e['R']} value {e['lambda_box']!r} above "
                                    f"min(mu(kappa), mu(rho/p)) = {cap!r}")
                if e["lambda_box"] < r["lambda_box"] - SOLVER_TOL:
                    problems.append(f"R={e['R']} value {e['lambda_box']!r} below the "
                                    f"reference {r['lambda_box']!r} - tol")
        yield name, [res["error"]] if "error" in res else problems

    name = "tensor-gap d=1"
    res, problems = outputs[name], []
    if "error" not in res:
        p, r = res["params"], ref[name]
        if abs(res["rayleigh2"] - (res["lambda1"] + res["gap"])) > 1e-9:
            problems.append("tensor identity rayleigh2 = lambda1 + gap fails")
        if res["gap"] < 0.0:
            problems.append(f"negative gap {res['gap']!r}")
        if res["lambda1"] > spectral.mu(p["d"], p["kappa"] + p["rho"]) + 1e-9:
            problems.append("lambda1 above mu(kappa + rho)")
        if res["lambda1"] < r["lambda1"] - TENSOR_TOL:
            problems.append(f"lambda1 {res['lambda1']!r} below the reference")
        if res["rayleigh2"] < r["rayleigh2"] - TENSOR_TOL:
            problems.append(f"rayleigh2 {res['rayleigh2']!r} below the reference")
    yield name, [res["error"]] if "error" in res else problems


# ---------------------------------------------------------------------------
# phase-certify
# ---------------------------------------------------------------------------

def _sweep(work: str) -> dict:
    out = os.path.join(work, "phase.csv")
    _pam(PHASE_SWEEP, out)
    rows = [{"key": [int(r["d"]), int(r["n"]), int(r["p"]), float(r["kappa"]), float(r["rho"])],
             "lambda_est": float(r["lambda_est"]) if r["lambda_est"] else None,
             "lambda_kind": r["lambda_kind"],
             "kappa_lower": float(r["kappa_lower"]), "kappa_upper": float(r["kappa_upper"]),
             "regime": r["regime"]}
            for r in _read_csv(out)]
    return {"rows": rows, "manifest": os.path.exists(out + ".manifest.json"),
            "cursor_left": os.path.exists(out + ".cursor")}


def _window() -> dict:
    rho = 0.2 * greens.green_zero(5).value
    b1 = phase.kappa_bounds(5, 1, 1, rho)
    b2 = phase.kappa_bounds(5, 1, 2, rho)
    regime = phase.classify(5, 1, 0.5 * (b1.upper + b2.lower), rho)
    return {"rho": rho, "p1": [b1.lower, b1.upper], "p2": [b2.lower, b2.upper],
            "regime": str(regime)}


def _f0() -> dict:
    b = spectral.f0_rayleigh(5, 1, 1, 0.0, 12)
    return {"value": b.value, "ip_mass": b.ip_mass, "grad_x_sq": b.grad_x_sq}


def _run_phase_certify(seed: int, work: str) -> dict:
    outputs = {}
    _attempt(outputs, "phase sweep", lambda: _sweep(work))
    _attempt(outputs, "d=5 window", _window)
    _attempt(outputs, "f0_rayleigh d=5", _f0)
    for i, (name, command) in enumerate(GREEN.items()):
        _attempt(outputs, name, lambda: _pam_json(command, work, f"green{i}"))
    return outputs


def _check_phase_certify(seed, outputs, ref):
    res = outputs["phase sweep"]
    if "error" in res:
        yield "phase sweep", [res["error"]]
    else:
        problems = []
        if len(res["rows"]) != len(ref["phase sweep"]["rows"]):
            problems.append(f"{len(res['rows'])} rows, reference has "
                            f"{len(ref['phase sweep']['rows'])}")
        if not res["manifest"] or res["cursor_left"]:
            problems.append("manifest missing or cursor left behind")
        yield "phase sweep", problems
        for row, r in zip(res["rows"], ref["phase sweep"]["rows"]):
            problems = []
            if row["key"] != r["key"]:
                problems.append(f"grid point {row['key']} != reference {r['key']}")
            if row["lambda_kind"] == "failed" or row["regime"].startswith("Unresolved"):
                problems.append(f"row {row['lambda_kind']} / {row['regime']}")
            if row["regime"] != r["regime"]:
                problems.append(f"regime {row['regime']} != reference {r['regime']}")
            for side in ("kappa_lower", "kappa_upper"):
                if not abs(row[side] - r[side]) <= BRACKET_TOL:
                    problems.append(f"{side} {row[side]!r} != reference {r[side]!r}")
            if row["lambda_est"] is None or row["lambda_est"] < r["lambda_est"] - SOLVER_TOL:
                problems.append(f"lambda_est {row['lambda_est']!r} below reference")
            yield f"phase row {row['key']}", problems

    res, problems = outputs["d=5 window"], []
    if "error" not in res:
        r = ref["d=5 window"]
        for p in ("p1", "p2"):
            if any(not abs(a - b) <= BRACKET_TOL for a, b in zip(res[p], r[p])):
                problems.append(f"{p} bracket {res[p]} != reference {r[p]}")
        if not res["p1"][1] < res["p2"][0]:
            problems.append("no window: upper(p=1) >= lower(p=2)")
        if res["regime"] != "CertifiedQIntermittent(2)":
            problems.append(f"window midpoint classified {res['regime']}")
    yield "d=5 window", [res["error"]] if "error" in res else problems

    res, problems = outputs["f0_rayleigh d=5"], []
    if "error" not in res:
        g5 = greens.green_zero(5)
        if not abs(res["value"] - ref["f0_rayleigh d=5"]["value"]) <= BRACKET_TOL:
            problems.append(f"value {res['value']!r} != reference")
        if res["value"] > g5.value + g5.abs_error:
            problems.append("critical-kappa lower bound above G_5(0)")
    yield "f0_rayleigh d=5", [res["error"]] if "error" in res else problems

    for name in GREEN:
        res, problems = outputs[name], []
        if "error" not in res:
            r = ref[name]
            if res["quantity"] != "alpha" and res["abs_error"] > GREEN_TOL:
                problems.append(f"abs_error {res['abs_error']!r} above tol {GREEN_TOL}")
            if abs(res["value"] - r["value"]) > res["abs_error"] + r["abs_error"]:
                problems.append(f"value {res['value']!r} != reference {r['value']!r}")
        yield name, [res["error"]] if "error" in res else problems


# ---------------------------------------------------------------------------
# mc-crosscheck
# ---------------------------------------------------------------------------

def _lambda_mc(command: str, seed: int, out: str) -> dict:
    _pam(f"{command} --seed {seed} --format csv", out)
    row = _read_csv(out)[0]
    return {"n": int(row["n"]), "lambda_t": float(row["lambda_t"]),
            "stderr": float(row["stderr"]), "ess": float(row["ess"])}


def _stream(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _crosscheck(seed: int) -> dict:
    """u(0, t) for one catalyst path: PDE oracle vs the Feynman-Kac mean."""
    c = CROSSCHECK
    params = spectral.PamParams(d=c["d"], n=c["n"], p=c["p"], kappa=c["kappa"], rho=c["rho"])
    catalyst = montecarlo.sample_path(c["d"], c["rho"], c["t"], _stream(seed, c["draws"]))
    u = montecarlo.pde_moment_oracle(params, c["radius"], c["t"], [catalyst])
    weights = np.array([
        math.exp(montecarlo.collision_time(
            [montecarlo.sample_path(c["d"], c["kappa"], c["t"], _stream(seed, i))],
            [catalyst], c["t"]))
        for i in range(c["draws"])])
    return {"u": u, "mean": float(np.mean(weights)),
            "stderr": float(np.std(weights, ddof=1) / math.sqrt(c["draws"]))}


def _run_mc_crosscheck(seed: int, work: str) -> dict:
    outputs = {}
    for i, (name, command) in enumerate(LAMBDA_MC.items()):
        out = os.path.join(work, f"mc{i}.csv")
        _attempt(outputs, name, lambda: _lambda_mc(command, seed, out))
    _attempt(outputs, "pde cross-check", lambda: _crosscheck(seed))
    return outputs


def _check_mc_crosscheck(seed, outputs, ref):
    recorded = ref["seeds"].get(str(seed))
    for name in LAMBDA_MC:
        res, problems = outputs[name], []
        if "error" not in res:
            if not 0.0 <= res["lambda_t"] <= res["n"]:
                problems.append(f"lambda_t {res['lambda_t']!r} outside [0, n]")
            if recorded is not None:
                for key in ("lambda_t", "stderr", "ess"):
                    if res[key] != recorded[name][key]:
                        problems.append(f"{key} {res[key]!r} differs from the value "
                                        f"{recorded[name][key]!r} recorded for seed {seed}")
        yield name, [res["error"]] if "error" in res else problems

    name = "pde cross-check"
    res, problems = outputs[name], []
    if "error" not in res:
        if not (res["stderr"] > 0.0 and abs(res["u"] - res["mean"]) <= 4.0 * res["stderr"]):
            problems.append(f"PDE oracle {res['u']!r} not within 4 stderr of the "
                            f"Feynman-Kac mean {res['mean']!r} +- {res['stderr']!r}")
        if recorded is not None:
            for key in ("mean", "stderr"):
                if res[key] != recorded[name][key]:
                    problems.append(f"Feynman-Kac {key} {res[key]!r} differs from the "
                                    f"value {recorded[name][key]!r} recorded for seed {seed}")
    yield name, [res["error"]] if "error" in res else problems


WORKLOADS = {
    "spectral-box": (_run_spectral_box, _check_spectral_box),
    "phase-certify": (_run_phase_certify, _check_phase_certify),
    "mc-crosscheck": (_run_mc_crosscheck, _check_mc_crosscheck),
}


def run(workload: str, seed: int, work: str) -> dict:
    return WORKLOADS[workload][0](seed, work)


def check(workload: str, seed: int, outputs: dict) -> list[tuple[str, list[str]]]:
    with open(REFERENCE) as fh:
        reference = json.load(fh)[workload]
    return list(WORKLOADS[workload][1](seed, outputs, reference))
