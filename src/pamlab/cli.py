"""Command-line surface: `pam <command> [flags]`.

Every run is reproducible from its manifest: single evaluations emit JSON
with the full merged configuration embedded, CSV outputs get a sidecar
``<out>.manifest.json``, and any manifest can be re-fed via ``--config`` to
reproduce byte-identical numeric output.  Randomized commands refuse to run
without an explicit ``--seed``.  Exit codes: 0 success, 2 parameter error,
3 numerical non-convergence (the message carries the best iterate and its
residual).

Divergent quantities are serialized as the JSON string "inf" plus a
``divergent`` flag, never as a float sentinel.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import __version__, greens
from .lattice import Field, build_box
from .montecarlo import lambda_mc
from .phase import PHASE_CSV_HEADER, sweep, write_atomic
from .spectral import (
    ConvergenceError,
    PamParams,
    check_gn,
    lambda_spectral,
    mu,
    tensor_gap,
)


class CliParamError(ValueError):
    """Invalid or missing command parameters (exit code 2)."""


@dataclass
class CommandResult:
    payload: dict                     # JSON-facing result body
    text: str                         # bare stdout form
    csv_header: tuple | None = None
    csv_rows: list | None = None


def _jsonable(value):
    """Floats that round-trip; infinities as the string 'inf'."""
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _fmt(x: float) -> str:
    return "inf" if math.isinf(x) else repr(float(x))


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers: {exc}")


def _float_list(text: str) -> list[float]:
    try:
        return [float(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated floats: {exc}")


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


# every parameter once: its argparse spec (the flag is _flag(name))
_FLAGS: dict[str, dict] = {
    "d": dict(type=int),
    "n": dict(type=int),
    "p": dict(type=int),
    "kappa": dict(type=float),
    "rho": dict(type=float),
    "tol": dict(type=float),
    "quantity": dict(choices=("zero", "at", "l2sq", "alpha")),
    "x": dict(type=_int_list, help="site for --quantity at"),
    "method": dict(choices=("time-integral", "fourier-quadrature", "monte-carlo")),
    "t": dict(type=float),
    "radius": dict(type=int),
    "radii": dict(type=_int_list),
    "p_values": dict(type=_int_list),
    "kappas": dict(type=_float_list),
    "rhos": dict(type=_float_list),
    "samples": dict(type=int),
    "seed": dict(type=_seed_type),
    "workers": dict(type=int),
    "resume": dict(action="store_true", default=None),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pam",
        description="Annealed Lyapunov exponents of the parabolic Anderson "
                    "model with moving catalysts.")
    parser.add_argument("--version", action="version", version=f"pam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, params) in _COMMANDS.items():
        sp = sub.add_parser(command, help=help_text)
        for name, _, _ in params:
            sp.add_argument(_flag(name), dest=name, **_FLAGS[name])
        sp.add_argument("--config", help="manifest JSON to take parameters from")
        sp.add_argument("--out", help="output file path")
        sp.add_argument("--format", choices=("json", "csv"), dest="fmt")
    return parser


def _load_config(path: str, command: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliParamError(f"cannot read config {path}: {exc}")
    manifest = doc.get("manifest", doc)
    cfg_cmd = manifest.get("command")
    if cfg_cmd is not None and cfg_cmd != command:
        raise CliParamError(
            f"config {path} is for command {cfg_cmd!r}, not {command!r}")
    params = manifest.get("params", manifest)
    return dict(params)


def _merge_config(args: argparse.Namespace) -> dict:
    _, _, schema = _COMMANDS[args.command]
    loaded = _load_config(args.config, args.command) if args.config else {}
    cfg = {}
    for name, required, default in schema:
        explicit = getattr(args, name, None)
        if explicit is not None:
            cfg[name] = explicit
        elif name in loaded and loaded[name] is not None:
            cfg[name] = loaded[name]
        elif required:
            raise CliParamError(f"missing required parameter {_flag(name)}")
        else:
            cfg[name] = default
    return cfg


def _params_from(cfg: dict) -> PamParams:
    return PamParams(d=cfg["d"], n=cfg["n"], p=cfg["p"],
                     kappa=cfg["kappa"], rho=cfg["rho"])


def cmd_green(cfg: dict) -> CommandResult:
    quantity = cfg["quantity"]
    if quantity == "zero":
        if cfg["method"] == "monte-carlo" and cfg["seed"] is None:
            raise CliParamError("--seed is required for the monte-carlo method")
        est = greens.green_zero(cfg["d"], cfg["tol"], method=cfg["method"],
                                seed=cfg["seed"], samples=cfg["samples"])
    elif quantity == "at":
        if cfg["x"] is None:
            raise CliParamError("--x is required for --quantity at")
        est = greens.green_at(cfg["d"], cfg["x"], cfg["tol"])
    elif quantity == "l2sq":
        est = greens.green_l2sq(cfg["d"], cfg["tol"])
    else:
        est = greens.alpha(cfg["d"], cfg["tol"])
    payload = {"d": est.d, "quantity": est.quantity, "value": est.value,
               "abs_error": est.abs_error, "method": est.method,
               "divergent": est.divergent}
    return CommandResult(
        payload=payload, text=_fmt(est.value),
        csv_header=("d", "quantity", "value", "abs_error", "method"),
        csv_rows=[(str(est.d), est.quantity, _fmt(est.value),
                   _fmt(est.abs_error), est.method)])


def cmd_mu(cfg: dict) -> CommandResult:
    value = mu(cfg["d"], cfg["kappa"], cfg["tol"])
    payload = {"d": cfg["d"], "kappa": cfg["kappa"], "tol": cfg["tol"], "mu": value}
    return CommandResult(
        payload=payload, text=_fmt(value),
        csv_header=("d", "kappa", "mu"),
        csv_rows=[(str(cfg["d"]), _fmt(cfg["kappa"]), _fmt(value))])


def cmd_lambda_spectral(cfg: dict) -> CommandResult:
    params = _params_from(cfg)
    if cfg["radii"] is not None:
        radii = list(cfg["radii"])
    elif cfg["radius"] is not None:
        radii = [cfg["radius"]]
    else:
        raise CliParamError("one of --radius or --radii is required")
    ests = lambda_spectral(params, radii, cfg["tol"])
    payload = {
        "params": vars(params).copy(),
        "estimates": [{"R": e.radius, "lambda_box": e.value, "residual": e.error,
                       "converged": e.converged, "solver": e.solver, "dim": e.dim,
                       "matvecs": e.matvecs} for e in ests],
    }
    rows = [(str(params.d), str(params.n), str(params.p), _fmt(params.kappa),
             _fmt(params.rho), str(e.radius), _fmt(e.value), _fmt(e.error))
            for e in ests]
    text = "\n".join(f"{e.radius} {_fmt(e.value)}" for e in ests)
    return CommandResult(
        payload=payload, text=text,
        csv_header=("d", "n", "p", "kappa", "rho", "R", "lambda_box", "residual"),
        csv_rows=rows)


def cmd_lambda_mc(cfg: dict) -> CommandResult:
    if cfg["seed"] is None:
        raise CliParamError("--seed is required: Monte Carlo runs must be reproducible")
    params = _params_from(cfg)
    est = lambda_mc(params, cfg["t"], cfg["samples"], cfg["seed"],
                    workers=cfg["workers"])
    interval_ok = est.ess >= 30.0
    payload = {
        "params": vars(params).copy(),
        "t": est.t, "samples": est.samples, "seed": est.seed,
        "lambda_t": est.lambda_t,
        "stderr": est.stderr if interval_ok else None,
        "ess": est.ess,
    }
    if interval_ok:
        text = f"{_fmt(est.lambda_t)} +- {_fmt(1.96 * est.stderr)}"
    else:
        text = (f"{_fmt(est.lambda_t)} (ESS {est.ess:.1f} < 30: "
                f"confidence interval suppressed)")
    row = (str(params.d), str(params.n), str(params.p), _fmt(params.kappa),
           _fmt(params.rho), _fmt(est.t), str(est.samples), str(est.seed),
           _fmt(est.lambda_t), _fmt(est.stderr), _fmt(est.ess))
    return CommandResult(
        payload=payload, text=text,
        csv_header=("d", "n", "p", "kappa", "rho", "t", "samples", "seed",
                    "lambda_t", "stderr", "ess"),
        csv_rows=[row])


def cmd_phase(cfg: dict) -> CommandResult:
    if cfg["kappas"] is not None:
        kappas = cfg["kappas"]
    elif cfg["kappa"] is not None:
        kappas = [cfg["kappa"]]
    else:
        raise CliParamError("one of --kappa or --kappas is required")
    if cfg["rhos"] is not None:
        rhos = cfg["rhos"]
    elif cfg["rho"] is not None:
        rhos = [cfg["rho"]]
    else:
        raise CliParamError("one of --rho or --rhos is required")
    if not cfg.get("out"):
        raise CliParamError("phase sweeps write CSV and require --out")
    rows = sweep(cfg["d"], cfg["n"], cfg["p_values"], kappas, rhos, cfg["out"],
                 radii=cfg["radii"], tol=cfg["tol"], resume=cfg["resume"])
    payload = {"out": cfg["out"], "rows_written": len(rows),
               "header": list(PHASE_CSV_HEADER)}
    return CommandResult(payload=payload,
                         text=f"{len(rows)} rows -> {cfg['out']}")


def cmd_check_gn(cfg: dict) -> CommandResult:
    if cfg["seed"] is None:
        raise CliParamError("--seed is required: the fields are randomly drawn")
    d = cfg["d"]
    if d not in (1, 2):
        raise CliParamError(f"--d must be 1 or 2, got {d}")
    if cfg["samples"] < 1:
        raise CliParamError(f"--samples must be >= 1, got {cfg['samples']}")
    box = build_box(d, cfg["radius"])
    rng = np.random.Generator(np.random.Philox(key=np.uint64(cfg["seed"])))
    holds_count = 0
    worst = math.inf
    for _ in range(cfg["samples"]):
        f = Field(box, rng.standard_normal(box.size))
        lhs, rhs, ok = check_gn(f, d)
        holds_count += ok
        worst = min(worst, rhs - lhs)
    payload = {"d": d, "radius": cfg["radius"], "samples": cfg["samples"],
               "seed": cfg["seed"], "holds": holds_count,
               "min_margin": worst}
    return CommandResult(payload=payload,
                         text=f"{holds_count}/{cfg['samples']} hold, "
                              f"min margin {_fmt(worst)}")


def cmd_tensor_gap(cfg: dict) -> CommandResult:
    params = PamParams(d=cfg["d"], n=cfg["n"], p=1,
                       kappa=cfg["kappa"], rho=cfg["rho"])
    tg = tensor_gap(params, cfg["radius"], cfg["tol"])
    payload = {"params": vars(params).copy(), "R": cfg["radius"],
               "lambda1": tg.lambda1, "gap": tg.gap, "rayleigh2": tg.rayleigh2}
    text = (f"lambda1 {_fmt(tg.lambda1)}  gap {_fmt(tg.gap)}  "
            f"rayleigh2 {_fmt(tg.rayleigh2)}")
    return CommandResult(payload=payload, text=text)


# per command: handler, help text and parameters (name, required, default)
_COMMANDS: dict[str, tuple[Callable[[dict], CommandResult], str,
                           list[tuple[str, bool, object]]]] = {
    "green": (cmd_green, "lattice Green function quantities",
              [("d", True, None), ("tol", False, 1e-9), ("quantity", False, "zero"),
               ("x", False, None), ("method", False, "time-integral"),
               ("samples", False, 4_000_000), ("seed", False, None)]),
    "mu": (cmd_mu, "top of the spectrum of kappa*Delta + delta_0",
           [("d", True, None), ("kappa", True, None), ("tol", False, 1e-10)]),
    "lambda-spectral": (cmd_lambda_spectral, "certified box lower bounds of lambda_p",
                        [("d", True, None), ("n", True, None), ("p", True, None),
                         ("kappa", True, None), ("rho", True, None),
                         ("tol", False, 1e-8), ("radius", False, None),
                         ("radii", False, None)]),
    "lambda-mc": (cmd_lambda_mc, "Feynman-Kac Monte Carlo for Lambda_p(t)",
                  [("d", True, None), ("n", True, None), ("p", True, None),
                   ("kappa", True, None), ("rho", True, None), ("t", True, None),
                   ("samples", False, 10_000), ("seed", False, None),
                   ("workers", False, 1)]),
    "phase": (cmd_phase, "intermittency phase-diagram sweep (CSV)",
              [("d", True, None), ("n", True, None), ("kappa", False, None),
               ("rho", False, None), ("tol", False, 1e-8), ("p_values", False, [1, 2]),
               ("kappas", False, None), ("rhos", False, None), ("radii", False, None),
               ("resume", False, False)]),
    "check-gn": (cmd_check_gn, "Gagliardo-Nirenberg inequality on random fields",
                 [("d", True, None), ("radius", False, 6), ("samples", False, 1000),
                  ("seed", False, None)]),
    "tensor-gap": (cmd_tensor_gap, "certified lambda_2 - lambda_1 gap from p=1",
                   [("d", True, None), ("n", True, None), ("kappa", True, None),
                    ("rho", True, None), ("tol", False, 1e-10), ("radius", False, 6)]),
}


def _emit(command: str, cfg: dict, result: CommandResult,
          fmt: str | None, out: str | None) -> None:
    # the manifest carries only the numeric configuration: same manifest,
    # same numbers, regardless of where the output lands
    manifest = {"command": command, "version": __version__,
                "params": _jsonable({k: v for k, v in cfg.items() if k != "out"})}
    if fmt == "csv":
        if result.csv_rows is None and command != "phase":
            raise CliParamError(f"{command} has no CSV form")
        if command == "phase":
            # sweep already wrote its CSV; only the sidecar remains
            _write_manifest(cfg["out"], manifest)
            print(result.text)
            return
        if not out:
            raise CliParamError("--format csv requires --out")
        import csv as _csv
        import io

        buf = io.StringIO()
        writer = _csv.writer(buf, lineterminator="\n")
        writer.writerow(result.csv_header)
        writer.writerows(result.csv_rows)
        write_atomic(out, buf.getvalue())
        _write_manifest(out, manifest)
        print(f"wrote {out}")
        return
    document = {"manifest": manifest, "result": _jsonable(result.payload)}
    blob = json.dumps(document, indent=2, sort_keys=True)
    if out:
        write_atomic(out, blob + "\n")
        print(f"wrote {out}")
    elif fmt == "json":
        print(blob)
    else:
        print(result.text)


def _write_manifest(out: str, manifest: dict) -> None:
    write_atomic(out + ".manifest.json",
                 json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    fmt = args.fmt
    if args.command == "phase" and fmt is None:
        fmt = "csv"
    try:
        cfg = _merge_config(args)
        if args.out is not None:
            cfg["out"] = args.out
        result = _COMMANDS[args.command][0](cfg)
        _emit(args.command, cfg, result, fmt, args.out)
    except (ConvergenceError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CliParamError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
