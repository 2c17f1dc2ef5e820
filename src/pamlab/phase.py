"""Critical-kappa bounds and certified intermittency classification.

For d >= 3 the p-th annealed exponent vanishes above a critical kappa_p(rho),
bracketed by

    lower: max( n/(4d) * mu(rho/p),  n * mu^{-1}(4 d rho / p),
                [d >= 5]  (n G_d(0) - rho n/(p alpha_d))_+ )
    upper: (n G_d(0) - n rho / p)_+

Both ends pinch to n*G_d(0) at rho = 0.  Since kappa_p is non-decreasing in
p, a gap between the p-1 upper bound and the p lower bound certifies a window
of kappa where lambda_{p-1} = 0 < lambda_p, i.e. genuine p-intermittency;
`classify` searches for the smallest such p.  Certification discipline: upper
bounds (which prove exponents vanish) and lower bounds (which prove they
don't) come from different inequalities and are never mixed.  The d >= 5
term opens a window for moment order q only where alpha_d > (q-1)/q: for
rho > 0 that inequality is exactly n G_d(0) - rho n/(q alpha_d) >
n G_d(0) - rho n/(q-1), i.e. the term exceeds the q-1 upper bound; so
`classify` takes kappa_bounds' lower bound as it is.

`sweep` evaluates a (kappa, rho, p) grid into a CSV with one row per point,
with per-row failure isolation and an on-disk cursor for restarts.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Sequence

from . import greens
from .spectral import ConvergenceError, PamParams, lambda_spectral, mu, mu_inverse

__all__ = [
    "KappaBounds",
    "Regime",
    "PhaseRow",
    "kappa_bounds",
    "classify",
    "sweep",
    "PHASE_CSV_HEADER",
]

_TOL = 1e-10  # internal tolerance for mu / Green evaluations


@dataclass(frozen=True)
class KappaBounds:
    d: int
    n: int
    p: int
    rho: float
    lower: float
    upper: float

    def __post_init__(self):
        if math.isfinite(self.lower) and self.lower > self.upper + 1e-9 * (1.0 + self.upper):
            raise RuntimeError(
                f"bound inversion (lower {self.lower} > upper {self.upper}): "
                f"this is a bug, the two are theorem-ordered")


@dataclass(frozen=True)
class Regime:
    """Classification outcome; q is set only for CertifiedQIntermittent."""

    label: str
    justification: str
    q: int | None = None

    def __str__(self) -> str:
        return self.label if self.q is None else f"{self.label}({self.q})"


def kappa_bounds(d: int, n: int, p: int, rho: float) -> KappaBounds:
    """Certified bracket for the critical kappa of the p-th exponent.

    Needs d >= 3: for d <= 2 the critical kappa is infinite, and asking for
    its bracket raises ValueError.
    """
    if n < 1 or p < 1:
        raise ValueError(f"n and p must be positive, got n={n}, p={p}")
    if not (math.isfinite(rho) and rho >= 0):
        raise ValueError(f"rho must be finite and >= 0, got {rho}")
    if d <= 2:
        raise ValueError(f"critical kappa is infinite for d={d} <= 2")
    gz = greens.green_zero(d, _TOL).value
    lower = max(n / (4.0 * d) * mu(d, rho / p, _TOL),
                n * mu_inverse(d, 4.0 * d * rho / p, _TOL))
    if d >= 5:
        lower = max(lower, n * gz - rho * n / (p * greens.alpha(d, _TOL).value))
    upper = max(0.0, n * gz - n * rho / p)
    return KappaBounds(d=d, n=n, p=p, rho=rho, lower=lower, upper=upper)


_MAX_CERTIFIED_Q = 8


def classify(d: int, n: int, kappa: float, rho: float) -> Regime:
    """Intermittency regime of the (d, n, kappa, rho) system.

    Labels: NotIntermittent (kappa past n*G_d(0), all exponents vanish),
    CertifiedQIntermittent(q) (a bound window proves lambda_{q-1} = 0 <
    lambda_q), PartialIntermittent (everything else that is provable, and all
    of d <= 2), Unresolved (numerical failure).
    """
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be positive, got d={d}, n={n}")
    if not all(math.isfinite(r) and r >= 0 for r in (kappa, rho)):
        raise ValueError(f"rates must be finite and >= 0, got kappa={kappa}, rho={rho}")
    if d <= 2:
        return Regime(
            label="PartialIntermittent",
            justification=(
                "d <= 2: the walk is recurrent-dominated and some finite moment "
                "order is always intermittent; full intermittency is conjectured, "
                "not asserted"))
    try:
        gz = greens.green_zero(d, _TOL).value
        if kappa >= n * gz:
            return Regime(
                label="NotIntermittent",
                justification=(
                    f"kappa >= n*G_d(0) = {n * gz!r}: "
                    f"all annealed exponents vanish"))
        for q in range(2, _MAX_CERTIFIED_Q + 1):
            upper_prev = kappa_bounds(d, n, q - 1, rho).upper
            lower_q = kappa_bounds(d, n, q, rho).lower
            if upper_prev <= kappa < lower_q:
                return Regime(
                    label="CertifiedQIntermittent",
                    q=q,
                    justification=(
                        f"bound window: kappa_bounds(p={q - 1}).upper = "
                        f"{upper_prev!r} <= kappa < {lower_q!r} = "
                        f"kappa_bounds(p={q}).lower, so lambda_{q - 1} = 0 < "
                        f"lambda_{q}"),
                )
        return Regime(
            label="PartialIntermittent",
            justification=(
                "kappa < n*G_d(0): lambda_1 > 0, but no bound window certifies "
                "a moment separation at this point (conjectured regions are "
                "not asserted)"))
    except (ValueError, ArithmeticError) as exc:
        return Regime(label="Unresolved", justification=f"numerical failure: {exc}")


# ---------------------------------------------------------------------------
# grid sweeps
# ---------------------------------------------------------------------------

PHASE_CSV_HEADER = ("d", "n", "p", "kappa", "rho", "lambda_est", "lambda_kind",
                    "kappa_lower", "kappa_upper", "regime", "justification")


@dataclass(frozen=True)
class PhaseRow:
    d: int
    n: int
    p: int
    kappa: float
    rho: float
    lambda_est: float | None
    lambda_kind: str
    kappa_lower: float
    kappa_upper: float
    regime: Regime

    def csv_fields(self) -> tuple[str, ...]:
        return (
            str(self.d), str(self.n), str(self.p),
            repr(float(self.kappa)), repr(float(self.rho)),
            "" if self.lambda_est is None else repr(float(self.lambda_est)),
            self.lambda_kind,
            repr(float(self.kappa_lower)), repr(float(self.kappa_upper)),
            str(self.regime), self.regime.justification,
        )


# The most sites a solver box of an automatically chosen radius may have.
_CAP_SITES = 600_000


def _auto_radii(params: PamParams) -> list[int]:
    """The three largest radii R <= 8 whose solver box fits in _CAP_SITES.

    lambda_spectral solves radius R on the catalyst-frame box of radius 2R,
    which has (4R+1)^{d(p+n-1)} sites.
    """
    m = params.m - params.d
    radii = [R for R in range(1, 9) if (4 * R + 1) ** m <= _CAP_SITES]
    return radii[-3:] if radii else [0]


def _classify_or_error(d: int, n: int, kappa: float, rho: float) -> Regime | Exception:
    try:
        return classify(d, n, kappa, rho)
    except Exception as exc:  # noqa: BLE001 - raised again in each row it belongs to
        return exc


def _row_job(args) -> PhaseRow:
    d, n, p, kappa, rho, radii, tol, regime = args
    params = PamParams(d=d, n=n, p=p, kappa=kappa, rho=rho)
    if d <= 2:
        k_lo = k_hi = math.inf
    else:
        kb = kappa_bounds(d, n, p, rho)
        k_lo, k_hi = kb.lower, kb.upper
    try:
        row_radii = list(radii) if radii else _auto_radii(params)
        ests = lambda_spectral(params, row_radii, tol)
        lam = ests[-1].value
        kind = f"spectral(R={ests[-1].radius})"
    except ConvergenceError as exc:
        lam = exc.best.value
        kind = f"spectral(R={exc.best.radius},unconverged)"
    if isinstance(regime, Exception):
        raise regime
    if regime.label not in ("NotIntermittent", "Unresolved") and d >= 3 and kappa >= k_hi:
        regime = Regime(
            label="ZeroExponent",
            justification=(
                f"lambda_{p} = 0 certified for this row: kappa >= "
                f"kappa_bounds(p={p}).upper = {k_hi!r}, while kappa < n*G_d(0)"))
    return PhaseRow(d=d, n=n, p=p, kappa=kappa, rho=rho, lambda_est=lam,
                    lambda_kind=kind, kappa_lower=k_lo, kappa_upper=k_hi,
                    regime=regime)


def _safe_row_job(args) -> PhaseRow:
    try:
        return _row_job(args)
    except Exception as exc:  # noqa: BLE001 - row isolation is the contract
        d, n, p, kappa, rho = args[:5]
        return PhaseRow(d=d, n=n, p=p, kappa=kappa, rho=rho, lambda_est=None,
                        lambda_kind="failed",
                        kappa_lower=math.inf if d <= 2 else math.nan,
                        kappa_upper=math.inf if d <= 2 else math.nan,
                        regime=Regime(label="Unresolved",
                                      justification=f"row failed: {exc}"))


def _grid_digest(jobs) -> str:
    payload = json.dumps([j[:5] + (list(j[5] or []), j[6]) for j in jobs])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_atomic(path: str, text: str) -> None:
    """Replace the file at path by text, so a crash leaves the old or the new
    content, never a mix (no fsync: it guards a killed process, not power loss)."""
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _resume_offset(cursor_path: str, out: str, digest: str) -> tuple[int, int]:
    """(rows_done, CSV byte offset) of a resumable sweep, or (0, 0) to start fresh.

    A missing or unreadable cursor, one for another grid, and one that points
    past the end of the CSV are all stale.
    """
    try:
        with open(cursor_path) as fh:
            state = json.load(fh)
        rows_done, offset = int(state["rows_done"]), int(state["offset"])
        if state["grid"] != digest or not 0 < offset <= os.path.getsize(out):
            return 0, 0
    except (OSError, ValueError, KeyError, TypeError):
        return 0, 0
    return rows_done, offset


def sweep(d: int, n: int, p_values: Sequence[int], kappas: Sequence[float],
          rhos: Sequence[float], out: str, *, radii: Sequence[int] | None = None,
          tol: float = 1e-8, resume: bool = False) -> list[PhaseRow]:
    """Evaluate the (kappa, rho, p) grid into a CSV at ``out``.

    Rows are ordered by (kappa, rho, p); failures are isolated per row
    (lambda_est empty, regime Unresolved).  A sidecar ``<out>.cursor``,
    replaced atomically after every row, records the rows done and the CSV's
    byte length at that point; with resume=True a matching interrupted sweep
    cuts the CSV back to that length and continues after its last recorded
    row, so the finished file equals an uninterrupted sweep's.  An unreadable
    cursor starts a fresh sweep.
    """
    if d < 1 or n < 1:
        raise ValueError(f"d and n must be positive, got d={d}, n={n}")
    for name, vals in (("p_values", p_values), ("kappas", kappas), ("rhos", rhos)):
        if len(vals) == 0:
            raise ValueError(f"{name} must be nonempty")
        if any(b < a for a, b in zip(vals, list(vals)[1:])):
            raise ValueError(f"{name} must be sorted ascending, got {list(vals)}")
    if not all(p >= 1 for p in p_values):
        raise ValueError(f"p_values must be >= 1, got {list(p_values)}")
    for name, vals in (("kappas", kappas), ("rhos", rhos)):
        if not all(math.isfinite(v) and v >= 0 for v in vals):
            raise ValueError(f"{name} must be finite and >= 0, got {list(vals)}")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and > 0, got {tol}")
    jobs = [(d, n, int(p), float(k), float(r), tuple(radii) if radii else None, tol)
            for k in kappas for r in rhos for p in p_values]
    digest = _grid_digest(jobs)
    cursor_path = out + ".cursor"

    done, offset = _resume_offset(cursor_path, out, digest) if resume else (0, 0)
    if done:
        os.truncate(out, offset)

    mode = "a" if done else "w"
    rows: list[PhaseRow] = []
    with open(out, mode, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if not done:
            writer.writerow(PHASE_CSV_HEADER)
        # the regime does not depend on p: classify once per (kappa, rho)
        regimes = {kr: _classify_or_error(d, n, *kr)
                   for kr in dict.fromkeys(job[3:5] for job in jobs[done:])}
        for job in jobs[done:]:
            row = _safe_row_job(job + (regimes[job[3:5]],))
            rows.append(row)
            writer.writerow(row.csv_fields())
            fh.flush()
            done += 1
            offset = os.fstat(fh.fileno()).st_size
            write_atomic(cursor_path, json.dumps(
                {"grid": digest, "rows_done": done, "offset": offset}))
    if os.path.exists(cursor_path) and done == len(jobs):
        os.remove(cursor_path)
    return rows
