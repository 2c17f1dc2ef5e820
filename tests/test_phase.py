"""Critical-kappa brackets, regime classification, and grid sweeps."""
import csv
import json
import math
import os

import pytest

from pamlab import greens, phase
from pamlab.phase import (
    PHASE_CSV_HEADER,
    KappaBounds,
    PhaseRow,
    Regime,
    classify,
    kappa_bounds,
    sweep,
)
from pamlab.spectral import mu, mu_inverse

_TOL = 1e-10  # matches the module-internal evaluation tolerance


def read_rows(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(PHASE_CSV_HEADER)
    return rows[1:]


# ---------------------------------------------------------------------------
# kappa_bounds
# ---------------------------------------------------------------------------

def test_bounds_pinch_at_zero_rho():
    gz = greens.green_zero(3, _TOL).value
    kb = kappa_bounds(3, 2, 1, 0.0)
    assert kb.lower == kb.upper == 2 * gz


def test_upper_bound_hits_zero():
    gz = greens.green_zero(3, _TOL).value
    assert kappa_bounds(3, 1, 1, 2 * gz).upper == 0.0


def test_d5_lower_bound_uses_alpha():
    gz = greens.green_zero(5, _TOL).value
    a = greens.alpha(5, _TOL).value
    rho = 0.5 * gz
    want_l3 = gz - rho / (2 * a)           # n=1, p=2
    kb = kappa_bounds(5, 1, 2, rho)
    assert kb.lower >= want_l3 - 1e-12
    assert kb.lower <= kb.upper


def test_bounds_low_dimension():
    for d in (1, 2):
        with pytest.raises(ValueError):
            kappa_bounds(d, 1, 1, 0.1)


def test_bounds_ordered_across_grid():
    for d in (3, 4, 5):
        gz = greens.green_zero(d, _TOL).value
        for n in (1, 2):
            for p in (1, 2, 3):
                for rho in (0.0, 0.1, 0.3):
                    kb = kappa_bounds(d, n, p, rho)
                    assert 0.0 <= kb.lower <= kb.upper <= n * gz + 1e-12


def test_bounds_validation():
    with pytest.raises(ValueError):
        kappa_bounds(3, 0, 1, 0.1)
    with pytest.raises(ValueError):
        kappa_bounds(3, 1, 0, 0.1)
    with pytest.raises(ValueError):
        kappa_bounds(3, 1, 1, -0.1)
    with pytest.raises(ValueError):
        kappa_bounds(3, 1, 1, math.inf)


def test_bound_inversion_is_loud():
    with pytest.raises(RuntimeError):
        KappaBounds(d=3, n=1, p=1, rho=0.0, lower=1.0, upper=0.5)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def test_classify_low_dimension_is_conjectural():
    r = classify(2, 1, 0.7, 0.3)
    assert r.label == "PartialIntermittent" and r.q is None
    assert "conjectured" in r.justification


def test_classify_large_kappa():
    gz = greens.green_zero(3, _TOL).value
    r = classify(3, 1, 2 * gz, 0.1)
    assert r.label == "NotIntermittent"


def test_classify_certified_window_d5():
    rho = 0.2 * greens.green_zero(5, _TOL).value
    hi1 = kappa_bounds(5, 1, 1, rho).upper
    lo2 = kappa_bounds(5, 1, 2, rho).lower
    assert hi1 < lo2                      # the window is open at this rho
    r = classify(5, 1, 0.5 * (hi1 + lo2), rho)
    assert (r.label, r.q) == ("CertifiedQIntermittent", 2)
    assert str(r) == "CertifiedQIntermittent(2)"
    assert "lambda_1 = 0 < lambda_2" in r.justification


def test_classify_progression_in_kappa():
    gz = greens.green_zero(5, _TOL).value
    rho = 0.2 * gz
    hi1 = kappa_bounds(5, 1, 1, rho).upper
    lo2 = kappa_bounds(5, 1, 2, rho).lower
    labels = [classify(5, 1, k, rho).label
              for k in (0.5 * hi1, 0.5 * (hi1 + lo2), 0.5 * (lo2 + gz), 1.5 * gz)]
    assert labels == ["PartialIntermittent", "CertifiedQIntermittent",
                      "PartialIntermittent", "NotIntermittent"]


def _mu_lower(d, n, q, rho):
    """The two lower bounds on the critical kappa that hold in every d >= 3."""
    return max(n / (4.0 * d) * mu(d, rho / q, _TOL),
               n * mu_inverse(d, 4.0 * d * rho / q, _TOL))


def _alpha_checked_regime(d, n, kappa, rho):
    """The rule classify used to follow: the d >= 5 lower bound counted for
    moment order q only when alpha_d > (q-1)/q.  Returns the label and, for
    a window, its lower end."""
    gz = greens.green_zero(d, _TOL).value
    if kappa >= n * gz:
        return "NotIntermittent", None
    alpha_d = greens.alpha(d, _TOL).value
    for q in range(2, 9):
        upper_prev = kappa_bounds(d, n, q - 1, rho).upper
        lower_q = _mu_lower(d, n, q, rho)
        if alpha_d > (q - 1) / q:
            lower_q = max(lower_q, n * gz - rho * n / (q * alpha_d))
        if upper_prev <= kappa < lower_q:
            return f"CertifiedQIntermittent({q})", lower_q
    return "PartialIntermittent", None


def test_classify_matches_the_alpha_checked_rule():
    # kappa runs over every bound's end point and the midpoints between them,
    # so each window of either rule is hit.  alpha_5 = 0.598 < 2/3, so at
    # d=5 the old rule drops the d >= 5 term from q = 3 on, also where that
    # term is the largest lower bound; it is then never above the q-1 upper
    # bound, so no window changes
    dropped = set()
    for d in (5, 6):
        gz = greens.green_zero(d, _TOL).value
        alpha_d = greens.alpha(d, _TOL).value
        for n in (1, 2):
            for rho in (0.05 * gz, 0.2 * gz, 0.5 * gz):
                ends = set()
                for q in range(2, 9):
                    kb = kappa_bounds(d, n, q, rho)
                    upper_prev = kappa_bounds(d, n, q - 1, rho).upper
                    ends |= {kb.lower, upper_prev}
                    if alpha_d <= (q - 1) / q and kb.lower > _mu_lower(d, n, q, rho):
                        dropped.add((d, q))
                ends = sorted(ends)
                kappas = ends + [0.5 * (a + b) for a, b in zip(ends, ends[1:])]
                for kappa in kappas:
                    got = classify(d, n, kappa, rho)
                    label, lower_q = _alpha_checked_regime(d, n, kappa, rho)
                    assert str(got) == label, (d, n, kappa, rho)
                    if lower_q is not None:
                        assert f"< {lower_q!r} =" in got.justification
    assert (5, 3) in dropped


def test_classify_validation():
    for bad in ((0, 1, 0.1, 0.1), (3, 0, 0.1, 0.1), (3, 1, -0.1, 0.1),
                (3, 1, 0.1, -0.1), (3, 1, math.nan, 0.1), (3, 1, math.inf, 0.1),
                (3, 1, 0.1, math.nan), (3, 1, 0.1, math.inf), (1, 1, math.nan, 0.1)):
        with pytest.raises(ValueError):
            classify(*bad)


def test_classify_survives_numerical_failure(monkeypatch):
    def boom(*a, **k):
        raise ValueError("synthetic failure")
    monkeypatch.setattr(phase.greens, "green_zero", boom)
    r = classify(3, 1, 0.1, 0.1)
    assert r.label == "Unresolved"
    assert "synthetic failure" in r.justification


# ---------------------------------------------------------------------------
# rows and sweeps
# ---------------------------------------------------------------------------

def test_csv_fields_formatting():
    row = PhaseRow(d=1, n=1, p=1, kappa=0.5, rho=0.25, lambda_est=None,
                   lambda_kind="failed", kappa_lower=math.inf,
                   kappa_upper=math.inf,
                   regime=Regime(label="Unresolved", justification="row failed: x"))
    assert row.csv_fields() == ("1", "1", "1", "0.5", "0.25", "", "failed",
                                "inf", "inf", "Unresolved", "row failed: x")


def test_sweep_low_dimension_grid(tmp_path):
    out = tmp_path / "grid.csv"
    rows = sweep(1, 1, [1], [0.1, 0.3], [0.25], str(out), radii=[2, 4])
    assert [r.kappa for r in rows] == [0.1, 0.3]
    # positive exponents, decreasing in kappa; infinite critical kappa in d=1
    assert rows[0].lambda_est > rows[1].lambda_est > 0.0
    assert all(r.kappa_lower == math.inf for r in rows)
    assert all(r.regime.label == "PartialIntermittent" for r in rows)
    assert all(r.lambda_kind == "spectral(R=4)" for r in rows)
    body = read_rows(out)
    assert len(body) == 2 and body[0][7] == "inf"
    assert body[0][9] == "PartialIntermittent"
    assert not os.path.exists(str(out) + ".cursor")


def test_sweep_d3_crosses_the_transition(tmp_path):
    out = tmp_path / "d3.csv"
    rows = sweep(3, 1, [1], [0.1, 0.2, 0.3], [0.1], str(out), radii=[1, 2])
    labels = [r.regime.label for r in rows]
    assert labels == ["PartialIntermittent", "ZeroExponent", "NotIntermittent"]
    # inside the certified-zero region the box values cannot exceed 0
    assert rows[1].lambda_est <= 1e-8
    assert rows[1].kappa >= rows[1].kappa_upper
    assert "certified" in rows[1].regime.justification


def test_sweep_classifies_once_per_kappa_rho(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    sweep(3, 1, [1, 2], [0.1, 0.3], [0.1], str(a), radii=[1])
    calls = []

    def counted(*args):
        calls.append(args)
        return classify(*args)

    monkeypatch.setattr(phase, "classify", counted)
    sweep(3, 1, [1, 2], [0.1, 0.3], [0.1], str(b), radii=[1])
    assert calls == [(3, 1, 0.1, 0.1), (3, 1, 0.3, 0.1)]
    assert a.read_bytes() == b.read_bytes()


def test_sweep_classify_failure_fails_its_rows_only(tmp_path, monkeypatch):
    def fragile(d, n, kappa, rho):
        if kappa == 0.3:
            raise RuntimeError("synthetic classify failure")
        return classify(d, n, kappa, rho)

    monkeypatch.setattr(phase, "classify", fragile)
    rows = sweep(3, 1, [1, 2], [0.1, 0.3], [0.1], str(tmp_path / "g.csv"), radii=[1])
    assert [r.lambda_kind == "failed" for r in rows] == [False, False, True, True]
    assert all("synthetic classify failure" in r.regime.justification for r in rows[2:])


def test_sweep_resume_after_interrupt(tmp_path, monkeypatch):
    out = tmp_path / "resume.csv"
    real = phase._row_job
    calls = {"i": 0}

    def flaky(args):
        calls["i"] += 1
        if calls["i"] == 2:
            raise KeyboardInterrupt
        return real(args)

    monkeypatch.setattr(phase, "_row_job", flaky)
    with pytest.raises(KeyboardInterrupt):
        sweep(1, 1, [1], [0.05, 0.15, 0.25], [0.2], str(out), radii=[1, 2])
    cursor = str(out) + ".cursor"
    with open(cursor) as fh:
        assert json.load(fh)["rows_done"] == 1
    assert len(read_rows(out)) == 1

    monkeypatch.setattr(phase, "_row_job", real)
    rows = sweep(1, 1, [1], [0.05, 0.15, 0.25], [0.2], str(out), radii=[1, 2],
                 resume=True)
    assert [r.kappa for r in rows] == [0.15, 0.25]     # only the remainder reran
    body = read_rows(out)
    assert [float(r[3]) for r in body] == [0.05, 0.15, 0.25]
    assert not os.path.exists(cursor)


def test_sweep_stale_cursor_forces_rewrite(tmp_path):
    out = tmp_path / "stale.csv"
    sweep(1, 1, [1], [0.1, 0.2], [0.3], str(out), radii=[1])
    with open(str(out) + ".cursor", "w") as fh:
        json.dump({"grid": "deadbeefdeadbeef", "rows_done": 1}, fh)
    rows = sweep(1, 1, [1], [0.1, 0.2], [0.3], str(out), radii=[1], resume=True)
    assert len(rows) == 2                               # digest mismatch: full rerun
    assert [float(r[3]) for r in read_rows(out)] == [0.1, 0.2]
    assert not os.path.exists(str(out) + ".cursor")


_CRASH_GRID = dict(d=1, n=1, p_values=[1], kappas=[0.05, 0.15, 0.25], rhos=[0.2],
                   radii=[1, 2])


def crash_sweep(out, **kw):
    g = _CRASH_GRID
    return sweep(g["d"], g["n"], g["p_values"], g["kappas"], g["rhos"], str(out),
                 radii=g["radii"], **kw)


@pytest.fixture(scope="module")
def uninterrupted_bytes(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference") / "grid.csv"
    crash_sweep(out)
    return out.read_bytes()


# where a crash lands: before a row is computed, after its CSV line is flushed
# but before the cursor is written, and after the cursor's temp file is
# written but before it replaces the cursor
_CRASH_POINTS = {"row": (phase, "_row_job"), "cursor": (phase, "write_atomic"),
                 "replace": (os, "replace")}


def crash_at(monkeypatch, point, call):
    target, name = _CRASH_POINTS[point]
    real = getattr(target, name)
    calls = {"i": 0}

    def crashing(*args):
        calls["i"] += 1
        if calls["i"] == call:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(target, name, crashing)


@pytest.mark.parametrize("point", sorted(_CRASH_POINTS))
@pytest.mark.parametrize("call", [1, 2, 3])
def test_sweep_resume_is_byte_identical_after_crash(tmp_path, monkeypatch,
                                                    uninterrupted_bytes, point, call):
    out = tmp_path / "grid.csv"
    with monkeypatch.context() as m:
        crash_at(m, point, call)
        with pytest.raises(KeyboardInterrupt):
            crash_sweep(out)
    rows = crash_sweep(out, resume=True)
    assert out.read_bytes() == uninterrupted_bytes
    assert not os.path.exists(str(out) + ".cursor")
    # the row whose cursor update was lost is computed again
    assert len(rows) == 3 - (call - 1)


@pytest.mark.parametrize("cursor", ['{"grid": "', "", "[1, 2]",
                                    '{"grid": "x", "rows_done": 1}'])
def test_sweep_unreadable_cursor_starts_fresh(tmp_path, monkeypatch,
                                              uninterrupted_bytes, cursor):
    out = tmp_path / "grid.csv"
    with monkeypatch.context() as m:
        crash_at(m, "row", 3)
        with pytest.raises(KeyboardInterrupt):
            crash_sweep(out)
    with open(str(out) + ".cursor", "w") as fh:
        fh.write(cursor)
    rows = crash_sweep(out, resume=True)
    assert len(rows) == 3
    assert out.read_bytes() == uninterrupted_bytes


def test_sweep_cursor_past_end_of_csv_starts_fresh(tmp_path, monkeypatch,
                                                   uninterrupted_bytes):
    out = tmp_path / "grid.csv"
    with monkeypatch.context() as m:
        crash_at(m, "row", 3)
        with pytest.raises(KeyboardInterrupt):
            crash_sweep(out)
    cursor = str(out) + ".cursor"
    with open(cursor) as fh:
        state = json.load(fh)
    with open(out, "r+") as fh:                       # CSV lost its last row
        fh.truncate(state["offset"] - 1)
    assert len(crash_sweep(out, resume=True)) == 3
    assert out.read_bytes() == uninterrupted_bytes


def test_sweep_isolates_row_failures(tmp_path, monkeypatch):
    real = phase._row_job

    def sometimes(args):
        if args[3] == 0.15:
            raise RuntimeError("boom")
        return real(args)

    monkeypatch.setattr(phase, "_row_job", sometimes)
    out = tmp_path / "iso.csv"
    rows = sweep(1, 1, [1], [0.05, 0.15, 0.25], [0.2], str(out), radii=[1, 2])
    assert rows[1].lambda_kind == "failed" and rows[1].lambda_est is None
    assert rows[1].regime.label == "Unresolved"
    assert "boom" in rows[1].regime.justification
    assert rows[0].lambda_kind == "spectral(R=2)"
    assert rows[2].lambda_est > 0.0
    body = read_rows(out)
    assert body[1][5] == "" and body[1][6] == "failed"


def test_sweep_validation(tmp_path):
    out = str(tmp_path / "v.csv")
    with pytest.raises(ValueError):
        sweep(1, 1, [], [0.1], [0.1], out)
    with pytest.raises(ValueError):
        sweep(1, 1, [1], [0.3, 0.1], [0.1], out)
    with pytest.raises(ValueError):
        sweep(1, 1, [1], [0.1], [0.2, 0.1], out)


@pytest.mark.parametrize("bad", [
    dict(tol=0.0), dict(tol=-1.0), dict(tol=math.inf), dict(tol=math.nan),
    dict(d=0), dict(n=0), dict(p_values=[0, 1]),
    dict(kappas=[-0.1]), dict(kappas=[0.1, math.nan]), dict(kappas=[0.1, math.inf]),
    dict(rhos=[-0.1]), dict(rhos=[math.nan])])
def test_sweep_rejects_bad_solver_inputs_before_writing(tmp_path, bad):
    out = tmp_path / "v.csv"
    args = dict(d=1, n=1, p_values=[1], kappas=[0.1], rhos=[0.1], radii=[1])
    args.update(bad)
    with pytest.raises(ValueError):
        sweep(out=str(out), **args)
    assert not out.exists()
