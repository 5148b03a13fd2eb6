"""Tests of the benchmark's own checks: each accepts a right document and
rejects a deliberately wrong value, so none of them is vacuous.

    python3 -m pytest benchmarks/test_checks.py -q

The right documents are built here from closed forms; the traced-run test
runs a small scan through child.py against the checkout's src/.
"""

from __future__ import annotations

import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

import checks
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GAMMA = WORKLOADS["gamma-disk"]["config"]
LAMBDA = WORKLOADS["lambda-lobe"]["config"]
SCAN = WORKLOADS["scan-lobe"]["config"]


def statuses(ops):
    return [op.status for op in ops]


def only_wrong(ops):
    return [op.label for op in ops if op.status == "wrong"]


# ---------------------------------------------------------------------------
# independent references


def test_shoelace_area_of_regular_polygons():
    assert checks.shoelace_area(np.array([[1, 1], [0, 0], [1, 0], [0, 1]], float)) == 1.0
    for n in (8, 204):
        t = 2 * math.pi * np.arange(n) / n
        pts = np.stack([np.cos(t), np.sin(t)], axis=1)[::-1]
        assert checks.shoelace_area(pts) == pytest.approx(0.5 * n * math.sin(2 * math.pi / n), rel=1e-14)


def test_dilation_energy_matches_the_quadratic_closed_form():
    # With g(t) = t^2/2 and c1 = c2 = 1 the density is (l-1)^2 + (l^2-1)^2/2 + eps P0 (l^2-1);
    # to leading order its minimum is -(eps P0)^2 / (c1 + 2 c2).
    mat = GAMMA["material"]
    for eps in (0.08, 0.01):
        got = checks.dilation_energy(1.0, eps, 0.1, mat)
        assert got == pytest.approx(-(eps * 0.1) ** 2 / 3.0, rel=3 * eps * 0.1)


def test_rate_integrals_match_beta_functions():
    half = math.pi / 2
    strict_total = quad(checks.strict_rate, 0.0, half, epsabs=0.0, epsrel=1e-13)[0]
    assert strict_total == pytest.approx(half ** 7 / 140.0, rel=1e-12)
    assert checks.flat_swept(half) == pytest.approx(256.0 * (math.pi / 8) / 630.0, rel=1e-12)


def test_flat_arcs_are_the_sweep_zero_set():
    pi = math.pi
    assert checks.flat_arcs() == pytest.approx([(-pi / 8, pi / 4), (7 * pi / 8, 5 * pi / 4)])
    total = checks.flat_swept(pi / 2)
    for lo, hi in checks.flat_arcs():
        for a in np.linspace(lo, hi, 9):
            assert checks.flat_sweep(a % (2 * pi), total)[0] == pytest.approx(0.0, abs=1e-15)
    assert checks.flat_sweep(pi / 2, total)[0] > 0.0


# ---------------------------------------------------------------------------
# gamma-disk


RES = GAMMA["study"]["resolutions"]
N_OPS = 5 * len(RES)  # four eps rows and one limit per resolution
# regular polygons with the polar meshes' boundary vertex counts, 4 * ceil(pi * res / 2)
AREAS = {res: 0.5 * n * math.sin(2 * math.pi / n)
         for res, n in ((r, 4 * math.ceil(math.pi * r / 2)) for r in RES)}


def gamma_doc():
    p0, mat = GAMMA["pressure"]["params"]["value"], GAMMA["material"]
    rows, limits = [], {}
    for res in GAMMA["study"]["resolutions"]:
        for k, eps in enumerate(sorted(GAMMA["eps_list"], reverse=True)):
            rows.append({"resolution": res, "eps": eps,
                         "energy": checks.dilation_energy(AREAS[res], eps, p0, mat),
                         "gap_to_min_E0": 1e-5 / 2 ** k})
        limits[str(res)] = {"min_E0": checks.limit_energy(AREAS[res], p0, mat)}
    return {"result": {"rows": rows, "limits": limits}}


def test_gamma_accepts_the_closed_forms():
    ops = checks.check_gamma(gamma_doc(), GAMMA, AREAS)
    assert len(ops) == N_OPS and set(statuses(ops)) == {"ok"}


def test_gamma_rejects_min_e0_off_by_1e_6():
    doc = gamma_doc()
    doc["result"]["limits"][str(RES[-1])]["min_E0"] *= 1 + 1e-6
    assert only_wrong(checks.check_gamma(doc, GAMMA, AREAS)) == [f"gamma res {RES[-1]} limit"]


def test_gamma_rejects_an_energy_off_by_1e_6():
    doc = gamma_doc()
    doc["result"]["rows"][2]["energy"] *= 1 + 1e-6
    assert only_wrong(checks.check_gamma(doc, GAMMA, AREAS)) == [f"gamma res {RES[0]} eps 0.02"]


def test_gamma_rejects_a_gap_that_grows():
    doc = gamma_doc()
    doc["result"]["rows"][-1]["gap_to_min_E0"] = 1.0
    assert only_wrong(checks.check_gamma(doc, GAMMA, AREAS)) == [f"gamma res {RES[-1]} limit"]


def test_gamma_counts_missing_and_error_rows_as_failed():
    doc = gamma_doc()
    doc["result"]["rows"][1] = {"resolution": RES[0], "eps": 0.04, "error": "boom"}
    del doc["result"]["rows"][0]
    ops = checks.check_gamma(doc, GAMMA, AREAS)
    assert statuses(ops).count("failed") == 2 and not only_wrong(ops)
    assert statuses(checks.check_gamma(None, GAMMA, AREAS)) == ["failed"] * N_OPS


# ---------------------------------------------------------------------------
# lambda-lobe


def lambda_doc():
    rows = []
    for k, eps in enumerate(sorted(LAMBDA["eps_list"], reverse=True)):
        lam = eps ** LAMBDA["study"]["lambda_exponent"]
        swept = quad(checks.strict_rate, 0.0, lam, epsabs=0.0, epsrel=1e-13)[0]
        rows.append({"resolution": 64, "eps": eps, "lambda": lam, "remainder": swept / eps,
                     "dist_over_lambda": 1.0, "energy_over_eps2": 0.1 / 2 ** k,
                     "min_energy_over_eps2": 1e-13})
    return {"result": {"rows": rows, "limits": {"64": {"optimal_angles": [0.0, math.pi]}}}}


def test_lambda_accepts_the_swept_rate():
    ops = checks.check_lambda(lambda_doc(), LAMBDA)
    assert len(ops) == 5 and set(statuses(ops)) == {"ok"}


@pytest.mark.parametrize("key, value, label", [
    ("remainder", lambda r: r * 1.01, "lambda res 64 eps 0.01"),
    ("lambda", lambda r: r * (1 + 1e-9), "lambda res 64 eps 0.01"),
    ("dist_over_lambda", lambda r: 2.5, "lambda res 64 eps 0.01"),
    ("min_energy_over_eps2", lambda r: 1.0, "lambda res 64 eps 0.01"),
])
def test_lambda_rejects_a_wrong_row_value(key, value, label):
    doc = lambda_doc()
    row = doc["result"]["rows"][3]
    row[key] = value(row[key])
    assert only_wrong(checks.check_lambda(doc, LAMBDA)) == [label]


def test_lambda_rejects_a_gap_that_grows():
    doc = lambda_doc()
    doc["result"]["rows"][3]["energy_over_eps2"] = 0.2
    assert only_wrong(checks.check_lambda(doc, LAMBDA)) == ["lambda res 64 eps 0.01"]


@pytest.mark.parametrize("angles", [
    [2 * 2 * math.pi / 1024, math.pi],       # shifted by two grid steps
    [0.0],
    [0.0, math.pi, math.pi / 2],
])
def test_lambda_rejects_a_wrong_optimal_set(angles):
    doc = lambda_doc()
    doc["result"]["limits"]["64"]["optimal_angles"] = angles
    assert only_wrong(checks.check_lambda(doc, LAMBDA)) == ["lambda res 64 optimal set"]


# ---------------------------------------------------------------------------
# scan-lobe


def scan_doc():
    grid = SCAN["study"]["rotation_grid"]
    total = checks.flat_swept(math.pi / 2)
    rows = []
    for k in range(grid):
        alpha = 2 * math.pi * k / grid
        value, slope = checks.flat_sweep(alpha, total)
        rows.append({"alpha": alpha, "functional_value": value, "el_residual": slope,
                     "second_variation_unit": float("nan")})
    optimal = {"angles": [], "arcs": [list(a) for a in checks.flat_arcs()], "min_value": 0.0}
    return {"result": {"grid": grid, "rows": rows, "optimal": optimal}}


def csv_of(rows):
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]))
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


def test_scan_accepts_the_swept_profile():
    doc = scan_doc()
    ops = checks.check_scan(doc, csv_of(doc["result"]["rows"]), SCAN)
    assert len(ops) == 1025 and set(statuses(ops)) == {"ok"}


def test_scan_rejects_an_arc_shifted_by_two_grid_steps():
    doc = scan_doc()
    step = 2 * math.pi / 1024
    doc["result"]["optimal"]["arcs"][1] = [a + 2 * step for a in doc["result"]["optimal"]["arcs"][1]]
    ops = checks.check_scan(doc, csv_of(doc["result"]["rows"]), SCAN)
    assert only_wrong(ops) == ["scan optimal set"]


@pytest.mark.parametrize("key, delta", [("functional_value", 1e-3), ("el_residual", 1e-2),
                                        ("alpha", 1e-9)])
def test_scan_rejects_a_wrong_row_value(key, delta):
    doc = scan_doc()
    text = csv_of(doc["result"]["rows"])
    doc["result"]["rows"][300][key] += delta
    # the CSV keeps the right value, so the row is wrong twice over
    assert only_wrong(checks.check_scan(doc, text, SCAN)) == ["scan angle 300"]


def test_scan_rejects_a_csv_that_differs_from_the_json():
    doc = scan_doc()
    rows = copy.deepcopy(doc["result"]["rows"])
    rows[5]["el_residual"] = 0.5
    assert only_wrong(checks.check_scan(doc, csv_of(rows), SCAN)) == ["scan angle 5"]
    short = csv_of(doc["result"]["rows"][:-1])
    assert only_wrong(checks.check_scan(doc, short, SCAN)) == ["scan angle 1023", "scan optimal set"]


def test_scan_counts_a_missing_document_as_failed():
    assert statuses(checks.check_scan(None, None, SCAN)) == ["failed"] * 1025


# ---------------------------------------------------------------------------
# the benchmark definition and the traced run


def test_benchmark_json_names_every_metric_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "peak_rss_mb"}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def test_traced_run_reports_every_layer(tmp_path):
    config = copy.deepcopy(SCAN)
    config["domain"]["resolution"] = 8
    config["study"]["rotation_grid"] = 64
    (tmp_path / "c.json").write_text(json.dumps(config))
    job = {"command": "scan-rotations", "config": str(tmp_path / "c.json"), "seed": 1,
           "out": str(tmp_path / "out.json"), "csv": str(tmp_path / "out.csv"),
           "record": str(tmp_path / "record.json"), "spans": str(tmp_path / "spans.jsonl"),
           "trace": True}
    (tmp_path / "job.json").write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(HERE / "child.py"), "run", str(tmp_path / "job.json")],
                   env=env, check=True, timeout=120)
    record = json.loads((tmp_path / "record.json").read_text())
    metrics = {k: v["value"] for k, v in record["metrics"].items()}
    assert record["status"] == 0 and list(metrics) == [n for n, _ in tracer.PER_LAYER]
    # 64 scan angles in the CLI, 64 more inside find_optimal_rotations
    assert metrics["rotations.rotation_functional.calls"] == 128
    assert metrics["geometry.build_domain.calls"] == 1
    assert metrics["linear_solver.solve_linearized.calls"] == 0
    assert metrics["pressure.evaluate.points"] > 0
    assert 0.0 < metrics["cli.run.self_s"] < metrics["traced.wall_s"]
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert spans[0][0] == "cli.run" and spans[0][3] == -1
