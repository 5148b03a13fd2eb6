import csv
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pressurelab import build_domain, rotations, studies
from pressurelab.cli import COMMANDS, _emit_json, main, run
from pressurelab.config import MAX_RESOLUTION, REQUIRED, SCHEMA, ConfigError, Per, RunContext, config_hash


_LOBE_SCAN = dict(pressure={"name": "quadrant_bump", "variant": "flat"},
                  domain={"kind": "four_lobe", "params": {}, "resolution": 8}, study={"rotation_grid": 64})
_ANNULUS_SCAN = dict(pressure={"name": "hydrostatic", "params": {"coefficient": 1.0}},
                     domain={"kind": "annulus", "params": {"r_inner": 1.0, "r_outer": 2.0}, "resolution": 8},
                     study={"rotation_grid": 64})


def validate_config(cfg: dict) -> dict:
    """Check `cfg` as a run does, by building its run context; return the filled-in settings."""
    return RunContext.from_config(cfg).settings


def validate_result(doc: dict) -> None:
    """Structural re-validation of an emitted run document."""
    for key in ("schema", "command", "config", "config_hash", "meta", "result"):
        if key not in doc:
            raise ConfigError(f"missing key {key}")
    if doc["schema"] != "pressurelab/run-v1":
        raise ConfigError("unknown result schema")
    if doc["command"] not in COMMANDS:
        raise ConfigError("unknown command in result")
    validate_config(doc["config"])


def _base_config(**overrides):
    cfg = {
        "domain": {"kind": "disk", "params": {"radius": 1.0}, "resolution": 10},
        "material": {"c1": 1.0, "c2": 1.0, "p": 2.0, "q": 2.0},
        "pressure": {"name": "constant", "params": {"value": 0.1}},
        "solver": {"grad_tol": 1e-10, "max_iter": 1500, "multistart_angles": [0.0]},
        "study": {"resolutions": [10], "rotation_grid": 128},
        "eps_list": [0.04, 0.02],
        "seed": 5,
    }
    cfg.update(overrides)
    return cfg


def _write(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_accepts_base_config():
    validate_config(_base_config())


@pytest.mark.parametrize("mutate,needle", [
    (lambda c: c["material"].pop("p"), "material.p"),
    (lambda c: c["domain"].pop("kind"), "domain.kind"),
    (lambda c: c.update(extra=1), "extra"),
    (lambda c: c["pressure"].update(color="red"), "pressure.color"),
    (lambda c: c.update(eps_list=[-0.1]), "eps_list"),
    (lambda c: c["domain"].update(resolution=1.5), "resolution"),
])
def test_validation_names_the_offending_key(mutate, needle):
    cfg = _base_config()
    mutate(cfg)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert needle in str(err.value)


def test_missing_key_exit_code(tmp_path, capsys):
    cfg = _base_config()
    del cfg["material"]["p"]
    path = _write(tmp_path, cfg)
    assert run("solve-linear", path) == 2
    assert "material.p" in capsys.readouterr().err


def test_retired_pressure_alias_exits_2_naming_the_name(tmp_path, capsys):
    cfg = _base_config(pressure={"name": "example52", "variant": "strict"})
    assert run("scan-rotations", _write(tmp_path, cfg)) == 2
    assert "pressure.name" in capsys.readouterr().err


def test_config_hash_is_canonical():
    a = _base_config()
    b = json.loads(json.dumps(a))
    assert config_hash(a) == config_hash(b)
    b["seed"] = 6
    assert config_hash(a) != config_hash(b)


def test_scan_rotations_outputs(tmp_path):
    cfg = _base_config(pressure={"name": "quadrant_bump", "variant": "strict"},
                       domain={"kind": "four_lobe", "params": {}, "resolution": 10})
    path = _write(tmp_path, cfg)
    out = tmp_path / "scan.json"
    csv_path = tmp_path / "scan.csv"
    svg_path = tmp_path / "scan.svg"
    code = run("scan-rotations", path, out=str(out), csv_path=str(csv_path), svg=str(svg_path))
    assert code == 0
    doc = json.loads(out.read_text())
    validate_result(doc)
    assert doc["config_hash"] == config_hash(cfg)
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 128
    assert list(rows[0]) == ["alpha", "functional_value", "el_residual", "second_variation_unit"]
    argmins = sorted(float(r["alpha"]) for r in rows
                     if float(r["functional_value"]) <= float(doc["result"]["optimal"]["min_value"]) + 1e-9)
    assert any(abs(a - 0.0) < 0.05 or abs(a - 2 * np.pi) < 0.05 for a in argmins)
    assert any(abs(a - np.pi) < 0.05 for a in argmins)
    ET.parse(svg_path)  # well-formed XML


def test_solve_nonlinear_and_linear(tmp_path):
    cfg = _base_config()
    path = _write(tmp_path, cfg)
    out_nl = tmp_path / "nl.json"
    assert run("solve-nonlinear", path, out=str(out_nl), eps=0.02) == 0
    doc = json.loads(out_nl.read_text())
    validate_result(doc)
    res = doc["result"]
    assert res["diagnostics"]["converged"]
    assert res["energy"] < 0.0
    assert len(res["y_nodal"]) == len(res["u_nodal"])

    out_lin = tmp_path / "lin.json"
    assert run("solve-linear", path, out=str(out_lin)) == 0
    lin = json.loads(out_lin.read_text())["result"]
    assert abs(lin["E0"] + np.pi * 0.01 / 3.0) < 1e-3


def test_gamma_study_command_outputs(tmp_path):
    cfg = _base_config()
    path = _write(tmp_path, cfg)
    out = tmp_path / "g.json"
    csv_path = tmp_path / "g.csv"
    svg_path = tmp_path / "g.svg"
    assert run("gamma-study", path, out=str(out), csv_path=str(csv_path), svg=str(svg_path)) == 0
    doc = json.loads(out.read_text())
    validate_result(doc)
    assert len(doc["result"]["rows"]) == 2
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    assert {"resolution", "eps", "energy_over_eps2"} <= set(rows[0])
    ET.parse(svg_path)


def test_identical_config_and_seed_bit_identical(tmp_path):
    lobe = dict(pressure={"name": "quadrant_bump", "variant": "strict"},
                domain={"kind": "four_lobe", "params": {}, "resolution": 8},
                study={"resolutions": [8], "rotation_grid": 128})
    inputs = [
        ("gamma-study", _base_config(), {}),
        ("scan-rotations", _base_config(**lobe), {}),
        ("solve-linear", _base_config(**lobe), {"alpha0": "auto"}),
        ("solve-linear", _base_config(), {"alpha0": "0.3"}),
        ("solve-nonlinear", _base_config(), {"eps": 0.04}),
        ("refined-study", _base_config(**lobe), {}),
        ("lambda-study", _base_config(**lobe, eps_list=[0.04]), {}),
    ]
    for k, (command, cfg, kwargs) in enumerate(inputs):
        path = _write(tmp_path, cfg, name=f"cfg{k}.json")
        docs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / f"{k}{name}"
            assert run(command, path, out=str(out), **kwargs) == 0
            docs.append(json.loads(out.read_text()))
        # everything except the timestamp field is bit-identical
        for doc in docs:
            doc["meta"].pop("timestamp")
        assert json.dumps(docs[0], sort_keys=True) == json.dumps(docs[1], sort_keys=True), command


def test_scan_rotations_scans_the_functional_once(tmp_path, monkeypatch):
    import pressurelab.rotations as R

    cfg = _base_config(pressure={"name": "quadrant_bump", "variant": "strict"},
                       domain={"kind": "four_lobe", "params": {}, "resolution": 8})
    path = _write(tmp_path, cfg)
    # angles handed to the profile, which every evaluation of the functional goes through
    calls = {"grid": 0, "refine": 0}
    in_refine = []
    real_profile, real_golden = R.rotation_functional_profile, R.golden_section_min

    def counted(mesh, pi, alphas):
        calls["refine" if in_refine else "grid"] += len(np.atleast_1d(alphas))
        return real_profile(mesh, pi, alphas)

    def golden(*args, **kwargs):
        in_refine.append(True)
        try:
            return real_golden(*args, **kwargs)
        finally:
            in_refine.pop()

    monkeypatch.setattr(R, "rotation_functional_profile", counted)
    monkeypatch.setattr(R, "golden_section_min", golden)
    assert run("scan-rotations", path, out=str(tmp_path / "scan.json")) == 0
    assert calls["grid"] == 128  # study.rotation_grid
    assert calls["refine"] > 0


def test_identity_not_optimal_exits_3(tmp_path, capsys):
    cfg = _base_config(pressure={"name": "hydrostatic", "params": {"coefficient": 0.1}},
                       domain={"kind": "four_lobe", "params": {}, "resolution": 8},
                       study={"resolutions": [8], "rotation_grid": 128})
    path = _write(tmp_path, cfg)
    assert run("gamma-study", path) == 3
    assert "identity rotation is not optimal" in capsys.readouterr().err


def test_plain_value_error_in_a_study_is_not_exit_3(tmp_path, monkeypatch):
    # only the named problem errors become exit 3; any other ValueError is a fault
    import pressurelab.studies as ST

    def broken(*args, **kwargs):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(ST, "gamma_study", broken)
    path = _write(tmp_path, _base_config(study={"resolutions": [8], "rotation_grid": 128}))
    with pytest.raises(ValueError, match="broadcast"):
        run("gamma-study", path)


@pytest.mark.parametrize("needle,extra", [
    pytest.param(needle, extra, id=needle) for needle, extra in (
        ("study.refine_tol", {"study": {"resolutions": [10], "rotation_grid": 128, "refine_tol": 1e-10}}),
        ("solver.memory", {"solver": {"grad_tol": 1e-10, "memory": 10}}),
        ("solver.noise_amplitude", {"solver": {"grad_tol": 1e-10, "noise_amplitude": 1e-3}}),
        ("extension", {"extension": {"r_outer": 1.1}}),
    )
])
def test_removed_option_is_not_a_config_key(tmp_path, capsys, needle, extra):
    # the rotation refinement tolerance, the L-BFGS memory, the start noise
    # and the extension radii are constants of the program
    path = _write(tmp_path, _base_config(**extra))
    assert run("scan-rotations", path) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("command, study, needle", [
    pytest.param("scan-rotations", {"rotation_grid": 32}, "study.rotation_grid", id="rotation_grid"),
    pytest.param("solve-linear", {"arc_samples": 0}, "study.arc_samples", id="arc_samples"),
    pytest.param("solve-linear", {"arc_samples": True}, "study.arc_samples", id="arc_samples_bool"),
    pytest.param("gamma-study", {"resolutions": [0]}, "study.resolutions", id="resolutions"),
    pytest.param("lambda-study", {"lambda_exponent": "0.4"}, "study.lambda_exponent", id="lambda_exponent"),
])
def test_study_values_are_validated(tmp_path, capsys, command, study, needle):
    path = _write(tmp_path, _base_config(study={"resolutions": [10], "rotation_grid": 128, **study}))
    assert run(command, path) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("key", ["material.c1", "material.c2", "material.p", "material.q", "eps_list",
                                 "study.lambda_exponent", "seed", "domain.resolution"])
def test_booleans_are_not_numbers(tmp_path, capsys, key):
    # JSON true loads as a Python bool, which is an int
    cfg = _base_config()
    if key == "eps_list":
        cfg["eps_list"] = [0.04, True]
    elif "." in key:
        section, name = key.split(".")
        cfg[section][name] = True
    else:
        cfg[key] = True
    assert run("scan-rotations", _write(tmp_path, cfg)) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("section,key,value,needle", [
    ("domain", "params", [1], "domain.params"),
    ("domain", "params", "x", "domain.params"),
    ("pressure", "params", [1], "pressure.params"),
    ("pressure", "params", "x", "pressure.params"),
    ("pressure", "variant", [1], "pressure.variant"),
])
def test_malformed_sections_exit_2_naming_the_key(tmp_path, capsys, section, key, value, needle):
    # these reached the construction step as AttributeErrors before they were checked
    cfg = _base_config()
    if key == "variant":
        cfg["pressure"] = {"name": "quadrant_bump"}
    cfg[section][key] = value
    assert run("scan-rotations", _write(tmp_path, cfg)) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("section, value, needle", [
    ("domain", {"kind": "disk", "params": {"radus": 2.0}}, "domain.params.radus"),
    ("domain", {"kind": "annulus", "params": {"r_inner": 1.0, "r_outr": 2.0}}, "domain.params.r_outr"),
    ("domain", {"kind": "four_lobe", "params": {"radius": 1.0}}, "domain.params.radius"),
    ("pressure", {"name": "constant", "params": {"valeu": 0.5}}, "pressure.params.valeu"),
    ("pressure", {"name": "zero", "params": {"value": 0.5}}, "pressure.params.value"),
    ("pressure", {"name": "hydrostatic", "params": {"value": 0.5}}, "pressure.params.value"),
    ("pressure", {"name": "quadrant_bump", "params": {"varient": "flat"}}, "pressure.params.varient"),
])
def test_misspelt_params_exit_2_naming_the_key(tmp_path, capsys, section, value, needle):
    # a missing param takes its default, so a misspelt one would silently become it
    cfg = _base_config()
    cfg[section].update(value)
    assert run("scan-rotations", _write(tmp_path, cfg)) == 2
    assert needle in capsys.readouterr().err


def test_every_documented_param_is_accepted():
    for kind, params in (("disk", {"radius": 1.5}), ("annulus", {"r_inner": 0.5, "r_outer": 2.0}),
                         ("four_lobe", {"r_small": 1.0, "r_large": 2.0})):
        validate_config(_base_config(domain={"kind": kind, "params": params, "resolution": 8}))
    for name, params in (("zero", {}), ("constant", {"value": 0.5}), ("hydrostatic", {"coefficient": 0.5}),
                         ("quadrant_bump", {})):
        validate_config(_base_config(pressure={"name": name, "params": params}))
    for variant in ("flat", "strict"):
        validate_config(_base_config(pressure={"name": "quadrant_bump", "variant": variant}))


@pytest.mark.parametrize("key, domain_res, study_res", [
    ("domain.resolution", 10 ** 400, [10]),
    ("domain.resolution", MAX_RESOLUTION + 1, [10]),
    ("study.resolutions", 10, [10, 10 ** 400]),
    ("study.resolutions", 10, [MAX_RESOLUTION + 1]),
])
def test_resolution_above_the_cap_exits_2(tmp_path, capsys, key, domain_res, study_res):
    # a huge resolution used to end in an OverflowError while the mesh was built
    cfg = _base_config(study={"resolutions": study_res, "rotation_grid": 128})
    cfg["domain"]["resolution"] = domain_res
    assert run("gamma-study", _write(tmp_path, cfg)) == 2
    assert key in capsys.readouterr().err
    cfg = _base_config(study={"resolutions": [128, MAX_RESOLUTION], "rotation_grid": 128})
    cfg["domain"]["resolution"] = 128
    validate_config(cfg)


def test_scan_rotations_of_hydrostatic_pressure_on_an_annulus(tmp_path):
    # a field without a support is scanned through its polar factorization too
    cfg = _base_config(**_ANNULUS_SCAN)
    out = tmp_path / "scan.json"
    assert run("scan-rotations", _write(tmp_path, cfg), out=str(out)) == 0
    rows = json.loads(out.read_text())["result"]["rows"]
    # the functional (7/3) int_pi^2pi (-sin t) dt = 14/3 is the same at every angle
    values = np.array([row["functional_value"] for row in rows])
    assert np.max(np.abs(values - 14.0 / 3.0)) < 0.05
    assert all(row["second_variation_unit"] is None for row in rows)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_undefined_values_are_written_as_null(tmp_path):
    # a merely Lipschitz field has no second variation, and a sweep whose
    # minima all vanish has no scaling-constant ratio: both are null, so the
    # run JSON parses under a strict reader, and the CSV cell is empty
    cfg = _base_config(pressure={"name": "hydrostatic", "params": {"coefficient": 0.1}},
                       domain={"kind": "annulus", "params": {"r_inner": 1.0, "r_outer": 2.0}, "resolution": 8},
                       study={"rotation_grid": 64})
    out, csv_path = tmp_path / "scan.json", tmp_path / "scan.csv"
    assert run("scan-rotations", _write(tmp_path, cfg), out=str(out), csv_path=str(csv_path)) == 0
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)["result"]["rows"]
    assert len(rows) == 64 and all(row["second_variation_unit"] is None for row in rows)
    with open(csv_path, newline="") as fh:
        assert all(row["second_variation_unit"] == "" for row in csv.DictReader(fh))

    cfg = _base_config(pressure={"name": "zero", "params": {}},
                       study={"resolutions": [6], "rotation_grid": 128})
    out = tmp_path / "gamma.json"
    assert run("gamma-study", _write(tmp_path, cfg, "zero.json"), out=str(out)) == 0
    limits = json.loads(out.read_text(), parse_constant=_reject_constant)["result"]["limits"]
    assert limits["6"]["scaling_constant_ratio"] is None


def test_a_non_finite_result_is_not_written(tmp_path):
    out = tmp_path / "run.json"
    ctx = RunContext.from_config(_base_config())
    with pytest.raises(ValueError):
        _emit_json(str(out), "scan-rotations", ctx, {"value": math.nan})
    assert not out.exists()




@pytest.mark.parametrize("command, overrides", [
    ("scan-rotations", _LOBE_SCAN),
    ("scan-rotations", _ANNULUS_SCAN),
    ("gamma-study", dict(study={"resolutions": [6], "rotation_grid": 128})),
], ids=["scan-lobe", "scan-annulus", "gamma"])
def test_run_json_is_one_sorted_strict_line(tmp_path, command, overrides):
    out = tmp_path / "run.json"
    assert run(command, _write(tmp_path, _base_config(**overrides)), out=str(out)) == 0
    text = out.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False) + "\n"
    assert text.count("\n") == 1
    json.loads(text, parse_constant=_reject_constant)


@pytest.mark.parametrize("overrides", [_LOBE_SCAN, _ANNULUS_SCAN], ids=["smooth", "lipschitz"])
def test_scan_csv_and_run_json_agree_cell_for_cell(tmp_path, overrides):
    # a CSV cell's float() and the JSON row's value are the same double, and an empty cell is null
    cfg = _base_config(**overrides)
    out, csv_path = tmp_path / "scan.json", tmp_path / "scan.csv"
    assert run("scan-rotations", _write(tmp_path, cfg), out=str(out), csv_path=str(csv_path)) == 0
    rows = json.loads(out.read_text())["result"]["rows"]
    with open(csv_path, newline="") as fh:
        cells = list(csv.DictReader(fh))
    assert len(cells) == len(rows) == 64

    def bits(value):
        return None if value is None else float(value).hex()

    for cell, row in zip(cells, rows):
        assert list(cell) == ["alpha", "functional_value", "el_residual", "second_variation_unit"]
        for key, text in cell.items():
            assert type(row[key]) is (float if text else type(None)), key
            assert bits(text or None) == bits(row[key]), key

    # and those numbers are the rotation layer's own, bit for bit
    ctx = RunContext.from_config(cfg)
    mesh, pi = build_domain(ctx.domain), ctx.pressure
    alphas = 2.0 * np.pi * np.arange(64) / 64
    residuals, second = rotations.boundary_profile(mesh, pi, alphas)
    columns = {"alpha": alphas, "functional_value": rotations.find_optimal_rotations(mesh, pi, grid_n=64).grid_values,
               "el_residual": residuals, "second_variation_unit": second if pi.is_smooth else [None] * 64}
    for key, column in columns.items():
        assert [bits(row[key]) for row in rows] == [bits(v) for v in column], key


def test_a_fault_while_building_the_config_objects_is_not_a_config_error(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("bug in the field builder")

    monkeypatch.setattr("pressurelab.config.builtin_pressure", broken)
    with pytest.raises(RuntimeError, match="bug in the field builder"):
        run("scan-rotations", _write(tmp_path, _base_config()))


def test_benchmark_workload_configs_validate():
    spec = importlib.util.spec_from_file_location(
        "benchmark_workloads", Path(__file__).resolve().parents[1] / "benchmarks" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in ("scan-lobe", "gamma-disk", "lambda-lobe"):
        validate_config(workloads.WORKLOADS[name]["config"])


def test_retired_run_settings_are_rejected(tmp_path, capsys):
    # the output paths are the --out/--csv/--svg flags alone, and the scan's
    # grid is study.rotation_grid alone: an `output` section is an unknown key
    cfg = _base_config(output={"json": str(tmp_path / "run.json")})
    assert run("scan-rotations", _write(tmp_path, cfg)) == 2
    assert "unknown key output" in capsys.readouterr().err
    assert not (tmp_path / "run.json").exists()
    path = _write(tmp_path, _base_config(), "base.json")
    with pytest.raises(SystemExit) as exc:
        main(["scan-rotations", "--config", path, "--grid", "64"])
    assert exc.value.code == 2
    with pytest.raises(TypeError):
        run("scan-rotations", path, grid=64)


def _schema_keys(table=SCHEMA, path=(), at=None):
    """(dotted key, the (section, selector, choice) it depends on or None, rule, default)
    for every key of the schema, sections and params included."""
    for key, (rule, default) in table.items():
        for choice, sub in (rule.rules.items() if isinstance(rule, Per) else [(None, rule)]):
            where = at if choice is None else (path[-1], rule.selector, choice)
            yield ".".join(path + (key,)), where, sub, default
            if isinstance(sub, dict):
                yield from _schema_keys(sub, path + (key,), where)


def _readme_row(key, at, rule, default):
    where = "" if at is None else f"{at[1]} `{at[2]}`"
    shown = "required" if default is REQUIRED else "none" if default is None else f"`{json.dumps(default)}`"
    return f"| `{key}` | {where} | {rule.text} | {shown} |"


def _config_at(key, at, value=None, omit=False):
    """The base config with `key` set to `value` (or left out), under the
    selector choice the key depends on."""
    cfg = _base_config()
    if at is not None:
        section, selector, choice = at
        cfg[section] = {selector: choice, **({"resolution": 8} if section == "domain" else {})}
    *parents, last = key.split(".")
    target = cfg
    for part in parents:
        target = target.setdefault(part, {})
    if omit:
        target.pop(last, None)
    else:
        target[last] = value
    return cfg


_KEYS = sorted({(key, at) for key, at, _, _ in _schema_keys()}, key=str)
_OPTIONAL = [(key, at, default) for key, at, rule, default in _schema_keys()
             if default is not REQUIRED and not isinstance(rule, dict)]


@pytest.mark.parametrize("key, at", _KEYS, ids=[f"{k}-{a[2]}" if a else k for k, a in _KEYS])
def test_every_key_rejects_wrong_typed_values(tmp_path, capsys, key, at):
    for value in [True, "x", None, [], math.nan]:
        assert run("scan-rotations", _write(tmp_path, _config_at(key, at, value))) == 2, value
        err = capsys.readouterr().err
        assert key in err and "Traceback" not in err, (value, err)


# how a run reads a key; any other key is read from the filled-in settings.  The
# solver and study keys, eps_list and seed are read from the plan the studies receive.
_READ = {
    **{f"solver.{name}": (lambda ctx, name=name: getattr(ctx.plan, name))
       for name in ("grad_tol", "max_iter", "multistart_angles")},
    **{f"study.{name}": (lambda ctx, name=name: getattr(ctx.plan, name))
       for name in ("rotation_grid", "arc_samples", "lambda_exponent")},
    "eps_list": lambda ctx: ctx.plan.eps_list,
    "seed": lambda ctx: ctx.plan.seed,
    "study.resolutions": lambda ctx: ctx.study_resolutions,
    "pressure.params.value": lambda ctx: ctx.pressure.params["value"],
    "pressure.params.coefficient": lambda ctx: ctx.pressure.params["coefficient"],
    "pressure.variant": lambda ctx: ctx.pressure.params["variant"],
}


def _setting(ctx, key):
    value = ctx.settings
    for part in key.split("."):
        value = value[part]
    return value


@pytest.mark.parametrize("key, at, default", _OPTIONAL, ids=[f"{k}-{a[2]}" if a else k for k, a, _ in _OPTIONAL])
def test_an_omitted_key_takes_its_documented_default(key, at, default):
    cfg = _config_at(key, at, omit=True)
    ctx = RunContext.from_config(cfg)
    value = _READ[key](ctx) if key in _READ else _setting(ctx, key)
    if key == "study.resolutions":  # documented as none: the domain's resolution
        default = [cfg["domain"]["resolution"]]
    if isinstance(default, tuple):
        value = tuple(value)
    assert value == default


def test_readme_schema_lists_every_config_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    text = readme.split("### Configuration schema")[1].split("\n### ")[0]
    schema = json.loads(re.search(r"```json\n(.*?)```", text, re.S).group(1))
    assert set(schema) == set(SCHEMA)
    for name, (table, _) in SCHEMA.items():
        if isinstance(table, dict):
            assert set(schema[name]) == set(table), name
    rows = {line for line in text.splitlines() if line.startswith("| `")}
    assert rows == {_readme_row(*key) for key in _schema_keys() if not isinstance(key[2], dict)}


def test_readme_synopsis_lists_every_command_flag():
    # each command's line names exactly the flags cli.COMMANDS gives it beyond the common ones
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```\n(pressurelab .*?)```", readme.split("## Command line")[1], re.S).group(1)
    common = {"config", "out", "csv", "svg", "seed"}
    listed = {line.split()[1]: set(re.findall(r"--([a-z0-9]+)", line)) - common for line in block.splitlines()}
    assert listed == {command: set(flags) for command, flags in COMMANDS.items()}


_PROBES = [
    ("scan-rotations", ("solver", "grad_tol"), "abc"),
    ("scan-rotations", ("solver", "grad_tol"), True),
    ("scan-rotations", ("solver", "grad_tol"), -1.0),
    ("scan-rotations", ("solver", "multistart_angles"), "ab"),
    ("scan-rotations", ("solver", "multistart_angles"), []),
    ("scan-rotations", ("solver", "max_iter"), 0),
    ("scan-rotations", ("solver", "max_iter"), 2.7),
    ("scan-rotations", ("domain", "params", "radius"), True),
    ("scan-rotations", ("domain", "params", "radius"), "2"),
    ("scan-rotations", ("pressure", "params", "value"), True),
    ("scan-rotations", ("pressure", "params", "value"), math.nan),
    ("scan-rotations", ("seed",), -1),
    ("solve-nonlinear", ("eps_list",), [math.inf]),
    ("solve-linear", ("eps_list",), [math.inf]),
    ("gamma-study", ("eps_list",), [0.05, 0.05]),
    ("gamma-study", ("study", "resolutions"), [4, 4]),
]


@pytest.mark.parametrize("command, path, value", _PROBES,
                         ids=[f"{'.'.join(p)}={v!r}" for _, p, v in _PROBES])
def test_values_outside_the_schema_exit_2_naming_the_key(tmp_path, capsys, command, path, value):
    # each of these used to run, or to end in a traceback
    cfg = _base_config()
    target = cfg
    for part in path[:-1]:
        target = target.setdefault(part, {})
    target[path[-1]] = value
    assert run(command, _write(tmp_path, cfg)) == 2
    err = capsys.readouterr().err
    assert ".".join(path) in err and "Traceback" not in err, err


@pytest.mark.parametrize("pressure, needle", [
    ({"name": "quadrant_bump", "params": {"variant": "flat"}}, "pressure.params.variant"),
    ({"name": "quadrant_bump", "variant": "strict", "params": {"variant": "flat"}}, "pressure.params.variant"),
    ({"name": "constant", "params": {"value": 0.1}, "variant": "flat"}, "pressure.variant"),
    ({"name": "hydrostatic", "variant": "strict"}, "pressure.variant"),
])
def test_the_bump_variant_has_one_key(tmp_path, capsys, pressure, needle):
    # pressure.variant is the one key, and only a field with variants takes it
    assert run("scan-rotations", _write(tmp_path, _base_config(pressure=pressure))) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("solve-nonlinear", "--eps", "0"), ("solve-nonlinear", "--eps", "-0.1"),
    ("solve-nonlinear", "--eps", "nan"), ("solve-nonlinear", "--eps", "inf"),
    ("solve-linear", "--alpha0", "abc"), ("solve-linear", "--alpha0", "nan"),
    ("solve-linear", "--alpha0", "inf"),
])
def test_malformed_flags_exit_2_naming_the_flag(tmp_path, capsys, command, flag, value):
    # --eps 0 used to run at eps_list[0]; the others ended in tracebacks
    path = _write(tmp_path, _base_config())
    assert main([command, "--config", path, flag, value]) == 2
    err = capsys.readouterr().err
    assert flag in err and "Traceback" not in err, err


@pytest.mark.parametrize("command, flags", [
    ("solve-linear", {"eps": -3.0}), ("solve-linear", {"eps": 0.02}),
    ("scan-rotations", {"alpha0": "0.3"}), ("gamma-study", {"eps": 0.02}), ("solve-nonlinear", {"alpha0": "0.3"}),
])
def test_run_rejects_a_flag_its_command_does_not_take(tmp_path, capsys, command, flags):
    # as the command line does ("unrecognized arguments"); run() used to ignore it and exit 0
    path, out = _write(tmp_path, _base_config()), tmp_path / "run.json"
    assert run(command, path, out=str(out), **flags) == 2
    err = capsys.readouterr().err
    assert f"--{next(iter(flags))}" in err and "Traceback" not in err, err
    assert not out.exists()
    argv = [command, "--config", path] + [part for flag, value in flags.items() for part in (f"--{flag}", str(value))]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_seed_flag_is_checked_as_a_flag(tmp_path, capsys):
    # named as the flag, as --eps and --alpha0 are, not as the config key
    path = _write(tmp_path, _base_config())
    assert main(["scan-rotations", "--config", path, "--seed", "-1"]) == 2
    assert run("scan-rotations", path, seed=-1) == 2
    assert run("scan-rotations", path, seed=True) == 2
    err = capsys.readouterr().err
    assert err.count("--seed must be an integer of at least 0") == 3 and "Traceback" not in err, err


def test_seed_flag_changes_output(tmp_path):
    cfg = _base_config()
    path = _write(tmp_path, cfg)
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run("solve-nonlinear", path, out=str(out1), eps=0.04) == 0
    assert run("solve-nonlinear", path, out=str(out2), eps=0.04, seed=99) == 0
    d1 = json.loads(out1.read_text())
    d2 = json.loads(out2.read_text())
    assert d1["config_hash"] != d2["config_hash"]  # seed is part of the config
    assert d1["result"]["y_nodal"] != d2["result"]["y_nodal"]  # and seeds the start noise


@pytest.mark.parametrize("command", ["gamma-study", "refined-study", "lambda-study"])
def test_study_result_does_not_depend_on_seed(tmp_path, command):
    # a sweep starts every solve at the limit's prediction R(alpha_k)(x + eps u0): no noise
    cfg = _base_config()
    if command != "gamma-study":
        cfg.update(pressure={"name": "quadrant_bump", "variant": "strict"},
                   domain={"kind": "four_lobe", "params": {}, "resolution": 8},
                   study={"resolutions": [8], "rotation_grid": 128})
    path = _write(tmp_path, cfg)
    results = []
    for seed in (5, 99):
        out = tmp_path / f"s{seed}.json"
        assert run(command, path, out=str(out), seed=seed) == 0
        doc = json.loads(out.read_text())
        assert set(doc["result"]) == {"rows", "limits"}  # the command and hash live only at the top level
        results.append(doc["result"])
    assert results[0] == results[1]


def test_selftest_command_is_gone(tmp_path, capsys):
    # its structural checks are unit tests; a half-removed command would still run or crash
    # an unknown command is rejected before its config is read
    path = _write(tmp_path, _base_config())
    assert "selftest" not in COMMANDS
    for config in (path, str(tmp_path / "missing.json")):
        assert run("selftest", config) == 2
        err = capsys.readouterr().err
        assert "unknown command 'selftest'" in err and "config" not in err, err
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--config", path])
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("text", ["[1, 2]", '"text"'])
def test_seed_flag_with_a_config_that_is_not_an_object(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert run("scan-rotations", str(path), seed=3) == 2
    assert main(["scan-rotations", "--config", str(path), "--seed", "3"]) == 2
    err = capsys.readouterr().err
    assert err.count("configuration must be an object") == 2 and "Traceback" not in err, err


def test_lambda_study_wrong_variant_is_solver_error(tmp_path, capsys):
    cfg = _base_config(pressure={"name": "quadrant_bump", "variant": "flat"},
                       domain={"kind": "four_lobe", "params": {}, "resolution": 8})
    path = _write(tmp_path, cfg)
    assert run("lambda-study", path) == 3
    assert "strict" in capsys.readouterr().err


def test_main_entry_point(tmp_path):
    path = _write(tmp_path, _base_config())
    out = tmp_path / "m.json"
    assert main(["solve-linear", "--config", path, "--out", str(out), "--alpha0", "0.0"]) == 0
    doc = json.loads(out.read_text())
    assert doc["command"] == "solve-linear"


def test_refined_study_command(tmp_path):
    cfg = _base_config(pressure={"name": "quadrant_bump", "variant": "strict"},
                       domain={"kind": "four_lobe", "params": {}, "resolution": 8},
                       study={"resolutions": [8], "rotation_grid": 128},
                       eps_list=[0.04, 0.02])
    path = _write(tmp_path, cfg)
    out = tmp_path / "r.json"
    assert run("refined-study", path, out=str(out)) == 0
    doc = json.loads(out.read_text())
    limits = doc["result"]["limits"]["8"]
    assert -1.0 <= limits["A0_scalar"] <= 1.0


def test_gamma_study_merges_resolutions(tmp_path):
    # the CLI labels each row with its resolution; a study's own rows carry none
    cfg = _base_config(study={"resolutions": [8, 10], "rotation_grid": 128}, eps_list=[0.04])
    path = _write(tmp_path, cfg)
    out, csv_path = tmp_path / "multi.json", tmp_path / "multi.csv"
    assert run("gamma-study", path, out=str(out), csv_path=str(csv_path)) == 0
    doc = json.loads(out.read_text())
    rows = doc["result"]["rows"]
    assert [r["resolution"] for r in rows] == [8, 10]
    assert set(doc["result"]["limits"]) == {"8", "10"}
    assert csv_path.read_text().startswith("resolution,eps,")
    ctx = RunContext.from_config(cfg)
    direct = studies.gamma_study(ctx.problem(8), ctx.plan)
    assert [r["eps"] for r in direct.rows] == [0.04]
    assert all("resolution" not in r and "error" not in r for r in direct.rows)


def test_conjugate_gradient_cap_exits_3(tmp_path, capsys, monkeypatch):
    # the one SolverError: the limit solve's iteration cap, met before any eps is solved
    from pressurelab import linear_solver

    monkeypatch.setattr(linear_solver, "_CG_MAX_ITER", 1)
    cfg = _base_config(pressure={"name": "quadrant_bump", "variant": "strict"},
                       domain={"kind": "four_lobe", "params": {}, "resolution": 8},
                       study={"resolutions": [8], "rotation_grid": 128})
    path = _write(tmp_path, cfg)
    for command in ("gamma-study", "solve-linear"):
        out = tmp_path / f"{command}.json"
        assert run(command, path, out=str(out)) == 3
        err = capsys.readouterr().err
        assert "solver error: conjugate gradient did not converge" in err and "Traceback" not in err, err
        assert not out.exists()


@pytest.mark.parametrize("key", ["--out", "--csv", "--svg"])
def test_an_output_directory_that_does_not_exist_exits_2_before_any_work(tmp_path, capsys, monkeypatch, key):
    import pressurelab.rotations as R

    def no_scan(*args, **kwargs):
        raise AssertionError("the scan ran before the output paths were checked")

    monkeypatch.setattr(R, "find_optimal_rotations", no_scan)
    missing = tmp_path / "missing" / "run.out"
    assert main(["scan-rotations", "--config", _write(tmp_path, _base_config()), key, str(missing)]) == 2
    err = capsys.readouterr().err
    assert key in err and "Traceback" not in err, err
    assert not missing.parent.exists()


def test_a_study_validates_once_and_builds_each_object_once(tmp_path, monkeypatch):
    # one schema walk, one material and one field per run, one extension where
    # a nonlinear solve reads it, and one stiffness factor per resolution solved
    import pressurelab.config as C
    from pressurelab.material import MaterialModel
    from pressurelab.nonlinear_solver import StiffnessPreconditioner

    counts = {"walk": 0, "material": 0, "pressure": 0, "extension": 0, "factor": 0}

    def counting(name, fn, when=lambda *args: True):
        def wrapped(*args, **kwargs):
            counts[name] += bool(when(*args))
            return fn(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(C, "_walk", counting("walk", C._walk, when=lambda section, table, prefix: prefix == ""))
    monkeypatch.setattr(MaterialModel, "__post_init__", counting("material", MaterialModel.__post_init__))
    monkeypatch.setattr(C, "builtin_pressure", counting("pressure", C.builtin_pressure))
    monkeypatch.setattr(C, "extend_pressure", counting("extension", C.extend_pressure))
    monkeypatch.setattr(StiffnessPreconditioner, "__init__", counting("factor", StiffnessPreconditioner.__init__))
    cfg = _base_config(study={"resolutions": [8, 12], "rotation_grid": 128}, eps_list=[0.04])
    cfg["solver"]["grad_tol"] = 1e-8
    path = _write(tmp_path, cfg)
    for command, extension, factor in (("gamma-study", 1, 2), ("solve-linear", 0, 1), ("scan-rotations", 0, 0)):
        counts.update(dict.fromkeys(counts, 0))
        assert run(command, path) == 0
        expected = {"walk": 1, "material": 1, "pressure": 1, "extension": extension, "factor": factor}
        assert counts == expected, command


def test_run_context_defaults():
    ctx = RunContext.from_config(_base_config())
    assert ctx.plan.eps_list == (0.04, 0.02)
    assert ctx.study_resolutions == [10]
    assert ctx.plan.multistart_angles == (0.0,)
    mesh = ctx.problem().mesh
    assert mesh.n_nodes > 0
    assert ctx.pressure_extended.evaluate(np.array([0.2, 0.1])) == 0.1


_IMPORT_PROBE = """
import json, sys
import pressurelab.cli
from pressurelab.config import RunContext


def loaded():
    return [name for name in ("scipy.sparse.linalg", "scipy.linalg") if name in sys.modules]


RunContext.from_config(json.loads(sys.argv[1]))
after_setup = loaded()
pressurelab.cli.run("scan-rotations", sys.argv[2], out=sys.argv[3])
print(json.dumps([after_setup, loaded()]))
"""


def test_scan_rotations_imports_no_factorization(tmp_path):
    # StiffnessPreconditioner imports scipy.sparse.linalg on first use, so a
    # command that factors nothing never pays for that import (or for
    # scipy.linalg, which it pulls in); a fresh interpreter sees what is loaded
    cfg = _base_config(domain={"kind": "four_lobe", "params": {"r_small": 1.0, "r_large": 2.0}, "resolution": 12},
                       pressure={"name": "quadrant_bump", "variant": "flat"})
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, json.dumps(cfg), _write(tmp_path, cfg),
                           str(tmp_path / "scan.json")], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [[], []]
