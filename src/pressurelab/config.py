"""Run configuration: strict JSON schema, canonical hashing, object builders."""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .geometry import DomainSpec, TriMesh, build_domain
from .material import MaterialModel
from .pressure import PressureField, builtin_pressure, extend_pressure
from .rotations import MIN_GRID
from .studies import SolverOptions


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# key -> required; each section of _SECTIONS has its own table
_DOMAIN_KEYS = {"kind": True, "params": False, "resolution": True}
_MATERIAL_KEYS = {"c1": True, "c2": True, "p": True, "q": True}
_PRESSURE_KEYS = {"name": True, "params": False, "variant": False}
_SOLVER_KEYS = {"grad_tol": False, "max_iter": False, "multistart_angles": False}
_STUDY_KEYS = {"resolutions": False, "rotation_grid": False, "lambda_exponent": False,
               "arc_samples": False}
_OUTPUT_KEYS = {"json": False, "csv": False, "svg": False}
_TOP_KEYS = {"domain": True, "material": True, "pressure": True, "solver": False,
             "study": False, "eps_list": False, "seed": False, "output": False}
_SECTIONS = {"domain": _DOMAIN_KEYS, "material": _MATERIAL_KEYS, "pressure": _PRESSURE_KEYS,
             "solver": _SOLVER_KEYS, "study": _STUDY_KEYS, "output": _OUTPUT_KEYS}
# The params each domain kind and pressure name reads; `DomainSpec.from_config`
# and `builtin_pressure` take a default for a missing one, so a misspelt key
# would silently become it.
_DOMAIN_PARAMS = {"disk": {"radius"}, "annulus": {"r_inner", "r_outer"}, "four_lobe": {"r_small", "r_large"}}
_PRESSURE_PARAMS = {"zero": set(), "constant": {"value"}, "hydrostatic": {"coefficient"},
                    "quadrant_bump": {"variant"}, "example52": {"variant"}}
# Mesh size grows with the square of the resolution: the four-lobe mesh has
# 77 thousand triangles at 64, the largest resolution in use, and about 20
# million at this cap.
MAX_RESOLUTION = 1024


def _check_section(section, table, prefix):
    if not isinstance(section, dict):
        raise ConfigError(f"section {prefix!r} must be an object")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {prefix}.{key}")
    for key, required in table.items():
        if required and key not in section:
            raise ConfigError(f"missing key {prefix}.{key}")


# JSON true and false load as Python bools, which are ints: neither counts here.
def _is_integer(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, float) or _is_integer(value)


def _integer_in(value, least: int, most: float = math.inf) -> bool:
    return _is_integer(value) and least <= value <= most


def validate_config(cfg: dict) -> None:
    if not isinstance(cfg, dict):
        raise ConfigError("configuration must be a JSON object")
    for key in cfg:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key {key}")
    for key, required in _TOP_KEYS.items():
        if required and key not in cfg:
            raise ConfigError(f"missing key {key}")

    for name, table in _SECTIONS.items():
        if name in cfg:
            _check_section(cfg[name], table, name)

    for section, selector, table in (("domain", "kind", _DOMAIN_PARAMS), ("pressure", "name", _PRESSURE_PARAMS)):
        params = cfg[section].get("params", {})
        if not isinstance(params, dict):
            raise ConfigError(f"{section}.params must be an object")
        choice = cfg[section][selector]
        # an unknown kind or name is left to `DomainSpec` or `builtin_pressure` to reject
        known = table.get(choice, set(params)) if isinstance(choice, str) else set(params)
        unknown = sorted(set(params) - known)
        if unknown:
            raise ConfigError(f"unknown key {section}.params.{unknown[0]}")
    for key in ("c1", "c2", "p", "q"):
        if not _is_number(cfg["material"][key]):
            raise ConfigError(f"material.{key} must be a number")
    if not _integer_in(cfg["domain"]["resolution"], 2, MAX_RESOLUTION):
        raise ConfigError(f"domain.resolution must be an integer from 2 to {MAX_RESOLUTION}")
    if "eps_list" in cfg:
        eps = cfg["eps_list"]
        if not isinstance(eps, list) or not eps or not all(_is_number(e) and e > 0 for e in eps):
            raise ConfigError("eps_list must be a non-empty list of positive numbers")
    if "seed" in cfg and not _is_integer(cfg["seed"]):
        raise ConfigError("seed must be an integer")
    study = cfg.get("study", {})
    for key, least in (("rotation_grid", MIN_GRID), ("arc_samples", 1)):
        if key in study and not _integer_in(study[key], least):
            raise ConfigError(f"study.{key} must be an integer of at least {least}")
    res = study.get("resolutions", [2])
    if not isinstance(res, list) or not res or not all(_integer_in(r, 2, MAX_RESOLUTION) for r in res):
        raise ConfigError(f"study.resolutions must be a non-empty list of integers from 2 to {MAX_RESOLUTION}")
    if "lambda_exponent" in study and not _is_number(study["lambda_exponent"]):
        raise ConfigError("study.lambda_exponent must be a number")

    try:
        DomainSpec.from_config(cfg["domain"]).validate()
        MaterialModel.from_config(cfg["material"])
        builtin_pressure(cfg["pressure"]["name"], cfg["pressure"].get("params"),
                         cfg["pressure"].get("variant"))
    except ConfigError:
        raise
    # what bad values raise (OverflowError: float() of a huge integer); the rest are faults
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    validate_config(cfg)
    return cfg


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunContext:
    """Validated configuration plus lazily built solver inputs."""

    config: dict
    hash: str

    def __post_init__(self):
        self._meshes: dict[int, TriMesh] = {}
        self._pi_hat: PressureField | None = None

    @classmethod
    def from_config(cls, cfg: dict) -> "RunContext":
        validate_config(cfg)
        return cls(config=cfg, hash=config_hash(cfg))

    @property
    def seed(self) -> int:
        return int(self.config.get("seed", 0))

    @property
    def material(self) -> MaterialModel:
        return MaterialModel.from_config(self.config["material"])

    @property
    def pressure(self) -> PressureField:
        sec = self.config["pressure"]
        return builtin_pressure(sec["name"], sec.get("params"), sec.get("variant"))

    @property
    def domain_spec(self) -> DomainSpec:
        return DomainSpec.from_config(self.config["domain"])

    def mesh(self, resolution: int | None = None) -> TriMesh:
        res = int(resolution) if resolution is not None else self.domain_spec.resolution
        if res not in self._meshes:
            spec = DomainSpec.from_config({**self.config["domain"], "resolution": res})
            self._meshes[res] = build_domain(spec)
        return self._meshes[res]

    @property
    def pressure_extended(self) -> PressureField:
        """The field trusted out to 1.1 times the outer domain radius (in to 0.9
        times the inner one on the annulus), which the rotated body never
        leaves, and tapered over half the outer radius (half the trusted inner
        radius on the annulus)."""
        if self._pi_hat is None:
            spec = self.domain_spec
            r_out = 1.1 * spec.outer_radius
            if spec.inner_radius > 0.0:
                r_in = 0.9 * spec.inner_radius
                delta = 0.5 * r_in
            else:
                r_in = None
                delta = 0.5 * spec.outer_radius
            self._pi_hat = extend_pressure(self.pressure, r_in, r_out, delta)
        return self._pi_hat

    @property
    def solver_options(self) -> SolverOptions:
        return SolverOptions.from_config(self.config.get("solver"))

    @property
    def eps_list(self) -> list[float]:
        return [float(e) for e in self.config.get("eps_list", [0.08, 0.04, 0.02, 0.01])]

    @property
    def study_resolutions(self) -> list[int]:
        study = self.config.get("study", {}) or {}
        if "resolutions" in study:
            return [int(r) for r in study["resolutions"]]
        return [self.domain_spec.resolution]

    @property
    def rotation_grid(self) -> int:
        return int((self.config.get("study", {}) or {}).get("rotation_grid", 1024))

    @property
    def lambda_exponent(self) -> float:
        return float((self.config.get("study", {}) or {}).get("lambda_exponent", 0.4))

    @property
    def arc_samples(self) -> int:
        return int((self.config.get("study", {}) or {}).get("arc_samples", 5))
