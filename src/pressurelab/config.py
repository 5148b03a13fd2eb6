"""Run configuration: one schema table, canonical hashing, and the run context
that validates a config once and builds its problems and plan."""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

from .geometry import DomainSpec, build_domain
from .material import MaterialModel
from .pressure import PressureField, builtin_pressure, extend_pressure
from .rotations import MIN_GRID
from .studies import Plan, Problem


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


# Mesh size grows with the square of the resolution: the four-lobe mesh has
# 77 thousand triangles at 64, the largest resolution in use, and about 20
# million at this cap.
MAX_RESOLUTION = 1024


class Rule(NamedTuple):
    """What a value must be: `test` decides, `text` completes "<key> must be"."""
    text: str
    test: Callable[[object], bool]


def _finite(value) -> bool:
    # a bool is an int but never a number; NaN, the infinities and huge integers fail the bound
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _integer(least: int, most: float = math.inf) -> Rule:
    text = f"an integer from {least} to {most}" if most < math.inf else f"an integer of at least {least}"
    return Rule(text, lambda v: isinstance(v, int) and not isinstance(v, bool) and least <= v <= most)


def _one_of(*choices: str) -> Rule:
    return Rule("one of " + ", ".join(map(repr, choices)), lambda v: isinstance(v, str) and v in choices)


def _list_of(item: Rule, distinct: bool = False) -> Rule:
    text = f"a non-empty list{' of distinct entries' if distinct else ''}, each {item.text}"
    return Rule(text, lambda v: isinstance(v, list) and len(v) > 0 and all(map(item.test, v))
                and not (distinct and len(set(v)) < len(v)))


class Per(NamedTuple):
    """A key's rules by the value of its section's `selector`; a value without one rejects the key."""
    selector: str
    rules: dict


NUMBER = Rule("a finite number", _finite)
POSITIVE = Rule("a positive finite number", lambda v: _finite(v) and v > 0)
GRID = _integer(MIN_GRID)
_RESOLUTION = _integer(2, MAX_RESOLUTION)
REQUIRED = object()  # the default of a key that has none
# Each domain kind and pressure name reads only its own params; a domain
# param's default is DomainSpec's own.  Value errors across keys (r_inner <
# r_outer) or owned by the model classes (c1 > 0, p in (1, 2]) are left to
# building the objects.
_DOMAIN_PARAMS = Per("kind", {
    "disk": {"radius": (NUMBER, DomainSpec.radius)},
    "annulus": {"r_inner": (NUMBER, DomainSpec.r_inner), "r_outer": (NUMBER, DomainSpec.r_outer)},
    "four_lobe": {"r_small": (NUMBER, DomainSpec.r_small), "r_large": (NUMBER, DomainSpec.r_large)},
})
_PRESSURE_PARAMS = Per("name", {
    "zero": {}, "constant": {"value": (NUMBER, 1.0)}, "hydrostatic": {"coefficient": (NUMBER, 1.0)},
    "quadrant_bump": {},
})

# The one table of config keys: key -> (rule, default).  A rule is a `Rule`, the
# table of the section the key opens, or a `Per`; a section's selector comes first.
SCHEMA = {
    "domain": ({
        "kind": (_one_of(*_DOMAIN_PARAMS.rules), REQUIRED),
        "params": (_DOMAIN_PARAMS, {}),
        "resolution": (_RESOLUTION, REQUIRED),
    }, REQUIRED),
    "material": ({name: (NUMBER, REQUIRED) for name in ("c1", "c2", "p", "q")}, REQUIRED),
    "pressure": ({
        "name": (_one_of(*_PRESSURE_PARAMS.rules), REQUIRED),
        "params": (_PRESSURE_PARAMS, {}),
        "variant": (Per("name", {"quadrant_bump": _one_of("strict", "flat")}), "strict"),
    }, REQUIRED),
    "solver": ({  # the defaults of solver, study, eps_list and seed are Plan's own
        "grad_tol": (POSITIVE, Plan.grad_tol),
        "max_iter": (_integer(1), Plan.max_iter),
        "multistart_angles": (_list_of(NUMBER), Plan.multistart_angles),
    }, {}),
    "study": ({
        "resolutions": (_list_of(_RESOLUTION, distinct=True), None),  # None: [domain.resolution]
        "rotation_grid": (GRID, Plan.rotation_grid),
        "lambda_exponent": (NUMBER, Plan.lambda_exponent),
        "arc_samples": (_integer(1), Plan.arc_samples),
    }, {}),
    "eps_list": (_list_of(POSITIVE, distinct=True), Plan.eps_list),
    "seed": (_integer(0), Plan.seed),
    "output": ({name: (Rule("a non-empty string", lambda v: isinstance(v, str) and v != ""), None)
                for name in ("json", "csv", "svg")}, {}),  # None: no file
}


def _walk(section, table: dict, prefix: str) -> dict:
    """Check `section` against `table`; return it with every default filled in."""
    if not isinstance(section, dict):
        raise ConfigError(f"{prefix[:-1] or 'configuration'} must be an object")
    for key in section:
        if key not in table:
            raise ConfigError(f"unknown key {prefix}{key}")
    out = {}
    for key, (rule, default) in table.items():
        if isinstance(rule, Per):
            choice = out[rule.selector]
            if choice not in rule.rules:
                if key in section:
                    raise ConfigError(f"{prefix}{key} does not apply to {prefix}{rule.selector} {choice!r}")
                continue
            rule = rule.rules[choice]
        if key in section:
            value = section[key]
            if not isinstance(rule, dict) and not rule.test(value):
                raise ConfigError(f"{prefix}{key} must be {rule.text}")
        elif default is REQUIRED:
            raise ConfigError(f"missing key {prefix}{key}")
        else:
            value = default
        out[key] = _walk(value, rule, f"{prefix}{key}.") if isinstance(rule, dict) else value
    return out


def load_config(path: str) -> dict:
    """The config at `path` as it is written; `RunContext` validates it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not text at all
        raise ConfigError(f"cannot read the config {path} as JSON: {exc}") from exc


def config_hash(cfg: dict) -> str:
    canonical = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class RunContext:
    """A config checked against SCHEMA once, and what it builds: the domain
    spec, the material and the pressure field once, one `Problem` per
    resolution and one `Plan`."""

    config: dict
    hash: str

    def __post_init__(self):
        self.settings = _walk(self.config, SCHEMA, "")  # every key, a default where the config has none
        try:
            self.domain = DomainSpec.from_config(self.settings["domain"])
            self.domain.validate()
            self._material = MaterialModel.from_config(self.settings["material"])
            self._pi = builtin_pressure(**self.settings["pressure"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self._pi_hat: PressureField | None = None
        self._problems: dict[int, Problem] = {}
        solver, study = self.settings["solver"], self.settings["study"]
        self.plan = Plan(
            grad_tol=float(solver["grad_tol"]), max_iter=solver["max_iter"],
            multistart_angles=tuple(float(a) for a in solver["multistart_angles"]),
            eps_list=tuple(float(e) for e in self.settings["eps_list"]), seed=self.settings["seed"],
            rotation_grid=study["rotation_grid"], arc_samples=study["arc_samples"],
            lambda_exponent=study["lambda_exponent"],
        )

    @classmethod
    def from_config(cls, cfg: dict) -> "RunContext":
        return cls(config=cfg, hash=config_hash(cfg))

    @property
    def pressure(self) -> PressureField:
        return self._pi

    @property
    def pressure_extended(self) -> PressureField:
        """The field trusted out to 1.1 times the outer domain radius (in to 0.9
        times the inner one on the annulus), which the rotated body never
        leaves, and tapered over half the outer radius (half the trusted inner
        radius on the annulus); built on first use."""
        if self._pi_hat is None:
            r_out = 1.1 * self.domain.outer_radius
            if self.domain.inner_radius > 0.0:
                r_in = 0.9 * self.domain.inner_radius
                delta = 0.5 * r_in
            else:
                r_in = None
                delta = 0.5 * self.domain.outer_radius
            self._pi_hat = extend_pressure(self.pressure, r_in, r_out, delta)
        return self._pi_hat

    def problem(self, resolution: int | None = None) -> Problem:
        """The problem on the mesh of `resolution` (domain.resolution when None), built once.

        Its fields are read through the `pressure` and `pressure_extended`
        properties, the extension only when the problem's `pi_hat` is first
        read.  `benchmarks/tracer.py` wraps both to count the fields'
        `evaluate` and `gradient` calls, which the solvers and the rotation
        layer no longer make: they read `potential` and the polar factors."""
        res = self.domain.resolution if resolution is None else resolution
        if res not in self._problems:
            mesh = build_domain(replace(self.domain, resolution=res))
            self._problems[res] = Problem(mesh, self._material, self.pressure, lambda: self.pressure_extended, res)
        return self._problems[res]

    @property
    def study_resolutions(self) -> list[int]:
        return self.settings["study"]["resolutions"] or [self.domain.resolution]
