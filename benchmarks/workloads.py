"""The three benchmark workloads: a CLI command, its config, and its outputs.

Each round of a workload is one `pressurelab.cli.run` call, as a user runs a
config.  The seed reaches the program only through the `--seed` override,
which seeds the noise of the rigid starts of the nonlinear solves.

BENCHMARK.json gates gamma-disk and scan-lobe.  lambda-lobe runs the same
way but is not gated: one study takes 37-45 s, depending on how many of its
line searches stall for that start noise, so a run holds one round and no
steady figure fits the run budget.  Run it by hand for criterion 9.
"""

from __future__ import annotations

import math

MATERIAL = {"c1": 1.0, "c2": 1.0, "p": 2.0, "q": 2.0}
EPS_LIST = [0.08, 0.04, 0.02, 0.01]

WORKLOADS = {
    # Acceptance criteria 5-8 as a user runs them, at resolution 16 (the
    # criteria use 32 and 64): the tight tolerance puts the time in the L-BFGS
    # line search, whose cost depends on the start noise, so a run needs many
    # cheap rounds to be steady.
    "gamma-disk": {
        "command": "gamma-study",
        "csv": False,
        "config": {
            "domain": {"kind": "disk", "params": {"radius": 1.0}, "resolution": 32},
            "material": MATERIAL,
            "pressure": {"name": "constant", "params": {"value": 0.1}},
            "solver": {"grad_tol": 1e-13, "max_iter": 20000, "multistart_angles": [0.0]},
            "study": {"resolutions": [16], "rotation_grid": 256, "arc_samples": 5},
            "eps_list": EPS_LIST,
        },
    },
    # Acceptance criterion 9, the slow-rotation construction: every layer
    # carries real work on the largest mesh.
    "lambda-lobe": {
        "command": "lambda-study",
        "csv": False,
        "config": {
            "domain": {"kind": "four_lobe", "params": {"r_small": 1.0, "r_large": 2.0},
                       "resolution": 64},
            "material": MATERIAL,
            "pressure": {"name": "quadrant_bump", "variant": "strict"},
            "solver": {"grad_tol": 1e-11, "max_iter": 2000,
                       "multistart_angles": [0.0, math.pi]},
            "study": {"resolutions": [64], "rotation_grid": 1024, "lambda_exponent": 0.4},
            "eps_list": EPS_LIST,
        },
    },
    # Rotation landscape only: no solver runs, so every solver change
    # predicts no change here.
    "scan-lobe": {
        "command": "scan-rotations",
        "csv": True,
        "config": {
            "domain": {"kind": "four_lobe", "params": {"r_small": 1.0, "r_large": 2.0},
                       "resolution": 64},
            "material": MATERIAL,
            "pressure": {"name": "quadrant_bump", "variant": "flat"},
            "study": {"rotation_grid": 1024},
        },
    },
}

