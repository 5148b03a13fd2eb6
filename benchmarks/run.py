"""pressurelab benchmark: one workload, run through the public CLI entry point.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its src/.
A run is a sequence of rounds.  Each round is one process that calls
`pressurelab.cli.run` once, with program seed 1000 * N + (round index), so
the rounds of a run sample the start noise of the nonlinear solves.  Rounds
repeat while the next one is expected to end within S seconds; there is at
least one.  Every round's outputs are checked against the computations in
checks.py.  The last line of standard output is one JSON object: correct,
attempted, failed and metrics, which are the end-to-end metrics with
--trace 0 and the per-layer metrics (per-round means) with --trace 1.
Run records, outputs and spans go to benchmarks/_runs/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
ROUND_SEEDS = 1000  # program seed of round k in a run with seed N: N * ROUND_SEEDS + k
TIMEOUT_S = 170.0  # a run must end within 180 s


def _fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def git_hash(root: Path) -> str:
    """HEAD of the checkout, read from its .git without leaving the checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    # Single-threaded BLAS: with two threads on two cores, one busy core
    # (another process) slowed scan-lobe from 15.4 s to 27.7 s; with one
    # thread it did not slow it at all.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, deadline: float):
    """wait4 on the child, killing it at the deadline; returns (status, rusage)."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.monotonic() > deadline:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.01)


def setup_seconds(env: dict, config_path: Path) -> float:
    """Fresh interpreter to a validated run context, measured from outside."""
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, str(HERE / "child.py"), "setup", str(config_path)],
                         env=env, capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout.strip().splitlines()[-1]) - t0


def run_round(env: dict, job: dict, deadline: float) -> dict:
    job_path = Path(job["record"]).with_suffix(".job.json")
    job_path.write_text(json.dumps(job))
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), "run", str(job_path)], env=env)
    status, usage = _wait(proc, deadline)
    record = {"status": status}
    if status == 0 and os.path.exists(job["record"]):
        record = json.loads(Path(job["record"]).read_text())
    record["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports kB
    return record


def boundary_polygon_areas(root: Path, config: dict) -> dict[int, float]:
    """Shoelace areas of the boundary polygons of the study's meshes."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    from pressurelab.geometry import DomainSpec, build_domain

    areas = {}
    for res in config["study"]["resolutions"]:
        mesh = build_domain(DomainSpec.from_config({**config["domain"], "resolution": res}))
        areas[res] = checks.shoelace_area(mesh.nodes[np.unique(mesh.boundary_edges)])
    return areas


def check_round(name: str, config: dict, job: dict, areas) -> list[checks.Op]:
    doc = None
    if os.path.exists(job["out"]):
        doc = json.loads(Path(job["out"]).read_text())
    if name == "gamma-disk":
        return checks.check_gamma(doc, config, areas)
    if name == "lambda-lobe":
        return checks.check_lambda(doc, config)
    csv_text = Path(job["csv"]).read_text() if os.path.exists(job["csv"]) else None
    return checks.check_scan(doc, csv_text, config)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIMEOUT_S
    root = Path.cwd()
    if not (root / "src" / "pressurelab" / "__init__.py").is_file():
        _fail(f"no pressurelab sources under {root / 'src'}; run from the root of a checkout")
    workload = WORKLOADS[args.workload]
    config = workload["config"]
    rundir = HERE / "_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    config_path = rundir / "config.json"
    config_path.write_text(json.dumps(config, indent=1))
    env = child_env(root)

    setup = [] if args.trace else [setup_seconds(env, config_path) for _ in range(SETUP_PROBES)]
    areas = boundary_polygon_areas(root, config) if args.workload == "gamma-disk" else None

    records, ops = [], []
    started = time.monotonic()
    while True:
        k = len(records)
        job = {
            "command": workload["command"], "config": str(config_path),
            "seed": args.seed * ROUND_SEEDS + k,
            "out": str(rundir / f"round{k}.json"),
            "csv": str(rundir / f"round{k}.csv") if workload["csv"] else None,
            "record": str(rundir / f"round{k}.record.json"),
            "spans": str(rundir / f"round{k}.spans.jsonl"),
            "trace": bool(args.trace),
        }
        round_start = time.monotonic()
        record = run_round(env, job, deadline)
        records.append(record)
        round_ops = check_round(args.workload, config, job, areas)
        if record["status"] != 0:
            round_ops = [checks.failed(op.label, f"program exit status {record['status']}")
                         for op in round_ops]
        ops.extend(round_ops)
        now = time.monotonic()
        last = now - round_start
        if record["status"] != 0 or now + last > min(started + args.seconds, deadline):
            break

    good = [r for r in records if r["status"] == 0]
    failed = sum(op.status == "failed" for op in ops)
    wrong = [op for op in ops if op.status == "wrong"]
    for op in wrong:
        print(f"WRONG {op.label}: {'; '.join(op.problems)}", file=sys.stderr)

    if not good:
        metrics = {}
    elif args.trace:
        metrics = {name: {"value": statistics.fmean(r["metrics"][name]["value"] for r in good),
                          "unit": unit}
                   for name, unit in ((n, m["unit"]) for n, m in good[0]["metrics"].items())}
    else:
        metrics = {
            # mean over rounds: each round is another start-noise seed
            "wall_s": {"value": statistics.fmean(r["wall_s"] for r in good), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in good),
                            "unit": "MB"},
        }
    run_record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git": git_hash(root), "nproc": len(os.sched_getaffinity(0)),
        "numpy": good[0]["numpy"] if good else None, "scipy": good[0]["scipy"] if good else None,
        "rounds": records, "setup_samples": setup, "metrics": metrics,
        "wrong": [{"label": op.label, "problems": op.problems} for op in wrong],
    }
    (rundir / "run.json").write_text(json.dumps(run_record, indent=1))
    print(f"{args.workload} seed {args.seed}: git {run_record['git'][:12]}, "
          f"numpy {run_record['numpy']}, scipy {run_record['scipy']}, nproc {run_record['nproc']}, "
          f"{len(records)} round(s)")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not wrong, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
