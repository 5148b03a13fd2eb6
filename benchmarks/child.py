"""One benchmark process: a set-up probe or one workload round.

    python3 child.py setup CONFIG
        imports the CLI, loads and validates CONFIG into a run context, and
        prints time.monotonic() at that moment (the parent started its clock
        before launching this interpreter).
    python3 child.py run JOB_JSON
        calls pressurelab.cli.run as the job describes, timing it from the call
        to the run JSON written, and writes a record next to the job.  With
        "trace" set, the layers are wrapped first and the record carries every
        per-layer metric; the spans go to a JSON-lines file.

The parent puts the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import json
import sys
import time


def setup(config_path: str) -> None:
    import pressurelab.cli  # noqa: F401
    from pressurelab.config import RunContext, load_config

    RunContext.from_config(load_config(config_path))
    print(repr(time.monotonic()))


def run(job_path: str) -> None:
    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    import numpy
    import scipy

    import pressurelab.cli

    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    t0 = time.perf_counter()
    status = pressurelab.cli.run(job["command"], job["config"], out=job["out"],
                                 csv_path=job["csv"], seed=job["seed"])
    wall_s = time.perf_counter() - t0

    record = {"status": status, "wall_s": wall_s,
              "numpy": numpy.__version__, "scipy": scipy.__version__}
    if tracer is not None:
        record["metrics"] = tracing.layer_metrics(tracer, wall_s)
        with open(job["spans"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    with open(job["record"], "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    mode, arg = sys.argv[1], sys.argv[2]
    if mode == "setup":
        setup(arg)
    elif mode == "run":
        run(arg)
    else:
        sys.exit(f"unknown mode {mode!r}")
