"""Child process of the benchmark; runs torusmag from the checkout's ``src``.

    worker.py setup            time a cold import plus ``basis-dump``
    worker.py env              print the versions and BLAS build in use
    worker.py run PLAN RESULT  time in-process ``cli.main`` calls from PLAN
    worker.py cli SPANS ARG..  one traced ``torusmag ARG..`` call

``run`` calls the plan's argument lists one at a time, always at least one,
and starts another only while the median call so far still fits in the
plan's ``seconds``.  With ``trace`` set it then wraps the layer
functions and replays the same calls, so the traced and untraced passes do
identical work.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _import_cli():
    from torusmag import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"torusmag imported from {cli.__file__}, not {SRC}")
    return cli


def _blas(module) -> str:
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name')} {blas.get('version')}"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def setup() -> int:
    start = time.perf_counter()
    cli = _import_cli()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(["basis-dump"])
    elapsed = time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "rc": rc, "stdout": out.getvalue()}))
    return 0


def _call(cli, argv: list[str]) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter()
        rc = cli.main(argv)
        elapsed = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "s": elapsed, "stdout": out.getvalue()}


def _with_out(argv: list[str], plan: dict, tag: str, i: int) -> list[str]:
    return argv + ["--out", f"{tag}/{i}"] if plan["out"] else argv


def run(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    cli = _import_cli()
    calls = []
    start = time.perf_counter()
    for i, argv in enumerate(plan["ops"]):
        calls.append(_call(cli, _with_out(argv, plan, "untraced", i)))
        typical = statistics.median(c["s"] for c in calls)
        if time.perf_counter() - start + typical > plan["seconds"]:
            break
    result = {"untraced": calls}
    if plan["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        traced = []
        for i, argv in enumerate(plan["ops"][: len(calls)]):
            tracer.run = i
            traced.append(_call(cli, _with_out(argv, plan, "traced", i)))
        result["traced"] = traced
        result["spans"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return 0


def traced_cli(spans_path: str, argv: list[str]) -> int:
    from spans import Tracer

    tracer = Tracer()
    try:
        tracer.install()
        return _import_cli().main(argv)
    finally:
        sys.stdout.flush()
        Path(spans_path).write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "setup":
        sys.exit(setup())
    if mode == "env":
        print(json.dumps(environment()))
        sys.exit(0)
    if mode == "run":
        sys.exit(run(*rest))
    if mode == "cli":
        sys.exit(traced_cli(rest[0], rest[1:]))
    raise SystemExit(f"unknown mode {mode!r}")
