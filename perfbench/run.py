"""torusmag benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload field_map --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is taken from its ``src``.
Workloads (see README.md in this directory for why each exists):

    field_map      in-process ``sweep`` over axial, in-plane and seeded tilts
    verify_oracle  in-process ``verify`` against the 64x32 grid oracle
    cli_cold       fresh ``torusmag`` processes: basis-dump, table, sweep

With ``--trace 0`` the last line holds the end-to-end metrics; with
``--trace 1`` the workload is run untraced, then replayed with spans around
each layer, and the last line holds the per-layer metrics.  Output checks
run outside the timed regions; every mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference"

# Every child must end before this many seconds after start.
DEADLINE_S = 170.0
SETUP_REPEATS = 5
IMPORT_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CLI_CODE = "import sys\nfrom torusmag.cli import main\nsys.exit(main())"

# field_map: tau 0..3 step 0.05 is 61 field values x 3 variants per sweep.
SWEEP_TAU = (0.0, 3.0, 0.05)
SWEEP_POINTS = 61 * 3
# The seed draws tilts only from these angles (from the torus plane); the
# stored reference covers each of them.
TILT_ANGLES = {f"tilted{k}": k * math.pi / 32 for k in range(1, 16)}
TILTS_PER_ROUND = 5
FIELD_MAP_ROUNDS = 60

# cli_cold: the seed picks one of these --tau lists for each table call.
TABLE_TAUS = ((0.0, 1.0, 2.0), (0.5, 1.5, 2.5), (1.0, 2.0, 3.0), (0.25, 1.25, 2.75))
ORIENTATIONS = ("axial", "tilted", "in_plane")
DEFAULT_SWEEP_POINTS = 13 * 3


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def sweep_ini(key: str) -> str:
    """INI text of the field_map sweep named by ``key``."""
    start, stop, step = SWEEP_TAU
    if key in TILT_ANGLES:
        field = f"orientation = tilted\ntilt_angle = {TILT_ANGLES[key]!r}\n"
    else:
        field = f"orientation = {key}\n"
    return (f"[field]\n{field}[sweep]\ntau_start = {start!r}\n"
            f"tau_stop = {stop!r}\ntau_step = {step!r}\n")


def table_args(orientation: str, taus: tuple[float, ...]) -> list[str]:
    args = ["table", "--orientation", orientation]
    for tau in taus:
        args += ["--tau", repr(tau)]
    return args


def table_key(orientation: str, taus: tuple[float, ...]) -> str:
    return f"table {orientation} " + ",".join(repr(t) for t in taus)


def child_env() -> dict[str, str]:
    """Environment of every child: the checkout's source, BLAS <= nproc."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(max(1, min(wanted, nproc)))
    return env


class Runner:
    """Starts children one at a time, each waited for, all before a deadline."""

    def __init__(self) -> None:
        self.env = child_env()
        self.deadline = time.monotonic() + DEADLINE_S

    def __call__(self, argv: list[str], cwd: Path = WORK
                 ) -> tuple[subprocess.CompletedProcess, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting a child")
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=cwd, env=self.env, capture_output=True,
                                  timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {argv[:4]}") from exc
        wall = time.perf_counter() - start
        # decoded without newline translation, so output checks see the bytes
        proc.stdout = proc.stdout.decode("utf-8", "replace")
        proc.stderr = proc.stderr.decode("utf-8", "replace")
        return proc, wall


class Tally:
    """Operations attempted and failed, over every check of a run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def load_reference(name: str):
    return json.loads((REFERENCE / name).read_text())


def setup_probes(run: Runner, tally: Tally) -> list[float]:
    """Cold import + config + basis in fresh interpreters, SETUP_REPEATS times."""
    basis_ref = load_reference("cli_cold.json")["basis-dump"]
    times = []
    for _ in range(SETUP_REPEATS):
        proc, _ = run([sys.executable, str(HERE / "worker.py"), "setup"])
        if proc.returncode != 0:
            raise BenchError(f"setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        tally.add(1, check.exact(probe["rc"], probe["stdout"], basis_ref))
        times.append(probe["setup_s"])
    return times


def environment(run: Runner) -> dict:
    proc, _ = run([sys.executable, str(HERE / "worker.py"), "env"])
    if proc.returncode != 0:
        raise BenchError(f"environment probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def import_probes(run: Runner) -> dict[str, float | None]:
    """Cumulative ``-X importtime`` of torusmag and torusmag.field, medians."""
    metric_of = {"torusmag": "import.torusmag_s", "torusmag.field": "import.field_s"}
    found: dict[str, list[float]] = {module: [] for module in metric_of}
    for _ in range(IMPORT_REPEATS):
        proc, _ = run([sys.executable, "-X", "importtime", "-c", "import torusmag"])
        if proc.returncode != 0:
            raise BenchError(f"import probe failed:\n{proc.stderr}")
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S+)\s*$", line)
            if m and m[2] in found:
                found[m[2]].append(int(m[1]) * 1e-6)
    return {metric: statistics.median(found[module]) if found[module] else None
            for module, metric in metric_of.items()}


def run_worker(run: Runner, ops: list[list[str]], seconds: float, trace: bool,
               out: bool) -> dict:
    plan = WORK / "plan.json"
    result = WORK / "result.json"
    plan.write_text(json.dumps({"ops": ops, "seconds": seconds, "trace": trace, "out": out}))
    proc, _ = run([sys.executable, str(HERE / "worker.py"), "run", plan.name, result.name])
    if proc.returncode != 0:
        raise BenchError(f"worker failed:\n{proc.stderr}")
    return json.loads(result.read_text())


def written_bytes(stdout: str, out_dir: Path) -> int:
    """Bytes a call printed plus the bytes of the files it left in ``out_dir``."""
    files = sum(f.stat().st_size for f in out_dir.rglob("*") if f.is_file())
    return len(stdout.encode()) + files


def field_map(args, run: Runner, tally: Tally) -> dict:
    reference = load_reference("field_map.json")
    setup_s = setup_probes(run, tally)
    rng = random.Random(args.seed)
    ops = []
    for key in TILT_ANGLES.keys() | {"axial", "in_plane"}:
        (WORK / f"{key}.ini").write_text(sweep_ini(key))
    for _ in range(FIELD_MAP_ROUNDS):
        # fixed order per round so that every run sweeps the same mix
        tilts = rng.sample(sorted(TILT_ANGLES), TILTS_PER_ROUND)
        ops += [["sweep", "--config", f"{key}.ini"] for key in ["axial", "in_plane", *tilts]]
    result = run_worker(run, ops, args.seconds, args.trace, out=True)

    def checked(tag: str) -> tuple[list[float], int, int]:
        times, points, nbytes = [], 0, 0
        for i, call in enumerate(result[tag]):
            key = call["argv"][2].removesuffix(".ini")
            orientation = "tilted" if key in TILT_ANGLES else key
            out_dir = WORK / tag / str(i)
            csv = out_dir / f"sweep_{orientation}.csv"
            failed = check.sweep_csv(call["rc"], csv.read_text() if csv.is_file() else None,
                                     reference[key])
            tally.add(SWEEP_POINTS, failed)
            times.append(call["s"])
            points += SWEEP_POINTS - failed
            nbytes += written_bytes(call["stdout"], out_dir)
        return times, points, nbytes

    times, points, _ = checked("untraced")
    if args.trace:
        traced_times, _, nbytes = checked("traced")
        return traced_metrics(run, result["spans"], sum(traced_times), sum(times), nbytes)
    return {
        "setup_s": setup_s,
        "points_per_s": points / sum(times),
        "info": {"sweep_call_s": (times, "s")},
    }


def verify_oracle(args, run: Runner, tally: Tally) -> dict:
    setup_s = setup_probes(run, tally)
    result = run_worker(run, [["verify"]] * 100, args.seconds, args.trace, out=False)

    def checked(tag: str) -> tuple[list[float], int, list[float], int]:
        times, points, margins, nbytes = [], 0, [], 0
        for call in result[tag]:
            failed, margin = check.verify_output(call["rc"], call["stdout"])
            tally.add(len(check.VERIFY_POINTS), failed)
            times.append(call["s"])
            points += len(check.VERIFY_POINTS) - failed
            if margin is not None:
                margins.append(margin)
            nbytes += len(call["stdout"].encode())
        return times, points, margins, nbytes

    times, points, margins, _ = checked("untraced")
    if args.trace:
        traced_times, _, traced_margins, nbytes = checked("traced")
        metrics = traced_metrics(run, result["spans"], sum(traced_times), sum(times), nbytes)
        metrics["oracle.verify_worst_margin"] = max(margins + traced_margins, default=None)
        return metrics
    return {
        "setup_s": setup_s,
        "points_per_s": points / sum(times),
        "info": {"verify_s": (times, "s"),
                 "verify_worst_margin": (max(margins, default=None), "ratio")},
    }


def cli_cold(args, run: Runner, tally: Tally) -> dict:
    reference = load_reference("cli_cold.json")
    rng = random.Random(args.seed)
    calls: list[tuple[str, list[str], int]] = []  # (reference key, arguments, points)
    untraced: list[tuple[float, int, int]] = []
    sequence_s: list[float] = []
    start = time.perf_counter()
    # whole sequences only, while the median sequence still fits
    while not sequence_s or (time.perf_counter() - start + statistics.median(sequence_s)
                             <= args.seconds):
        sequence_start = time.perf_counter()
        sequence = [("basis-dump", ["basis-dump"], 0), ("sweep", ["sweep"], DEFAULT_SWEEP_POINTS)]
        for orientation in ORIENTATIONS:
            taus = rng.choice(TABLE_TAUS)
            sequence.append((table_key(orientation, taus), table_args(orientation, taus),
                             3 * len(taus)))
        rng.shuffle(sequence)
        for call in sequence:
            untraced.append(cli_call(run, tally, reference, call, WORK / f"untraced{len(calls)}"))
            calls.append(call)
        sequence_s.append(time.perf_counter() - sequence_start)
    setup_s = [wall for (key, _, _), (wall, _, _) in zip(calls, untraced) if key == "basis-dump"]
    work = [(wall, points) for (key, _, _), (wall, points, _) in zip(calls, untraced)
            if key != "basis-dump"]
    if args.trace:
        dumps, traced_wall, nbytes = [], 0.0, 0
        for i, call in enumerate(calls):
            spans_file = WORK / f"spans{i}.json"
            wall, _, written = cli_call(run, tally, reference, call, WORK / f"traced{i}",
                                        spans_file)
            traced_wall += wall
            nbytes += written
            dump = json.loads(spans_file.read_text())
            for span in dump["spans"]:
                span[5] = i
            dumps.append(dump)
        untraced_wall = sum(wall for wall, _, _ in untraced)
        return traced_metrics(run, spans.merge(dumps), traced_wall, untraced_wall, nbytes)
    return {
        "setup_s": setup_s,
        "points_per_s": sum(p for _, p in work) / sum(w for w, _ in work),
        "info": {"cli_call_s": ([w for w, _ in work], "s")},
    }


def cli_call(run: Runner, tally: Tally, reference: dict, call: tuple[str, list[str], int],
             cwd: Path, spans_file: Path | None = None) -> tuple[float, int, int]:
    """One fresh ``torusmag`` process, checked byte for byte against the reference.

    Returns its wall time, the points it computed correctly and the bytes it
    wrote.  ``sweep`` writes its CSV into ``cwd``.
    """
    key, cli_args, points = call
    cwd.mkdir()
    if spans_file is None:
        argv = [sys.executable, "-c", CLI_CODE, *cli_args]
    else:
        argv = [sys.executable, str(HERE / "worker.py"), "cli", str(spans_file), *cli_args]
    proc, wall = run(argv, cwd)
    failed = check.exact(proc.returncode, proc.stdout, reference[key])
    if key == "sweep":
        csv = cwd / "sweep_axial.csv"
        failed |= check.exact(0, csv.read_text() if csv.is_file() else "",
                              reference["sweep_axial.csv"])
    tally.add(1, failed)
    return wall, 0 if failed else points, written_bytes(proc.stdout, cwd)


def traced_metrics(run: Runner, dump: dict, traced_wall: float, untraced_wall: float,
                   nbytes: int) -> dict:
    metrics = spans.layer_metrics(dump, traced_wall)
    metrics.update(import_probes(run))
    metrics["cli.bytes_written"] = nbytes
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics.setdefault("oracle.verify_worst_margin", 0.0)
    for name in dump["missing"]:
        print(f"missing span: {name} (its metrics are reported as null)")
    return metrics


WORKLOADS = {"field_map": field_map, "verify_oracle": verify_oracle, "cli_cold": cli_cold}


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True)
        commit = proc.stdout.strip() or commit
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def metric_table() -> list[tuple[str, str, str]]:
    """(section, name, unit) of every metric BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [(section, m["name"], m["unit"])
            for section in ("end_to_end", "per_layer") for m in spec[section]]


def summary(values: list[float]) -> tuple[int, float, float, float]:
    """(count, first quartile, median, third quartile) of the samples."""
    if len(values) == 1:
        return 1, values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return len(values), q1, statistics.median(values), q3


def show(name: str, value, unit: str, note: str = "") -> float | None:
    """Print one metric line; a list of samples is shown and returned as its median."""
    if isinstance(value, list):
        n, q1, value, q3 = summary(value)
        note = f"  (median of n={n}, q1={q1:.6g}, q3={q3:.6g}){note}"
    shown = "missing" if value is None else f"{value:.6g}"
    print(f"{name:44s} {shown:>12s} {unit}{note}")
    return value


def report(raw: dict, rss_mb: float, tally: Tally, trace: bool) -> dict:
    """Print each metric with its unit and return the result object.

    ``raw`` maps metric names to values or lists of samples; its ``info``
    entry holds figures printed for reading only, without a bound.
    """
    raw = dict(raw)
    if not trace:
        raw["peak_rss_mb"] = rss_mb
        raw["success_ratio"] = (tally.attempted - tally.failed) / tally.attempted
    metrics = {}
    for section, name, unit in metric_table():
        if (section == "per_layer") != trace:
            continue
        if name not in raw:
            raise BenchError(f"metric {name} was not measured")
        metrics[name] = {"value": show(name, raw[name], unit), "unit": unit}
    for name, (value, unit) in raw.get("info", {}).items():
        show(name, value, unit, "  [no bound]")
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "torusmag" / "cli.py").is_file():
        print(f"error: no torusmag source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        run = Runner()
        # the build: byte-compile the package so no timed import compiles it
        proc, _ = run([sys.executable, "-m", "compileall", "-q", str(SRC / "torusmag")])
        if proc.returncode != 0:
            raise BenchError(f"compileall failed:\n{proc.stdout}{proc.stderr}")
        tally = Tally()
        raw = WORKLOADS[args.workload](args, run, tally)
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
        env = {**environment(run), **source_identity(), "seed": args.seed,
               "workload": args.workload}
        print("env " + json.dumps(env, sort_keys=True))
        result = report(raw, rss_mb, tally, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
