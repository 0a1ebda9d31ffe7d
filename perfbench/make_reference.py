"""Regenerate the stored outputs that the benchmark's checks compare against.

    python3 perfbench/make_reference.py

Run from the root of a checkout whose outputs are accepted as correct; it
rewrites ``perfbench/reference/field_map.json`` (every sweep the field_map
seeds can draw) and ``perfbench/reference/cli_cold.json`` (the exact stdout
of every call cli_cold can make, plus the default sweep's CSV).
"""

from __future__ import annotations

import json
import shutil
import sys

import run as bench


def cli(runner: bench.Runner, args: list[str], cwd) -> str:
    proc, _ = runner([sys.executable, "-c", bench.CLI_CODE, *args], cwd)
    if proc.returncode != 0:
        raise SystemExit(f"torusmag {' '.join(args)} failed:\n{proc.stderr}")
    return proc.stdout


def main() -> int:
    shutil.rmtree(bench.WORK, ignore_errors=True)
    bench.WORK.mkdir()
    try:
        runner = bench.Runner()
        runner.deadline += 3600
        field_map = {}
        for key in ["axial", "in_plane", *bench.TILT_ANGLES]:
            (bench.WORK / "sweep.ini").write_text(bench.sweep_ini(key))
            cli(runner, ["sweep", "--config", "sweep.ini", "--out", key], bench.WORK)
            orientation = "tilted" if key in bench.TILT_ANGLES else key
            lines = (bench.WORK / key / f"sweep_{orientation}.csv").read_text().splitlines()
            field_map[key] = [
                [tau, variant, eps0, int(nu)]
                for tau, variant, eps0, _, nu in (line.split(",") for line in lines[1:])
            ]
        cli_cold = {"basis-dump": cli(runner, ["basis-dump"], bench.WORK)}
        cli_cold["sweep"] = cli(runner, ["sweep"], bench.WORK)
        cli_cold["sweep_axial.csv"] = (bench.WORK / "sweep_axial.csv").read_text()
        for orientation in bench.ORIENTATIONS:
            for taus in bench.TABLE_TAUS:
                cli_cold[bench.table_key(orientation, taus)] = cli(
                    runner, bench.table_args(orientation, taus), bench.WORK)
    finally:
        shutil.rmtree(bench.WORK, ignore_errors=True)
    bench.REFERENCE.mkdir(exist_ok=True)
    # one row per line keeps the file small and its diffs readable
    (bench.REFERENCE / "field_map.json").write_text("{\n" + ",\n".join(
        f"{json.dumps(key)}: [\n" + ",\n".join(json.dumps(row) for row in rows) + "\n]"
        for key, rows in field_map.items()) + "\n}\n")
    (bench.REFERENCE / "cli_cold.json").write_text(json.dumps(cli_cold, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
