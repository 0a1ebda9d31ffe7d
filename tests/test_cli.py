"""CLI behaviour: config handling, sweep output, exit codes."""

import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

from torusmag import cli, oracle, solver
from torusmag.basis import BasisSet
from torusmag.cli import (
    EXIT_CONFIG,
    EXIT_NUMERIC,
    EXIT_OK,
    MAX_BASIS_DIM,
    MAX_TAU_POINTS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
)
from torusmag.hamiltonian import VARIANTS, assemble
from torusmag.oracle import AccuracyError
from torusmag.solver import ComplexGroundError, HermiticityError

from helpers import leak_into_a_piece, sector_blocks

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"
CHECK = ROOT / "perfbench" / "check.py"
CLI_COLD = json.loads((ROOT / "perfbench" / "reference" / "cli_cold.json").read_text())


def load_perfbench(path: Path):
    """Import a perfbench module by path; perfbench is not a package."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunConfig:
    def test_defaults_are_reference_configuration(self):
        cfg = RunConfig()
        assert cfg.major_radius == 500.0
        assert cfg.alpha == 0.5
        assert (cfg.n_even, cfg.n_odd) == (6, 6)
        assert (cfg.nu_min, cfg.nu_max) == (-2, 2)

    def test_round_trip(self):
        text = """
[geometry]
major_radius = 320.5
alpha = 0.4
[field]
orientation = tilted
tilt_angle = 0.3
[basis]
n_even = 5
n_odd = 4
nu_min = -3
nu_max = 1
[sweep]
tau_start = 0.5
tau_stop = 2.0
tau_step = 0.5
[output]
out_dir = results
"""
        cfg = RunConfig(
            major_radius=320.5,
            alpha=0.4,
            orientation="tilted",
            tilt_angle=0.3,
            n_even=5,
            n_odd=4,
            nu_min=-3,
            nu_max=1,
            tau_start=0.5,
            tau_stop=2.0,
            tau_step=0.5,
            out_dir="results",
        )
        assert parse_config(text) == cfg

    def test_tilted_split_at_quarter_pi(self):
        cfg = RunConfig(orientation="tilted", tilt_angle=math.pi / 4.0)
        t0, t1 = cfg.split_tau(2.0)
        assert t0 == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)
        assert t1 == pytest.approx(2.0 / math.sqrt(2.0), rel=1e-12)

    def test_axial_and_in_plane_splits(self):
        assert RunConfig(orientation="axial").split_tau(1.5) == (1.5, 0.0)
        assert RunConfig(orientation="in_plane").split_tau(1.5) == (0.0, 1.5)

    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            RunConfig(orientation="sideways")
        with pytest.raises(ConfigError):
            RunConfig(tau_step=-0.1)
        with pytest.raises(ConfigError):
            RunConfig(alpha=1.5)

    def test_alpha_past_the_theta_rule_exits_config_code(self, tmp_path, monkeypatch, capsys):
        # near alpha = 1 the 512-node rule misses the moments of 1/F: verify
        # failed all 9 points with margins of 5e5 at 0.9995, and table printed
        # an eps0 wrong by 7.24 at 0.9999; both are refused before any build
        monkeypatch.setattr(cli, "gram_schmidt_basis", never_assemble)
        ini = tmp_path / "thin.ini"
        for alpha in ("0.9995", "0.9999"):
            ini.write_text(f"[geometry]\nalpha = {alpha}\n")
            for command in ("verify", "table", "sweep"):
                assert main([command, "--config", str(ini)]) == EXIT_CONFIG
                out, err = capsys.readouterr()
                assert out == "" and err == (
                    "configuration error: alpha must be at most 0.998214, where the "
                    f"512-node theta rule integrates 1/F to 1e-13, got {alpha}\n")
        RunConfig(alpha=0.998)
        # the limit is where the rule's relative error on the mean of 1/F,
        # 2 r^512 / (1 - r^512) in closed form, reaches 1e-13
        alpha = 0.998214
        theta = np.arange(512) * 2.0 * np.pi / 512
        error = np.mean(1.0 / (1.0 + alpha * np.cos(theta))) * np.sqrt(1.0 - alpha**2) - 1.0
        assert error == pytest.approx(1e-13, rel=0.05)
        with pytest.raises(ConfigError, match="alpha must be at most 0.998214"):
            RunConfig(alpha=0.998215)

    def test_tau_grid(self):
        cfg = RunConfig(tau_start=0.0, tau_stop=1.0, tau_step=0.5)
        assert cfg.taus() == [0.0, 0.5, 1.0]

    def test_tau_grid_stays_within_stop(self):
        # 1 / 0.6 = 1.67 steps: the point 1.2 would pass tau_stop
        assert RunConfig(tau_stop=1.0, tau_step=0.6).taus() == [0.0, 0.6]
        # 0.3 / 0.1 = 2.9999999999999996 steps still reaches the stop
        assert len(RunConfig(tau_stop=0.3, tau_step=0.1).taus()) == 4
        assert len(RunConfig().taus()) == 13
        assert len(RunConfig(tau_stop=3.0, tau_step=0.05).taus()) == 61

    @pytest.mark.parametrize(
        "text,name",
        [("[geometry]\nalfa = 0.3\n", "geometry.alfa"),
         ("[basis]\nn_evn = 9\n", "basis.n_evn"),
         ("[geometry]\nalpha = 0.3\n[bases]\nn_even = 4\n", "[bases]"),
         ("[DEFAULT]\nalpha = 0.3\n", "[DEFAULT]")],
        ids=["geometry-key", "basis-key", "section", "default-section"],
    )
    def test_unknown_section_or_key_rejected(self, text, name, tmp_path, capsys):
        with pytest.raises(ConfigError, match=re.escape(name)):
            parse_config(text)
        ini = tmp_path / "typo.ini"
        ini.write_text(text)
        assert main(["basis-dump", "--config", str(ini)]) == EXIT_CONFIG
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_tilt_angle_rejected_before_output(self, value, tmp_path, capsys):
        ini = tmp_path / "tilt.ini"
        ini.write_text(f"[field]\norientation = tilted\ntilt_angle = {value}\n")
        out = tmp_path / "out"
        argv = ["sweep", "--config", str(ini), "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "tilt_angle" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "field,value", [("tau_start", -math.inf), ("tau_stop", math.inf),
                        ("tau_stop", math.nan), ("tau_step", math.nan),
                        ("tau_step", math.inf)],
    )
    def test_rejects_nonfinite_sweep(self, field, value):
        with pytest.raises(ConfigError):
            RunConfig(**{field: value})

    def test_sweep_length_bounded(self):
        step = 1.0 / (MAX_TAU_POINTS - 1)
        assert len(RunConfig(tau_stop=1.0, tau_step=step).taus()) == MAX_TAU_POINTS
        with pytest.raises(ConfigError, match="more than"):
            RunConfig(tau_stop=1.0, tau_step=step * 0.999)
        with pytest.raises(ConfigError, match="more than"):
            RunConfig(tau_stop=3.0, tau_step=1e-9)
        with pytest.raises(ConfigError, match="more than"):
            RunConfig(tau_start=-1e308, tau_stop=1e308, tau_step=1.0)

    def test_basis_dimension_bounded(self):
        # 12 functions x 170 nu values = 2040 fits; one nu more does not
        RunConfig(nu_min=-85, nu_max=84)
        with pytest.raises(ConfigError, match=str(MAX_BASIS_DIM)):
            RunConfig(nu_min=-85, nu_max=85)
        with pytest.raises(ConfigError, match="dimension"):
            RunConfig(n_even=10**6)


class TestSweepCommand:
    def test_writes_expected_csv(self, tmp_path):
        code = main(
            ["sweep", "--orientation", "axial", "--tau-max", "0.5",
             "--tau-step", "0.5", "--out", str(tmp_path)]
        )
        assert code == EXIT_OK
        out = tmp_path / "sweep_axial.csv"
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "tau,variant,eps0,eps0_physical,nu_dominant"
        assert len(lines) == 1 + 2 * 3  # two tau values, three variants
        tau0_offoff = lines[1].split(",")
        assert tau0_offoff[:2] == ["0", "off-off"]
        assert float(tau0_offoff[2]) == pytest.approx(0.0, abs=1e-10)

    def test_axial_on_variants_identical(self, tmp_path):
        main(["sweep", "--orientation", "axial", "--tau-max", "1.0",
              "--tau-step", "0.5", "--out", str(tmp_path)])
        rows = {}
        for line in (tmp_path / "sweep_axial.csv").read_text().splitlines()[1:]:
            tau, variant, eps0, *_ = line.split(",")
            rows[(tau, variant)] = eps0
        for tau in ("0", "0.5", "1"):
            assert rows[(tau, "on-off")] == rows[(tau, "on-on")]

    @pytest.mark.parametrize(
        "key,orientation,field",
        [("tilted8", "tilted", f"tilt_angle = {8 * math.pi / 32!r}\n"),
         ("in_plane", "in_plane", "")],
        ids=["tilted8", "in_plane"],
    )
    def test_sweep_matches_stored_numbers(self, tmp_path, key, orientation, field):
        # the benchmark's tilted8 (tilt 8 pi/32) and in_plane sweeps, tau 0..3
        # step 0.05: 183 points each over all three variants, and in_plane
        # puts every nonzero tau of both off variants through the general
        # solver at full tau1.  Scored by the benchmark's own checker against
        # its stored reference, which is only read here: eps0 to 1e-9 and
        # nu_dominant exact
        ini = tmp_path / f"{key}.ini"
        ini.write_text(
            f"[field]\norientation = {orientation}\n{field}"
            "[sweep]\ntau_start = 0.0\ntau_stop = 3.0\ntau_step = 0.05\n"
        )
        rc = main(["sweep", "--config", str(ini), "--out", str(tmp_path)])
        reference = json.loads(
            (ROOT / "perfbench" / "reference" / "field_map.json").read_text()
        )[key]
        assert len(reference) == 183
        csv_text = (tmp_path / f"sweep_{orientation}.csv").read_text()
        assert load_perfbench(CHECK).sweep_csv(rc, csv_text, reference) == 0

    def test_quadrature_tables_built_once_per_sweep(self, tmp_path, monkeypatch):
        # the default sweep assembles 13 fields with one basis; the three
        # derivative tables depend only on the basis
        calls = []
        values = BasisSet.values

        def counted(self, theta, order):
            calls.append(order)
            return values(self, theta, order)

        monkeypatch.setattr(BasisSet, "values", counted)
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_OK
        assert sorted(calls) == [0, 1, 2]

    @pytest.mark.parametrize("orientation", ["axial", "in_plane", "tilted"])
    def test_solvers_see_and_return_only_float64(self, orientation, tmp_path, monkeypatch):
        # the operator is real from the term table on: every matrix that
        # reaches a solver, and every ground vector it returns, is float64
        dtypes = {}

        def recorder(name):
            layer = getattr(cli, name)

            def recorded(stack, *args, **kwargs):
                grounds = layer(stack, *args, **kwargs)
                stacks = stack if isinstance(stack, list) else [stack]  # sector stacks
                dtypes.setdefault(name, set()).update(
                    [s.dtype for s in stacks] + [g.vector.dtype for g in grounds])
                return grounds

            return recorded

        for name in ("eigensolve", "eigensolve_general"):
            monkeypatch.setattr(cli, name, recorder(name))
        argv = ["sweep", "--orientation", orientation, "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        solvers = ["eigensolve"] + ["eigensolve_general"] * (orientation != "axial")
        assert dtypes == {name: {np.dtype(np.float64)} for name in solvers}

    def test_one_assembly_per_field(self, tmp_path, monkeypatch):
        # the three variants of a field share one assembly; a tau1 = 0 field
        # reaches the whole-matrix solve alone, and consecutive others share
        # one sector solve per chunk of at most CHUNK_BYTES of sector stacks;
        # counted at the names the benchmark's tracer wraps
        calls = {"assemble": 0, "eigensolve": 0, "eigensolve_general": 0}

        def counter(name):
            layer = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return layer(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, counter(name))
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_OK
        assert calls == {"assemble": 13, "eigensolve": 13, "eigensolve_general": 0}
        argv = ["sweep", "--orientation", "in_plane", "--out", str(tmp_path)]
        field = 3 * 2 * 30**2 * 8  # bytes of a default field's two sector stacks
        # tau = 0 whole, the other 12 fields by sectors: in chunks of
        # CHUNK_BYTES // field, or one by one below a field's bytes
        written = set()
        for budget in (cli.CHUNK_BYTES, 5 * field, field - 1):
            chunks = -(-12 // max(1, budget // field))
            monkeypatch.setattr(cli, "CHUNK_BYTES", budget)
            calls.update(assemble=0, eigensolve=0, eigensolve_general=0)
            assert main(argv) == EXIT_OK
            assert calls == {"assemble": 13, "eigensolve": 1, "eigensolve_general": chunks}
            written.add((tmp_path / "sweep_in_plane.csv").read_bytes())
        assert len(written) == 1  # the chunks change no byte

    def test_byte_identical_across_runs(self, tmp_path):
        args = ["sweep", "--orientation", "in_plane", "--tau-max", "0.5",
                "--tau-step", "0.25"]
        main(args + ["--out", str(tmp_path / "a")])
        main(args + ["--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "sweep_in_plane.csv").read_bytes()
        b = (tmp_path / "b" / "sweep_in_plane.csv").read_bytes()
        assert a == b


class TestTableCommand:
    def test_emits_composition_json(self, tmp_path, capsys):
        out = tmp_path / "table.json"
        code = main(["table", "--orientation", "axial", "--tau", "0",
                     "--json-out", str(out)])
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        rows = {r["variant"]: r for r in report["rows"]}
        assert set(rows) == {"off-off", "on-off", "on-on"}
        for row in rows.values():
            assert all(set(c) == {"kind", "n", "m", "re"} for c in row["composition"])
        comp = {(c["kind"], c["n"]): c["re"] for c in rows["on-on"]["composition"]}
        assert comp[("f", 0)] == pytest.approx(0.968, abs=2e-3)
        assert abs(comp[("f", 1)]) == pytest.approx(0.244, abs=2e-3)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_tau_exits_config_code_before_assembly(
        self, value, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "assemble", never_assemble)
        assert main(["table", "--tau", value]) == EXIT_CONFIG
        assert "must be finite" in capsys.readouterr().err


    def test_rows_keep_the_order_of_tau(self, capsys):
        # in plane, tau = 0 is a tau1 = 0 field between two chunked ones
        assert main(["table", "--orientation", "in_plane",
                     "--tau", "1", "--tau", "0", "--tau", "2"]) == EXIT_OK
        taus = re.findall(r"^\S+ +tau=(\S+)", capsys.readouterr().out, re.MULTILINE)
        assert taus == ["1", "0", "2"] * len(VARIANTS)

    def test_huge_eps0_prints_in_exponent_form(self, capsys):
        # a fixed-point eps0 at tau = 1e150 would take about 300 digits
        assert main(["table", "--tau", "1e150"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 3
        for line in lines:
            # the row up to the composition
            head = re.match(r"\S+ +tau=1e\+150 eps0=-\d\.\d{6}e\+\d{3}  ", line)
            assert head and len(head[0]) < 120

    @pytest.mark.parametrize("orientation", ["tilted", "in_plane"])
    def test_huge_tau1_fields_solve(self, orientation, tmp_path):
        # the inverse iteration runs on the block over a power of two near
        # max|H|, so it does not overflow, and no theta integral is taken per
        # field; the ground level grows as tau^2 up to the largest tau whose
        # square is a float
        eps0 = {}
        for tau in (1e100, 1e150, 1e154):
            out = tmp_path / f"{tau:g}.json"
            argv = ["table", "--orientation", orientation, "--tau", f"{tau:g}"]
            assert main(argv + ["--json-out", str(out)]) == EXIT_OK
            eps0[tau] = [row["eps0"] / tau**2 for row in json.loads(out.read_text())["rows"]]
        assert eps0[1e100] == pytest.approx(eps0[1e150], rel=1e-9)
        assert eps0[1e100] == pytest.approx(eps0[1e154], rel=1e-9)


TABLE_KEYS = [key for key in CLI_COLD if key.startswith("table ")]


@pytest.mark.parametrize("key", TABLE_KEYS + ["sweep"])
def test_cli_cold_outputs_match_stored_bytes(key, tmp_path, monkeypatch, capsys):
    # every call the benchmark's cli_cold workload makes, with its stored
    # stdout (and for sweep the CSV it writes), which is only read here
    assert len(TABLE_KEYS) == 12
    monkeypatch.chdir(tmp_path)
    if key == "sweep":
        argv = ["sweep"]
    else:
        _, orientation, taus = key.split(" ")
        argv = ["table", "--orientation", orientation]
        for tau in taus.split(","):
            argv += ["--tau", tau]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == CLI_COLD[key]
    if key == "sweep":
        csv = (tmp_path / "sweep_axial.csv").read_text()
        assert csv == CLI_COLD["sweep_axial.csv"]


class TestBasisDump:
    def test_prints_coefficients(self, capsys):
        assert main(["basis-dump"]) == EXIT_OK
        data = json.loads(capsys.readouterr().out)
        assert data["alpha"] == 0.5
        assert len(data["even"]) == 6 and len(data["odd"]) == 6

    def test_matches_stored_reference_bytes(self, capsys):
        assert main(["basis-dump"]) == EXIT_OK
        assert capsys.readouterr().out == CLI_COLD["basis-dump"]


def never_assemble(*args, **kwargs):
    raise AssertionError("solved a point before the output was checked")


def diagonal_assemble(tau0, tau1, basis, variants=VARIANTS):
    """A stand-in for `assemble`: the same diagonal H for every matrix, as
    the off-off and "on" stack at tau1 = 0 and as sector stacks otherwise."""
    h = np.diag(np.arange(len(basis.labels()), dtype=float))
    if tau1 == 0.0:
        return np.stack([h] * (2 - variants[0][1]))
    return sector_blocks(np.stack([h] * len(variants)), basis.sectors)


def leaking_assemble(tau0, tau1, basis, variants=VARIANTS):
    """A stand-in for `assemble`: its stack with a 1e-6 entry between an
    A-sector and a B-sector state in every variant."""
    stack = assemble(tau0, tau1, basis, variants)
    a, b = np.flatnonzero(basis.sectors == 0)[3], np.flatnonzero(basis.sectors == 1)[5]
    stack[:, a, b] += 1e-6
    stack[:, b, a] += 1e-6
    return stack


def refuse(exc):
    """A stand-in for a layer that fails with exc."""

    def layer(*args, **kwargs):
        raise exc

    return layer


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.ini"]) == EXIT_CONFIG

    def test_config_read_from_a_pipe(self, tmp_path, capsys):
        # a process substitution, --config <(...), names a pipe, not a file
        text = "[geometry]\nalpha = 0.4\n"
        ini = tmp_path / "run.ini"
        ini.write_text(text)
        assert main(["table", "--tau", "1"]) == EXIT_OK
        default = capsys.readouterr().out
        assert main(["table", "--tau", "1", "--config", str(ini)]) == EXIT_OK
        expected = capsys.readouterr().out
        read, write = os.pipe()
        os.write(write, text.encode())
        os.close(write)
        try:
            argv = ["table", "--tau", "1", "--config", f"/dev/fd/{read}"]
            assert main(argv) == EXIT_OK
        finally:
            os.close(read)
        assert capsys.readouterr().out == expected != default

    @pytest.mark.parametrize("name", ["missing.ini", "."])
    def test_unreadable_config_exits_config_code(
        self, name, tmp_path, monkeypatch, capsys
    ):
        # a missing path or a directory: a file error naming the path, and
        # nothing is solved or written
        monkeypatch.setattr(cli, "gram_schmidt_basis", never_assemble)
        monkeypatch.setattr(cli, "assemble", never_assemble)
        path = tmp_path / name
        argv = ["sweep", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert err.startswith("file error:") and err.count("\n") == 1
        assert str(path) in err
        assert out == "" and not list(tmp_path.iterdir())

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\ntau_step = banana\n")
        assert main(["sweep", "--config", str(bad)]) == EXIT_CONFIG

    def test_unknown_subcommand_exits_config_code(self, capsys):
        assert main(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--orientation", "axial"],
         ["basis-dump", "--tau-max", "1"],
         ["basis-dump", "--orientation", "tilted", "--tau-step", "7",
          "--out", "/nonexistent"],
         ["table", "--tau-step", "0.5"],
         ["tesla", "--out", "x", "1.0"]],
    )
    def test_flags_only_where_read(self, argv, capsys):
        assert main(argv) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flags", [["--tau-max", "inf"], ["--tau-step", "1e-9"],
                  ["--tau-step", "nan"]],
    )
    def test_unrunnable_sweep_exits_config_code(self, flags, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path)] + flags) == EXIT_CONFIG
        assert not list(tmp_path.iterdir())

    def test_oversized_basis_exits_config_code(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "gram_schmidt_basis", refuse(AssertionError("built")))
        ini = tmp_path / "big.ini"
        # a dimension over MAX_BASIS_DIM, then harmonic 256, which the 512
        # theta nodes alias, in either parity
        for command, basis, message in [
            ("basis-dump", "nu_min = -1000\nnu_max = 1000", "dimension 24012 exceeds"),
            ("table", "n_even = 257", "at most 256 even and 255 odd functions, got 257 and 6"),
            ("table", "n_odd = 256", "at most 256 even and 255 odd functions, got 6 and 256"),
        ]:
            ini.write_text(f"[basis]\n{basis}\n")
            assert main([command, "--config", str(ini)]) == EXIT_CONFIG
            out, err = capsys.readouterr()
            assert out == "" and message in err

    @pytest.mark.parametrize(
        "patch,argv,message",
        [
            pytest.param(
                (cli, "eigensolve", refuse(HermiticityError("not Hermitian"))),
                ["table", "--tau", "1"], "not Hermitian", id="hermiticity",
            ),
            pytest.param(
                (cli, "eigensolve_general",
                 refuse(ComplexGroundError("ground eigenvalue has imaginary part"))),
                ["table", "--orientation", "in_plane", "--tau", "1"],
                "ground eigenvalue has imaginary part", id="complex-ground",
            ),
            pytest.param(
                (cli, "grid_solve", refuse(AccuracyError("moved on refinement"))),
                ["verify"], "moved on refinement", id="accuracy",
            ),
            # tau**2 overflows a float
            pytest.param(
                None, ["table", "--tau", "1e200"],
                r"field tau0=1e\+200, tau1=0 is out of range.*", id="table-huge-tau",
            ),
            pytest.param(
                None, ["sweep", "--tau-max", "1e200", "--tau-step", "1e199"],
                r".*out of range.*", id="sweep-huge-tau",
            ),
            # in plane, the first tau whose square overflows: at tau1 != 0 no
            # theta integral is taken per field, so tau = 1e154 solves
            pytest.param(
                None, ["table", "--orientation", "in_plane", "--tau", "1e155"],
                r"field tau0=0, tau1=1e\+155 is out of range.*",
                id="in-plane-overflowing-integrals",
            ),
            # tau**2 is a float, but the axial theta integrals overflow
            pytest.param(
                None, ["table", "--tau", "1e154"],
                r"field tau0=1e\+154, tau1=0 is out of range.*",
                id="table-overflowing-integrals",
            ),
            pytest.param(
                None, ["sweep", "--tau-max", "1e154", "--tau-step", "1e153"],
                r".*out of range.*", id="sweep-overflowing-integrals",
            ),
        ],
    )
    def test_numerical_failure_exits_numeric_code(
        self, patch, argv, message, tmp_path, monkeypatch, capsys
    ):
        if patch:
            monkeypatch.setattr(*patch)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert re.fullmatch(f"numerical error: {message}\n", err)
        # no result of the failed run is printed or written
        assert "nan" not in out and not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "patches,message",
        [
            # the rounding-sized residual of every ground vector exceeds a
            # bound of 1e-30 * max|H|
            pytest.param([(solver, "RESIDUAL_TOL", 1e-30)],
                         r"ground vector residual \S+ exceeds \S+", id="residual"),
            # a diagonal H has its top eigenvalue exactly, so an unshifted
            # block is exactly singular
            pytest.param([(solver, "INVERSE_SHIFT", 0.0), (cli, "assemble", diagonal_assemble)],
                         "shifted ground block is singular: Singular matrix", id="singular"),
        ],
    )
    def test_sector_solve_failure_exits_numeric_code(
        self, patches, message, tmp_path, monkeypatch, capsys
    ):
        for patch in patches:
            monkeypatch.setattr(*patch)
        argv = ["sweep", "--orientation", "in_plane", "--tau-max", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert re.fullmatch(f"numerical error: {message}\n", err)
        assert out == "" and not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv,config,message", [
        # tau = 3.2 has a complex ground, and tau = 1e155 overflows after it
        (["sweep"], "[field]\norientation = in_plane\n[sweep]\ntau_start = 3.2\n"
                    "tau_stop = 2e155\ntau_step = 1e155\n",
         "ground eigenvalue has imaginary part 6.181e-02, above 3.8e-09"),
        # the overflow at tau = 1e155 comes before tau = 3.2's complex ground
        (["table", "--orientation", "in_plane", "--tau", "1e155", "--tau", "3.2"], None,
         "field tau0=0, tau1=1e+155 is out of range: its matrices are not finite"),
    ], ids=["sweep-complex-first", "table-overflow-first"])
    def test_earliest_failing_field_is_reported(
        self, argv, config, message, tmp_path, monkeypatch, capsys
    ):
        # a chunk of fields is refused as a field-by-field solve refuses it
        monkeypatch.chdir(tmp_path)
        if config:
            (tmp_path / "run.ini").write_text(config)
            argv = argv + ["--config", "run.ini"]
        assert main(argv) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == "" and err == f"numerical error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["run.ini"] if config else [])

    def test_cross_sector_entry_at_tau1_zero_exits_numeric_code(
        self, tmp_path, monkeypatch, capsys
    ):
        # the whole-matrix solve of the axial fields enforces inversion
        # symmetry by the sector solve's bound
        monkeypatch.setattr(cli, "assemble", leaking_assemble)
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert re.fullmatch(r"numerical error: matrix couples the inversion sectors: "
                            r"max\|H_AB\| = 1\.000e-06 exceeds \S+\n", err)
        assert out == "" and not list(tmp_path.iterdir())

    def test_cross_sector_entry_in_a_piece_exits_numeric_code(
        self, tmp_path, monkeypatch, capsys
    ):
        # the sector solve never sees a cross-sector entry: the affine
        # pieces of every tau1 != 0 field are checked once per basis
        leak_into_a_piece(monkeypatch, n_even=RunConfig().n_even)
        argv = ["sweep", "--orientation", "in_plane", "--tau-max", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert re.fullmatch(r"numerical error: matrix couples the inversion sectors: "
                            r"max\|H_AB\| = 1\.000e-06 exceeds 1\.0e-12\n", err)
        assert out == "" and not list(tmp_path.iterdir())

    def test_unwritable_json_out_exits_config_code(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "assemble", never_assemble)
        out = tmp_path / "missing" / "x.json"
        argv = ["table", "--tau", "0", "--json-out", str(out)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1

    def test_sweep_out_naming_a_file_exits_config_code(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr(cli, "assemble", never_assemble)
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = ["sweep", "--tau-max", "0", "--out", str(taken)]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("file error:") and err.count("\n") == 1

    def test_config_file_with_overrides(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text(
            "[field]\norientation = axial\n[sweep]\n"
            "tau_start = 0.0\ntau_stop = 3.0\ntau_step = 1.0\n"
        )
        code = main(["sweep", "--config", str(ini), "--tau-max", "0.0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep_axial.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # tau = 0 only, three variants


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--n-theta", "4096", "--n-phi", "4096"],
            # 128x64 fits, but its refinement grid 256x64 does not
            ["--n-theta", "128", "--n-phi", "64", "--refine"],
        ],
    )
    def test_oversized_grid_exits_before_building(self, monkeypatch, capsys, argv):
        def never(*args, **kwargs):
            raise AssertionError("built something for an oversized grid")

        monkeypatch.setattr(cli, "gram_schmidt_basis", never)
        # every grid operator, dense or matrix-free, starts from _grid_terms
        for name in ("_grid_terms", "_nu_blocks", "_sector_ground"):
            monkeypatch.setattr(oracle, name, never)
        assert main(["verify", *argv]) == EXIT_CONFIG
        assert "8192" in capsys.readouterr().err

    def test_unconverged_oracle_exits_numeric(self, monkeypatch, capsys):
        # the iterative solve's cap reached on the first tilted field: one
        # numerical error line, no traceback, exit 3
        monkeypatch.setattr(oracle, "MAX_ITERATIONS", 1)
        assert main(["verify", "--n-theta", "16", "--n-phi", "16"]) == EXIT_NUMERIC
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("numerical error: ")

    def test_grid_solved_once_per_distinct_field(self, monkeypatch, capsys):
        # tau = 0 is one field in all three orientations: 7 distinct fields
        calls = []
        grid_solve = cli.grid_solve

        def counted(*args, **kwargs):
            calls.append(args[1])
            return grid_solve(*args, **kwargs)

        monkeypatch.setattr(cli, "grid_solve", counted)
        main(["verify", "--n-theta", "16", "--n-phi", "16"])
        assert len(calls) == len(set(calls)) == 7
        lines = capsys.readouterr().out.splitlines()
        assert len([line for line in lines if " tau=0 " in line]) == 3

    def test_basis_side_solves_on_the_printed_path(self, monkeypatch):
        # on-on is solved as sweep and table solve it: the whole matrix at
        # the three distinct tau1 = 0 fields (tau = 0 once for all three
        # orientations), the sector solve at the four others
        calls = {"eigensolve": [], "eigensolve_general": []}

        def recorder(name):
            layer = getattr(cli, name)

            def recorded(*args, **kwargs):
                calls[name].append(args)
                return layer(*args, **kwargs)

            return recorded

        for name in calls:
            monkeypatch.setattr(cli, name, recorder(name))
        main(["verify", "--n-theta", "16", "--n-phi", "16"])
        assert [len(h) for h, *_ in calls["eigensolve"]] == [1] * 3
        # one stack per sector, each holding the on-on block only
        assert [[len(s) for s in h] for h, *_ in calls["eigensolve_general"]] == [[1, 1]] * 4
        assert [hermitian for _, hermitian, _ in calls["eigensolve_general"]] == [[True]] * 4

    def test_assembles_on_on_alone(self, monkeypatch, capsys):
        # verify reads on-on only, so each field builds that one matrix: one
        # matrix per sector stack at tau1 != 0, no off-off copy at tau1 = 0
        sizes = []

        def recorded(*args):
            out = assemble(*args)
            sizes.append([len(s) for s in out] if isinstance(out, list) else [len(out)])
            return out

        monkeypatch.setattr(cli, "assemble", recorded)
        main(["verify", "--n-theta", "16", "--n-phi", "16"])
        assert sorted(sizes) == [[1]] * 3 + [[1, 1]] * 4

    def test_each_line_reports_its_margin(self, capsys):
        # the exit code is not checked: only the printed margins are tested
        main(["verify", "--n-theta", "16", "--n-phi", "16"])
        lines = re.findall(
            r"^(?:PASS|FAIL) .*\|diff\|=(\S+) tol=(\S+) margin=(\S+)$",
            capsys.readouterr().out,
            re.MULTILINE,
        )
        assert len(lines) == 9
        for diff, tol, margin in lines:
            # each of the three printed numbers is rounded to 3 figures
            assert float(margin) == pytest.approx(
                float(diff) / float(tol), rel=1.5e-2
            )


class TestOneSolvePerOperator:
    @pytest.mark.parametrize("argv,size,count", [
        (["sweep"], 2, len(RunConfig().taus())),  # every field axial
        (["table"], 2, 3),  # axial tau = 0, 1, 2
        (["verify"], 1, 3),  # tau = 0 once for all orientations, 1 and 2 axial
    ], ids=["sweep", "table", "verify"])
    def test_whole_matrix_solve_takes_each_operator_once(
        self, argv, size, count, tmp_path, monkeypatch
    ):
        # at tau1 = 0 on-off and on-on are one operator, solved once with
        # off-off (sweep, table) or alone (verify's on-on)
        stacks = []
        eigensolve = cli.eigensolve

        def recorded(h, sector):
            stacks.append(h.copy())
            return eigensolve(h, sector)

        monkeypatch.setattr(cli, "eigensolve", recorded)
        monkeypatch.chdir(tmp_path)
        assert main(argv) == EXIT_OK
        assert [len(h) for h in stacks] == [size] * count
        for h in stacks:
            assert not any(np.array_equal(a, b) for a, b in combinations(h, 2))


def run_cli(argv, **kwargs) -> subprocess.Popen:
    """A `python -m torusmag.cli` process on this checkout's source, with
    Python's default buffering, so that output can still be pending at exit."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.Popen([sys.executable, "-m", "torusmag.cli", *argv],
                            env=env, stderr=subprocess.PIPE, **kwargs)


class TestClosedStdout:
    """A reader of stdout that stops early is not a file error: the process
    exits 141 (128 + SIGPIPE, as a shell reports it) and says nothing."""

    def test_reader_that_stops_after_a_few_bytes(self, tmp_path):
        # 2.6 MB of JSON, far more than the pipe holds
        ini = tmp_path / "big.ini"
        ini.write_text("[basis]\nn_even = 256\nn_odd = 255\nnu_min = 0\nnu_max = 0\n")
        proc = run_cli(["basis-dump", "--config", str(ini)], stdout=subprocess.PIPE)
        head = proc.stdout.read(50)
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        with proc.stderr:
            assert head.startswith(b"{") and proc.stderr.read() == b""

    @pytest.mark.parametrize("argv,json_rows", [
        # 300 rows, well past the 8 KB that stdout buffers, after the JSON
        (["table", *[f"--tau={i / 50:g}" for i in range(100)]], 300),
        (["tesla", "1"], None),  # buffered until the end of the command
    ], ids=["table-json-out", "tesla"])
    def test_reader_closed_before_the_first_byte(self, argv, json_rows, tmp_path):
        out = tmp_path / "table.json"
        if json_rows:
            argv = [*argv, "--json-out", str(out)]
        read, write = os.pipe()
        os.close(read)
        proc = run_cli(argv, stdout=write)
        os.close(write)
        assert proc.wait(timeout=120) == 141
        with proc.stderr:
            assert proc.stderr.read() == b""
        if json_rows:
            assert len(json.loads(out.read_text())["rows"]) == json_rows


class TestDependencies:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import sys, torusmag.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.strip() == "[]"

    def test_commands_load_no_numpy_ma(self, tmp_path):
        # numpy.ma (which np.unique imports) adds about 1.4 MB to a process's
        # peak RSS; no command path may load it
        code = (
            "import sys\nfrom torusmag.cli import main\n"
            f"argv = ['sweep', '--orientation', 'tilted', '--tau-max', '1', '--out', {str(tmp_path)!r}]\n"
            "assert main(argv) == 0\n"
            "assert main(['table', '--orientation', 'in_plane']) == 0\n"
            "assert main(['verify']) == 0\n"
            "print('numpy.ma' in sys.modules)"
        )
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert out.splitlines()[-1] == "False"


class TestTeslaConversion:
    def test_reference_radius(self, capsys):
        assert main(["tesla", "1.0"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "3.79" in out or "3.80" in out

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_field_exits_config_code(self, value, capsys):
        assert main(["tesla", value]) == EXIT_CONFIG
        assert "finite" in capsys.readouterr().err

    def test_invalid_geometry_exits_config_code(self, tmp_path, capsys):
        ini = tmp_path / "bad.ini"
        ini.write_text("[geometry]\nmajor_radius = -5\n")
        assert main(["tesla", "--config", str(ini), "1.0"]) == EXIT_CONFIG
        assert "radii must be positive" in capsys.readouterr().err

    def test_overflowing_tau_exits_numeric_code(self, capsys):
        # a finite field whose tau is not finite names the field and radius
        assert main(["tesla", "1e308"]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("numerical error: field B = 1e+308 T at R = 5e-08 m is out of "
                       "range: tau is not finite\n")

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["tesla", "1.0"], "field B = 1 T at R = 1e+190 m is out of range: "
                               "tau is not finite"),
            # the meV column's scale overflows in a**2, a = alpha R
            (["sweep", "--mev"], "minor radius a = 5e+189 m is out of range: "
                                 "the energy scale is not finite"),
        ],
        ids=["tesla", "sweep-mev"],
    )
    def test_overflowing_radius_exits_numeric_code(self, argv, message, tmp_path, monkeypatch, capsys):
        ini = tmp_path / "huge.ini"
        ini.write_text("[geometry]\nmajor_radius = 1e200\n")
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", str(ini), *argv[1:]]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == "" and err == f"numerical error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["huge.ini"]

    def test_overflowing_mev_energy_exits_numeric_code(self, tmp_path, monkeypatch, capsys):
        # the scale is finite at R = 1, but -eps0 * scale overflows at tau = 1e153
        ini = tmp_path / "small.ini"
        ini.write_text("[geometry]\nmajor_radius = 1.0\n")
        monkeypatch.chdir(tmp_path)
        argv = ["sweep", "--config", str(ini), "--tau-max", "1e153", "--tau-step", "1e153"]
        assert main([*argv, "--mev"]) == EXIT_NUMERIC
        out, err = capsys.readouterr()
        assert out == "" and err == ("numerical error: tau = 1e+153 is out of range: "
                                     "its energy in meV is not finite\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["small.ini"]
        # without the meV column the same sweep is finite and written
        assert main(argv) == EXIT_OK
        assert (tmp_path / "sweep_axial.csv").is_file()


class TestTraceTargets:
    def test_every_traced_layer_resolves_to_a_callable(self):
        # the benchmark wraps these names to time each layer; one that no
        # longer resolves silently drops that layer from the trace
        spans = load_perfbench(SPANS)
        assert spans.TARGETS
        for module_name, attr, _ in spans.TARGETS:
            module = importlib.import_module(module_name)
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"

    def test_commands_reach_every_traced_layer(self, tmp_path, monkeypatch):
        # a command that calls a layer other than through the name the
        # tracer wraps would leave that layer's per-layer metrics empty
        spans = load_perfbench(SPANS)
        for module_name, attr, _ in spans.TARGETS:
            module = importlib.import_module(module_name)
            monkeypatch.setattr(module, attr, getattr(module, attr))  # restored after
        tracer = spans.Tracer()
        tracer.install()
        assert tracer.missing == []
        argv = ["sweep", "--orientation", "tilted", "--tau-max", "1"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        assert cli.main(["verify"]) == EXIT_OK
        assert {span[1] for span in tracer.spans} == set(spans.SPAN_NAMES)
