"""CLI behaviour: config handling, sweep output, exit codes."""

import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from torusmag import basis as basis_module
from torusmag import cli, oracle
from torusmag.basis import BasisSet, DegeneracyError
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
from torusmag.oracle import AccuracyError
from torusmag.solver import ComplexGroundError, HermiticityError

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

    def test_one_assembly_per_field(self, tmp_path, monkeypatch):
        # the three variants of a field share one assembly, and only the
        # variants without the magnetic coupling at tau1 != 0 reach the
        # general solver; counted at the names the benchmark's tracer wraps
        calls = {"assemble": 0, "eigensolve_general": 0}

        def counter(name):
            layer = getattr(cli, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return layer(*args, **kwargs)

            return counted

        for name in calls:
            monkeypatch.setattr(cli, name, counter(name))
        assert main(["sweep", "--out", str(tmp_path)]) == EXIT_OK
        assert calls == {"assemble": 13, "eigensolve_general": 0}
        calls.update(assemble=0, eigensolve_general=0)
        argv = ["sweep", "--orientation", "in_plane", "--tau-max", "1"]
        assert main(argv + ["--out", str(tmp_path)]) == EXIT_OK
        # tau = 0.25 ... 1 with the off-off and on-off variants
        assert calls == {"assemble": 5, "eigensolve_general": 2 * 4}

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


def refuse(exc):
    """A stand-in for a layer that fails with exc."""

    def layer(*args, **kwargs):
        raise exc

    return layer


class TestErrorPaths:
    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.ini"]) == EXIT_CONFIG

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

    def test_oversized_basis_exits_config_code(self, tmp_path, capsys):
        ini = tmp_path / "big.ini"
        ini.write_text("[basis]\nnu_min = -1000\nnu_max = 1000\n")
        assert main(["basis-dump", "--config", str(ini)]) == EXIT_CONFIG

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
            pytest.param(
                (cli, "gram_schmidt_basis", refuse(DegeneracyError("degenerate"))),
                ["basis-dump"], "degenerate", id="degeneracy",
            ),
            # a real orthogonality loss: every deviation exceeds a negative bound
            pytest.param(
                (basis_module, "ORTHO_TOL", -1.0), ["basis-dump"],
                r"orthogonality loss at even pair \(\d+, \d+\)",
                id="orthogonality-loss",
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
            # tau**2 is a float, but the theta integrals overflow
            pytest.param(
                None, ["table", "--tau", "1e154"],
                r"field tau0=1e\+154, tau1=0 is out of range.*",
                id="table-overflowing-integrals",
            ),
            pytest.param(
                None, ["table", "--orientation", "in_plane", "--tau", "1e154"],
                r"field tau0=0, tau1=1e\+154 is out of range.*",
                id="in-plane-overflowing-integrals",
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
