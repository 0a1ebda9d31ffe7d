"""Command line interface: flux sweeps, composition tables, verification.

Subcommands
-----------
sweep       ground-state eigenvalue versus tau for the three potential
            variants (off-off, on-off, on-on), written as CSV
table       ground-state composition grid over tau values and variants
verify      basis pipeline versus the independent grid oracle
basis-dump  orthonormal basis coefficients as JSON
tesla       a field in tesla converted to tau at the configured radius

Configuration comes from an INI file (sections geometry, field, basis,
sweep, output; an unknown section or key is an error) with command line
flags taking precedence.  Defaults are the reference configuration:
R = 500, alpha = 1/2, six functions per parity, nu in [-2, 2].

Exit codes: 0 success, 1 configuration or file error, 2 verification failure,
3 numerical error (any ArithmeticError, overflow of a huge field included),
141 a reader of the output that stopped early (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import errno
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .basis import BasisSet, gram_schmidt_basis
from .field import FieldConfig, energy_scale_mev, tau_from_tesla
from .hamiltonian import N_QUAD, VARIANTS, assemble
from .oracle import GridSpec, grid_solve
from .solver import eigensolve, eigensolve_general, ground_state_composition

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VERIFY = 2
EXIT_NUMERIC = 3

#: Largest sweep length and basis dimension a run may ask for; the basis
#: bound is the size of the default verification grid.
MAX_TAU_POINTS = 10_001
MAX_BASIS_DIM = 2048

#: Largest relative error of the theta rule on the mean of 1/F that a run accepts.
THETA_RULE_TOL = 1e-13

#: Largest bytes of sector stacks that one sector solve takes from a sweep.
CHUNK_BYTES = 1 << 19


class ConfigError(ValueError):
    """Invalid run configuration."""


def _tau_count(span: float) -> int:
    """Number of sweep points for a range of span steps: every whole step
    that stays within tau_stop, allowing 1e-9 of a step for rounding."""
    return math.floor(span + 1e-9) + 1


@dataclass(frozen=True)
class RunConfig:
    """Full description of a run; read from INI by `parse_config`."""

    major_radius: float = 500.0
    alpha: float = 0.5
    orientation: str = "axial"
    tilt_angle: float = math.pi / 4.0
    tau_start: float = 0.0
    tau_stop: float = 3.0
    tau_step: float = 0.25
    n_even: int = 6
    n_odd: int = 6
    nu_min: int = -2
    nu_max: int = 2
    out_dir: str = "."

    def __post_init__(self) -> None:
        if self.orientation not in ("axial", "in_plane", "tilted"):
            raise ConfigError(f"unknown orientation {self.orientation!r}")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError(f"alpha must be in (0, 1), got {self.alpha}")
        # 1/F has Fourier coefficients r**|m| / sqrt(1 - alpha**2), r = alpha /
        # (1 + sqrt(1 - alpha**2)), so the theta rule's relative error on its
        # mean is 2 r**N / (1 - r**N): at most THETA_RULE_TOL up to this alpha
        r = (THETA_RULE_TOL / (2.0 + THETA_RULE_TOL)) ** (1.0 / N_QUAD)
        limit = 2.0 * r / (1.0 + r * r)
        if self.alpha > limit:
            raise ConfigError(
                f"alpha must be at most {limit:.6f}, where the "
                f"{N_QUAD}-node theta rule integrates 1/F to {THETA_RULE_TOL:g}, "
                f"got {self.alpha}"
            )
        if not (math.isfinite(self.major_radius) and self.major_radius > 0):
            raise ConfigError(
                f"torus radii must be positive and finite, got "
                f"major_radius = {self.major_radius}"
            )
        if not math.isfinite(self.tilt_angle):
            raise ConfigError(f"tilt_angle must be finite, got {self.tilt_angle}")
        sweep = (self.tau_start, self.tau_stop, self.tau_step)
        if (
            not all(math.isfinite(x) for x in sweep)
            or self.tau_step <= 0
            or self.tau_stop < self.tau_start
        ):
            raise ConfigError(
                f"bad tau sweep [{self.tau_start}, {self.tau_stop}] "
                f"step {self.tau_step}"
            )
        span = (self.tau_stop - self.tau_start) / self.tau_step
        if not math.isfinite(span) or _tau_count(span) > MAX_TAU_POINTS:
            raise ConfigError(f"tau sweep has more than {MAX_TAU_POINTS} points")
        if self.nu_min > self.nu_max:
            raise ConfigError(f"empty nu range [{self.nu_min}, {self.nu_max}]")
        dim = (self.n_even + self.n_odd) * (self.nu_max - self.nu_min + 1)
        if dim > MAX_BASIS_DIM:
            raise ConfigError(f"basis dimension {dim} exceeds {MAX_BASIS_DIM}")
        # cos and sin of N_QUAD / 2 theta alias on the theta rule's nodes
        half = N_QUAD // 2
        if self.n_even > half or self.n_odd >= half:
            raise ConfigError(
                f"{N_QUAD} theta nodes integrate at most {half} even and "
                f"{half - 1} odd functions, got {self.n_even} and {self.n_odd}"
            )

    def taus(self) -> list[float]:
        n = _tau_count((self.tau_stop - self.tau_start) / self.tau_step)
        return [self.tau_start + i * self.tau_step for i in range(n)]

    def split_tau(self, tau: float) -> tuple[float, float]:
        """Map sweep magnitude tau to (tau0, tau1) for the orientation.

        tilt_angle is measured from the plane of the torus, so tilted at
        pi/4 gives tau0 = tau1 = tau/sqrt(2).
        """
        if self.orientation == "axial":
            return tau, 0.0
        if self.orientation == "in_plane":
            return 0.0, tau
        return tau * math.sin(self.tilt_angle), tau * math.cos(self.tilt_angle)


def parse_config(text: str) -> RunConfig:
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    kwargs: dict = {}
    # the RunConfig fields each section may set; a field's type is its default's
    sections = {
        "geometry": ("major_radius", "alpha"),
        "field": ("orientation", "tilt_angle"),
        "basis": ("n_even", "n_odd", "nu_min", "nu_max"),
        "sweep": ("tau_start", "tau_stop", "tau_step"),
        "output": ("out_dir",),
    }
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in sections:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if key not in sections[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            try:
                kwargs[key] = type(getattr(RunConfig, key))(parser.get(section, key))
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}") from exc
    return RunConfig(**kwargs)


def _load_config(args: argparse.Namespace) -> RunConfig:
    """The --config file's RunConfig, the defaults without one; flags whose
    dest names a RunConfig field override that field."""
    cfg = parse_config(Path(args.config).read_text() if args.config else "")
    updates = {
        f.name: getattr(args, f.name)
        for f in dataclasses.fields(cfg)
        if getattr(args, f.name, None) is not None
    }
    return dataclasses.replace(cfg, **updates)


def _build_basis(cfg: RunConfig) -> BasisSet:
    return gram_schmidt_basis(cfg.alpha, cfg.n_even, cfg.n_odd, (cfg.nu_min, cfg.nu_max))


def _field_grounds(cfg: RunConfig, basis: BasisSet, taus, k: int):
    """(tau, name, `GroundState`) of each of the last k `VARIANTS`, in that
    order, at each field cfg.split_tau(tau) in turn, each assembled once
    with only those variants.  A tau1 = 0 field is solved at once by the
    whole-matrix solve, whose rounding the stored outputs pin, of off-off
    and the "on" matrix, whose ground on-off and on-on share.  Consecutive
    other fields gather in chunks of at most CHUNK_BYTES of sector stacks
    (at least one field), each solved by one sector solve, where a variant
    without the magnetic coupling is not Hermitian and on-on's sector tops,
    certified per basis by `assemble`, bound its eigenvalues.  A refusal in
    assembly first solves the chunk before it, and a failing chunk is solved
    again field by field, so the refusal is the earliest failing field's."""
    variants = VARIANTS[-k:]
    hermitian = [vmag for _, _, vmag in variants]
    first = int(variants[0][1])  # at tau1 = 0 a variant's matrix is stack[vc_on - first]
    chunk: list = []  # (tau, sector stacks) of the tau1 != 0 fields not yet solved

    def solve_chunk():
        if not chunk:
            return
        taus, stacks = zip(*chunk)
        chunk.clear()
        # one field is solved in place: a copy would double its bytes
        blocks = stacks[0] if len(stacks) == 1 else [np.concatenate(s) for s in zip(*stacks)]
        del stacks  # the fields' own stacks are not held while they are solved
        # on-on, the last variant, bounds the others
        try:
            grounds = eigensolve_general(blocks, hermitian, basis.sectors, bound=k - 1)
        except ArithmeticError:
            if len(taus) > 1:  # field by field: the earliest failing one raises
                for i in range(0, len(blocks[0]), k):
                    field = [b[i:i + k] for b in blocks]
                    eigensolve_general(field, hermitian, basis.sectors, bound=k - 1)
            raise
        del blocks  # not held while the caller reads the grounds
        for i, tau in enumerate(taus):
            for (name, _, _), ground in zip(variants, grounds[i * k:(i + 1) * k]):
                yield tau, name, ground

    for tau in taus:
        tau0, tau1 = cfg.split_tau(tau)
        try:
            stack = assemble(tau0, tau1, basis, variants)
        except ArithmeticError:  # an earlier field's refusal comes first
            yield from solve_chunk()
            raise
        if tau1 == 0.0:
            yield from solve_chunk()
            solved = eigensolve(stack, basis.sectors)
            del stack  # not held while the caller reads the grounds
            for name, vc, _ in variants:
                yield tau, name, solved[vc - first]
            continue
        field = sum(s.nbytes for s in stack)
        chunk.append((tau, stack))
        del stack  # held by the chunk alone
        if (len(chunk) + 1) * field > CHUNK_BYTES:
            yield from solve_chunk()
    yield from solve_chunk()


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    basis = _build_basis(cfg)
    scale = None
    if args.mev:  # the radii are in angstrom
        scale = energy_scale_mev(cfg.alpha * cfg.major_radius * 1e-10)
    out = Path(cfg.out_dir) / f"sweep_{cfg.orientation}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = ["tau,variant,eps0,eps0_physical,nu_dominant"]
    if scale is not None:
        lines[0] += ",e_mev"
    for tau, name, ground in _field_grounds(cfg, basis, cfg.taus(), len(VARIANTS)):
        eps0, comp = ground.eps0, ground_state_composition(ground.vector, basis)
        row = f"{tau:.12g},{name},{eps0:.12g},{-eps0:.12g},{comp.dominant_nu()}"
        if scale is not None:
            e_mev = -eps0 * scale
            if not math.isfinite(e_mev):
                raise OverflowError(f"tau = {tau:g} is out of range: "
                                    "its energy in meV is not finite")
            row += f",{e_mev:.12g}"
        lines.append(row)
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return EXIT_OK


def cmd_table(args: argparse.Namespace) -> int:
    taus = args.tau if args.tau else [0.0, 1.0, 2.0]
    if not all(math.isfinite(tau) for tau in taus):
        raise ConfigError(f"--tau values must be finite, got {taus}")
    cfg = _load_config(args)
    basis = _build_basis(cfg)
    json_dir = Path(args.json_out).parent if args.json_out else None
    if json_dir is not None and not json_dir.is_dir():  # fail before any solve
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), str(json_dir))
    # solved tau by tau, one assembly each, and reported variant by variant
    rows: dict[str, list[tuple[dict, str]]] = {name: [] for name, _, _ in VARIANTS}
    for tau, name, ground in _field_grounds(cfg, basis, taus, len(VARIANTS)):
        eps0, comp = ground.eps0, ground_state_composition(ground.vector, basis)
        row = {
            "variant": name,
            "tau": tau,
            "eps0": eps0,
            "composition": [
                {"kind": k, "n": n, "m": m, "re": a}
                for k, n, m, a in comp.real_combinations()
            ],
        }
        fmt = "+.6f" if abs(eps0) < 1e6 else "+.6e"  # not ~300 digits at 1e150
        text = f"{name:7s} tau={tau:<4g} eps0={eps0:{fmt}}  {comp.format_text()}"
        rows[name].append((row, text))
    ordered = [entry for entries in rows.values() for entry in entries]
    report = {"orientation": cfg.orientation, "rows": [row for row, _ in ordered]}
    text_lines = [text for _, text in ordered]
    if args.json_out:  # written first: a reader may stop before the rows end
        Path(args.json_out).write_text(json.dumps(report, indent=2))
        text_lines.append(f"wrote {args.json_out}")
    print("\n".join(text_lines))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    grid = GridSpec(args.n_theta, args.n_phi)
    if args.refine:  # refuse an oversized refinement grid before any solve
        GridSpec(2 * args.n_theta, args.n_phi)
    cfg = _load_config(args)
    basis = _build_basis(cfg)
    failures = 0
    # tau = 0 is the same field in every orientation: solve each side once
    eps0: dict[FieldConfig, tuple[float, float]] = {}
    for orientation in ("axial", "tilted", "in_plane"):
        ocfg = dataclasses.replace(cfg, orientation=orientation)
        for tau in (0.0, 1.0, 2.0):
            field = FieldConfig(*ocfg.split_tau(tau))
            if field not in eps0:
                # only on-on, which is Hermitian, is compared, on the printed path
                [(_, _, basis_ground)] = _field_grounds(ocfg, basis, (tau,), 1)
                grid_ground = grid_solve(cfg.alpha, field, grid, refine=args.refine)
                eps0[field] = basis_ground.eps0, grid_ground.eps0
            eps_basis, eps_grid = eps0[field]
            diff = abs(eps_basis - eps_grid)
            tol = max(1e-3, 1e-3 * abs(eps_basis))
            ok = diff <= tol
            failures += not ok
            print(
                f"{'PASS' if ok else 'FAIL'} {orientation:9s} tau={tau:g} "
                f"basis={eps_basis:+.8f} grid={eps_grid:+.8f} "
                f"|diff|={diff:.2e} tol={tol:.2e} margin={diff / tol:.3g}"
            )
    if failures:
        print(f"{failures} verification point(s) failed")
        return EXIT_VERIFY
    print("all verification points passed")
    return EXIT_OK


def cmd_basis_dump(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    print(_build_basis(cfg).to_json())
    return EXIT_OK


def cmd_tesla(args: argparse.Namespace) -> int:
    radius = _load_config(args).major_radius
    # major_radius is interpreted in angstrom for the conversion
    tau = tau_from_tesla(args.field_tesla, radius * 1e-10)
    print(f"tau = {tau:.6g} for B = {args.field_tesla:g} T at R = "
          f"{radius:g} angstrom (tau = e R^2 B / hbar)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torusmag", description=__doc__.splitlines()[0]
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="INI config file")

    def orientation(p: argparse.ArgumentParser) -> None:
        p.add_argument("--orientation", choices=["axial", "tilted", "in_plane"])

    p_sweep = sub.add_parser("sweep", help="ground eigenvalue vs tau, CSV")
    common(p_sweep)
    orientation(p_sweep)
    p_sweep.add_argument("--tau-max", type=float, dest="tau_stop")
    p_sweep.add_argument("--tau-step", type=float)
    p_sweep.add_argument("--out", dest="out_dir", help="output directory")
    p_sweep.add_argument(
        "--mev", action="store_true", help="append a meV energy column"
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_table = sub.add_parser("table", help="ground-state composition grid")
    common(p_table)
    orientation(p_table)
    p_table.add_argument("--tau", type=float, action="append")
    p_table.add_argument("--json-out")
    p_table.set_defaults(func=cmd_table)

    p_verify = sub.add_parser("verify", help="compare against the grid oracle")
    common(p_verify)
    p_verify.add_argument("--n-theta", type=int, default=64)
    p_verify.add_argument("--n-phi", type=int, default=32)
    p_verify.add_argument("--refine", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_dump = sub.add_parser("basis-dump", help="print basis coefficients")
    common(p_dump)
    p_dump.set_defaults(func=cmd_basis_dump)

    p_tesla = sub.add_parser("tesla", help="convert a field in tesla to tau")
    common(p_tesla)
    p_tesla.add_argument("field_tesla", type=float)
    p_tesla.set_defaults(func=cmd_tesla)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error; we use 1
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        code = args.func(args)
        sys.stdout.flush()  # a reader that stopped shows here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader stopped: exit as a shell reports a SIGPIPE, with
        # stdout on devnull so that the flush at exit cannot fail again
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithmeticError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
