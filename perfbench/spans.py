"""In-memory spans around the calls into torusmag's layers.

A span is ``[id, name, start, end, parent, run]``: ``parent`` is the id of
the enclosing span (or None) and ``run`` numbers the CLI call that caused
it.  Spans are recorded by wrapping functions at the names the program
looks them up by, kept in memory, and written out when the traced process
ends.  Self time is a span's duration minus the part of its interval that
its child spans cover.
"""

from __future__ import annotations

import importlib
import statistics
import time

# (module, attribute, span name).  The CLI resolves these names in its own
# module globals at call time, so wrapping them there sees every call the
# commands make; the oracle's dense solve is wrapped where the oracle binds
# it.
TARGETS = (
    ("torusmag.cli", "main", "cli.main"),
    ("torusmag.cli", "gram_schmidt_basis", "basis.gram_schmidt_basis"),
    ("torusmag.cli", "assemble", "hamiltonian.assemble"),
    ("torusmag.cli", "eigensolve", "solver.eigensolve"),
    ("torusmag.cli", "eigensolve_general", "solver.eigensolve_general"),
    ("torusmag.cli", "ground_state_composition", "solver.ground_state_composition"),
    ("torusmag.cli", "grid_solve", "oracle.grid_solve"),
    ("torusmag.oracle", "eigh", "oracle.eigh"),
)
SPAN_NAMES = tuple(name for _, _, name in TARGETS)


class Tracer:
    """Records spans for one process; ``run`` is set by the caller per call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run = 0
        self.missing: list[str] = []
        # largest matrix handed to the oracle's dense solve: (dim, bytes)
        self.matrix = (0, 0)
        self._stack: list[int] = []

    def install(self) -> None:
        """Wrap every target; a target that no longer exists is missing."""
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            setattr(module, attr, self._wrap(fn, name))

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if name == "oracle.eigh" and args and hasattr(args[0], "nbytes"):
                a = args[0]
                self.matrix = max(self.matrix, (int(a.shape[0]), int(a.nbytes)))
            span = [len(self.spans), name, 0.0, 0.0,
                    self._stack[-1] if self._stack else None, self.run]
            self.spans.append(span)
            self._stack.append(span[0])
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()

        traced.__wrapped__ = fn
        return traced

    def dump(self) -> dict:
        return {"spans": self.spans, "missing": self.missing,
                "matrix": list(self.matrix)}


def merge(dumps: list[dict]) -> dict:
    """Join the span dumps of several processes, renumbering span ids."""
    spans: list[list] = []
    missing: set[str] = set()
    matrix = (0, 0)
    for dump in dumps:
        base = len(spans)
        for sid, name, start, end, parent, run in dump["spans"]:
            spans.append([sid + base, name, start, end,
                          None if parent is None else parent + base, run])
        missing.update(dump["missing"])
        matrix = max(matrix, tuple(dump["matrix"]))
    return {"spans": spans, "missing": sorted(missing), "matrix": list(matrix)}


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for sid, _, start, end, _, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def percentile(values: list[float], pct: int) -> float:
    """Inclusive-method percentile of the samples; 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(dump: dict, traced_wall_s: float) -> dict[str, float | None]:
    """Per-layer metrics from merged spans.

    A metric whose span was missing in the traced program is None, never 0.
    """
    spans = dump["spans"]
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {name: [] for name in SPAN_NAMES}
    self_s: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
    for span, own in zip(spans, selfs):
        durations[span[1]].append(span[3] - span[2])
        self_s[span[1]] += own
    missing = set(dump["missing"])

    def calls(name):
        return None if name in missing else len(durations[name])

    def busy(name):
        return None if name in missing else sum(durations[name])

    def p(name, pct, scale):
        return None if name in missing else percentile(durations[name], pct) * scale

    out: dict[str, float | None] = {
        "basis.gram_schmidt_basis.calls": calls("basis.gram_schmidt_basis"),
        "basis.gram_schmidt_basis.busy_s": busy("basis.gram_schmidt_basis"),
        "hamiltonian.assemble.calls": calls("hamiltonian.assemble"),
        "hamiltonian.assemble.busy_s": busy("hamiltonian.assemble"),
        "hamiltonian.assemble.p50_ms": p("hamiltonian.assemble", 50, 1e3),
        "hamiltonian.assemble.p99_ms": p("hamiltonian.assemble", 99, 1e3),
    }
    for name in ("solver.eigensolve", "solver.eigensolve_general"):
        out[name + ".calls"] = calls(name)
        out[name + ".busy_s"] = busy(name)
        out[name + ".p50_ms"] = p(name, 50, 1e3)
    hermitian, general = calls("solver.eigensolve"), calls("solver.eigensolve_general")
    if hermitian is None or general is None:
        out["solver.general_share"] = None
    else:
        out["solver.general_share"] = general / max(1, hermitian + general)
    out["solver.ground_state_composition.calls"] = calls("solver.ground_state_composition")
    out["solver.ground_state_composition.busy_s"] = busy("solver.ground_state_composition")
    out["oracle.grid_solve.calls"] = calls("oracle.grid_solve")
    out["oracle.grid_solve.busy_s"] = busy("oracle.grid_solve")
    out["oracle.grid_solve.p50_s"] = p("oracle.grid_solve", 50, 1.0)
    out["oracle.eigh.busy_s"] = busy("oracle.eigh")
    out["oracle.build_s"] = None if "oracle.grid_solve" in missing else self_s["oracle.grid_solve"]
    dim, nbytes = dump["matrix"]
    out["oracle.matrix_dim"] = None if "oracle.eigh" in missing else dim
    out["oracle.matrix_bytes_computed"] = None if "oracle.eigh" in missing else nbytes
    out["cli.self_s"] = None if "cli.main" in missing else self_s["cli.main"]
    # share of the traced wall time that the listed layers account for
    out["trace.coverage"] = sum(selfs) / traced_wall_s if traced_wall_s > 0 else 0.0
    return out

