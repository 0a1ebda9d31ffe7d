"""Output checks of the benchmark, run outside the timed regions.

Each check compares what a CLI call produced with the reference stored in
``perfbench/reference`` (or, for ``verify``, with the command's own
PASS/FAIL verdicts) and returns how many operations failed.  A mismatch is
counted, never skipped.
"""

from __future__ import annotations

import re

EPS0_TOL = 1e-9

VERIFY_POINTS = frozenset(
    (orientation, tau)
    for orientation in ("axial", "tilted", "in_plane")
    for tau in ("0", "1", "2")
)
_VERIFY_LINE = re.compile(
    r"^(PASS|FAIL) +(\S+) +tau=(\S+) .*\|diff\|=(\S+) tol=(\S+)"
)


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def sweep_csv(rc: int, csv_text: str | None, reference: list[list]) -> int:
    """Failed points of one sweep CSV against its reference rows.

    ``reference`` rows are ``[tau, variant, eps0, nu_dominant]`` as the
    reference program printed them.  A row fails when it is missing, its
    eps0 is off by more than EPS0_TOL, or its nu_dominant differs; every
    extra row fails too.  A non-zero exit or a missing file fails all rows.
    """
    if rc != 0 or not csv_text:
        return len(reference)
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    try:
        col = {k: header.index(k) for k in ("tau", "variant", "eps0", "nu_dominant")}
    except ValueError:
        return len(reference)
    got: dict[tuple[float, str], list[str]] = {}
    extra = 0
    for line in lines[1:]:
        fields = line.split(",")
        tau = _number(fields[col["tau"]]) if len(fields) == len(header) else None
        if tau is None:
            extra += 1
            continue
        key = (round(tau, 9), fields[col["variant"]])
        extra += key in got
        got[key] = fields
    failed = 0
    for tau, variant, eps0, nu in reference:
        fields = got.pop((round(float(tau), 9), variant), None)
        value = None if fields is None else _number(fields[col["eps0"]])
        failed += (
            value is None
            or not abs(value - float(eps0)) <= EPS0_TOL
            or fields[col["nu_dominant"]] != str(nu)
        )
    return min(len(reference), failed + extra + len(got))


def verify_output(rc: int, stdout: str) -> tuple[int, float | None]:
    """(failed points, worst |diff|/tol) of one ``verify`` call.

    Each of the nine expected points needs a PASS line; a non-zero exit
    fails all nine.  The worst margin is taken over every parsed line.
    """
    verdicts: dict[tuple[str, str], str] = {}
    margins = []
    for line in stdout.splitlines():
        m = _VERIFY_LINE.match(line)
        if m:
            verdicts[(m[2], m[3])] = m[1]
            margins.append(float(m[4]) / float(m[5]))
    if rc != 0:
        failed = len(VERIFY_POINTS)
    else:
        failed = sum(verdicts.get(p) != "PASS" for p in VERIFY_POINTS)
    return failed, max(margins) if margins else None


def exact(rc: int, output: str, reference: str) -> int:
    """1 when a call exited non-zero or its output differs from the reference."""
    return int(rc != 0 or output != reference)
