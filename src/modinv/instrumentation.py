"""Step tracing and the average-division-count model.

Traces record exact per-iteration variable snapshots (integers or
rationals) so the worked tables of each algorithm can be reproduced and
replayed.
"""

from __future__ import annotations

import math

from . import core
from .core import (
    EXACT_ALGORITHMS,  # re-exported: tests/test_golden.py imports it from here
    AlgorithmId,
    DomainError,
    InverseOutcome,
    ModPair,
    TraceTooLongError,
    _record,
)

# The algorithms' functions keyed by id, a view of core's table; kept because
# tests/test_golden.py imports it from here.
ALGORITHM_FUNCS = {alg: alg.func for alg in AlgorithmId}


@_record
class StepTrace:
    algorithm: AlgorithmId  # its headers lay out the rows
    rows: tuple
    final: InverseOutcome


def traced_inverse(alg: AlgorithmId, p: ModPair):
    """Run an algorithm with per-iteration recording.

    Returns (outcome, trace); the outcome is identical to the untraced
    operation's. Refuses with TraceTooLongError once the run would record
    more than core.MAX_TRACE_ROWS rows: the scans before their first row,
    the log-time loops at the row past the cap.
    """
    rows = []
    cap = core.MAX_TRACE_ROWS

    def sink(row):
        if len(rows) == cap:
            raise TraceTooLongError(alg.value, cap)
        rows.append(row)

    outcome = alg.func(p, sink)
    return outcome, StepTrace(alg, tuple(rows), outcome)


def knuth_expected_divisions(n: int) -> float:
    """Modelled average division count for the Euclid loop at modulus n."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return 0.843 * math.log2(n) + 1.47


def render_trace(t: StepTrace, format: str = "table") -> str:
    """Deterministic textual rendering of a trace."""
    if format == "json":
        import json  # here, so a table trace runs without it

        payload = {
            "algorithm": t.algorithm.value,
            "headers": list(t.algorithm.headers),
            "rows": [[str(v) for v in row] for row in t.rows],
            "d": str(t.final.d),
            "k": str(t.final.k),
            "iterations": t.final.iterations,
        }
        return json.dumps(payload)
    if format != "table":
        raise DomainError(f"unknown trace format: {format!r}")
    cells = [[str(v) for v in row] for row in t.rows]
    widths = [len(h) for h in t.algorithm.headers]
    for row in cells:
        for j, c in enumerate(row):
            widths[j] = max(widths[j], len(c))
    lines = ["  ".join(h.rjust(w) for h, w in zip(t.algorithm.headers, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    lines.append(
        f"d = {t.final.d}  k = {t.final.k}  iterations = {t.final.iterations}"
    )
    return "\n".join(lines)

