"""Step tracing and the average-division-count model.

Traces record exact per-iteration variable snapshots (integers or
rationals) so the worked tables of each algorithm can be reproduced and
replayed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .core import EXACT_ALGORITHMS, AlgorithmId, DomainError, InverseOutcome, ModPair

# The exact algorithms' functions keyed by id: a view of core's table.
ALGORITHM_FUNCS = {alg: alg.func for alg in EXACT_ALGORITHMS}

MAX_TRACE_ROWS = 10**6


class TraceTooLongError(RuntimeError):
    """Tracing refused: the run would record more than MAX_TRACE_ROWS rows."""


@dataclass(frozen=True)
class StepTrace:
    algorithm: AlgorithmId
    headers: tuple
    rows: tuple
    final: InverseOutcome


def traced_inverse(alg: AlgorithmId, p: ModPair):
    """Run an algorithm with per-iteration recording.

    Returns (outcome, trace); the outcome is identical to the untraced
    operation's. Refuses with TraceTooLongError as soon as the run would
    record more than MAX_TRACE_ROWS rows.
    """
    if alg not in EXACT_ALGORITHMS:
        raise DomainError(f"algorithm {alg} cannot be traced here")
    refusal = f"trace of {alg} would exceed {MAX_TRACE_ROWS} rows; run untraced instead"
    rows = []

    def sink(row):
        if len(rows) == MAX_TRACE_ROWS:
            raise TraceTooLongError(refusal)
        rows.append(row)

    outcome = alg.func(p, sink)
    # The closed-form path records no rows; it only runs past
    # LITERAL_SCAN_LIMIT steps, which is more than MAX_TRACE_ROWS.
    if outcome.iterations > len(rows):
        raise TraceTooLongError(refusal)
    return outcome, StepTrace(alg, alg.headers, tuple(rows), outcome)


def knuth_expected_divisions(n: int) -> float:
    """Modelled average division count for the Euclid loop at modulus n."""
    if n < 2:
        raise DomainError(f"modulus must be >= 2, got {n}")
    return 0.843 * math.log2(n) + 1.47


def render_trace(t: StepTrace, format: str = "table") -> str:
    """Deterministic textual rendering of a trace."""
    if format == "json":
        payload = {
            "algorithm": t.algorithm.value,
            "headers": list(t.headers),
            "rows": [[str(v) for v in row] for row in t.rows],
            "d": str(t.final.d),
            "k": str(t.final.k),
            "iterations": t.final.iterations,
        }
        return json.dumps(payload)
    if format != "table":
        raise DomainError(f"unknown trace format: {format!r}")
    cells = [[str(v) for v in row] for row in t.rows]
    widths = [len(h) for h in t.headers]
    for row in cells:
        for j, c in enumerate(row):
            widths[j] = max(widths[j], len(c))
    lines = ["  ".join(h.rjust(w) for h, w in zip(t.headers, widths))]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    lines.append(
        f"d = {t.final.d}  k = {t.final.k}  iterations = {t.final.iterations}"
    )
    return "\n".join(lines)

