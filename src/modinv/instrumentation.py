"""Step tracing and the average-division-count model.

Traces record exact per-iteration variable snapshots (integers or
rationals) so the worked tables of each algorithm can be reproduced and
replayed.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass

from . import core
from .core import (
    DomainError,
    InverseOutcome,
    ModPair,
    baghdad_inverse,
    euclid_inverse,
    ffim_exact_inverse,
    gordon_inverse,
    sequential_inverse,
    stein_inverse,
)


class AlgorithmId(enum.Enum):
    SEQUENTIAL = "sequential"
    EUCLID = "euclid"
    STEIN = "stein"
    GORDON = "gordon"
    BAGHDAD = "baghdad"
    FFIM_EXACT = "ffim_exact"
    FFIM_FLOAT = "ffim_float"

    def __str__(self) -> str:
        return self.value


# The exact algorithms, dispatchable by id. The float variant lives in
# the float error lab and is deliberately absent here.
ALGORITHM_FUNCS = {
    AlgorithmId.SEQUENTIAL: sequential_inverse,
    AlgorithmId.EUCLID: euclid_inverse,
    AlgorithmId.STEIN: stein_inverse,
    AlgorithmId.GORDON: gordon_inverse,
    AlgorithmId.BAGHDAD: baghdad_inverse,
    AlgorithmId.FFIM_EXACT: ffim_exact_inverse,
}

EXACT_ALGORITHMS = tuple(ALGORITHM_FUNCS)

MAX_TRACE_ROWS = 10**6


class TraceTooLongError(RuntimeError):
    """Tracing refused: the run would record more than MAX_TRACE_ROWS rows."""


@dataclass(frozen=True)
class StepTrace:
    algorithm: AlgorithmId
    headers: tuple
    rows: tuple
    final: InverseOutcome


_HEADERS = {
    AlgorithmId.SEQUENTIAL: core.SEQUENTIAL_HEADERS,
    AlgorithmId.EUCLID: core.EUCLID_HEADERS,
    AlgorithmId.STEIN: core.STEIN_HEADERS,
    AlgorithmId.GORDON: core.GORDON_HEADERS,
    AlgorithmId.BAGHDAD: core.BAGHDAD_HEADERS,
    AlgorithmId.FFIM_EXACT: core.FFIM_EXACT_HEADERS,
}


def traced_inverse(alg: AlgorithmId, p: ModPair):
    """Run an algorithm with per-iteration recording.

    Returns (outcome, trace); the outcome is identical to the untraced
    operation's. Refuses with TraceTooLongError as soon as the run would
    record more than MAX_TRACE_ROWS rows.
    """
    if alg not in ALGORITHM_FUNCS:
        raise DomainError(f"algorithm {alg} cannot be traced here")
    refusal = f"trace of {alg} would exceed {MAX_TRACE_ROWS} rows; run untraced instead"
    rows = []

    def sink(row):
        if len(rows) == MAX_TRACE_ROWS:
            raise TraceTooLongError(refusal)
        rows.append(row)

    outcome = ALGORITHM_FUNCS[alg](p, sink)
    # The closed-form path records no rows; it only runs past
    # LITERAL_SCAN_LIMIT steps, which is more than MAX_TRACE_ROWS.
    if outcome.iterations > len(rows):
        raise TraceTooLongError(refusal)
    return outcome, StepTrace(alg, _HEADERS[alg], tuple(rows), outcome)


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

