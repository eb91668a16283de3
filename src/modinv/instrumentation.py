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
from fractions import Fraction

from .core import (
    DomainError,
    InternalConsistencyError,
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

# Algorithms whose worked tables carry an initialization row before the
# first iteration row.
ALGORITHMS_WITH_INIT_ROW = frozenset(
    {AlgorithmId.EUCLID, AlgorithmId.STEIN, AlgorithmId.GORDON}
)

MAX_TRACE_ROWS = 10**6


class TraceTooLongError(RuntimeError):
    """Tracing refused: the run would record more than MAX_TRACE_ROWS rows."""


@dataclass(frozen=True)
class StepTrace:
    algorithm: AlgorithmId
    headers: tuple
    rows: tuple
    final: InverseOutcome


class _RowSink:
    def __init__(self):
        self.rows = []

    def add(self, row):
        self.rows.append(tuple(row))
        if len(self.rows) > MAX_TRACE_ROWS:
            raise TraceTooLongError(
                f"trace would exceed {MAX_TRACE_ROWS} rows; run untraced instead"
            )


def _trace_sequential(p: ModPair, sink: _RowSink) -> int:
    e, n = p.e, p.n
    d = 1
    m = e
    sink.add((d, m))
    while m != 1:
        d += 1
        m += e
        if m >= n:
            m -= n
        sink.add((d, m))
    return d


def _trace_euclid(p: ModPair, sink: _RowSink) -> int:
    g, u = p.n, p.e
    i, v = 0, 1
    sink.add((g, u, i, v, 0, 0))
    while u > 0:
        q = g // u
        t = i - q * v
        g, u = u, g - q * u
        i, v = v, t
        sink.add((g, u, i, v, q, t))
    return i % p.n


def _trace_stein(p: ModPair, sink: _RowSink) -> int:
    e, n = p.e, p.n
    u1, u2, u3 = 1, 0, e
    v1, v2, v3 = n, 1 - e, n
    if e & 1:
        t1, t2, t3 = 0, -1, -n
    else:
        t1, t2, t3 = 1, 0, e
    sink.add((u1, u2, u3, v1, v2, v3, t1, t2, t3))
    while True:
        while t3 & 1 == 0:
            t3 >>= 1
            if t1 & 1 == 0 and t2 & 1 == 0:
                t1 >>= 1
                t2 >>= 1
            else:
                t1 = (t1 + n) >> 1
                t2 = (t2 - e) >> 1
        if t3 > 0:
            u1, u2, u3 = t1, t2, t3
        else:
            v1, v2, v3 = n - t1, -(e + t2), -t3
        t1, t2, t3 = u1 - v1, u2 - v2, u3 - v3
        if t1 < 0:
            t1 += n
            t2 -= e
        sink.add((u1, u2, u3, v1, v2, v3, t1, t2, t3))
        if t3 == 0:
            return u1 % n


def _trace_gordon(p: ModPair, sink: _RowSink) -> int:
    g, u = p.n, p.e
    i, v = 0, 1
    sink.add((g, u, i, v, 0))
    while u > 0:
        if u > g:
            g, u = u, g
            i, v = v, i
            sink.add((g, u, i, v, 0))
            continue
        s = -1
        t = u
        while t <= g:
            s += 1
            t <<= 1
        t >>= 1
        g, u = u, g - t
        i, v = v, i - (v << s)
        sink.add((g, u, i, v, 1 << s))
    return i % p.n


def _trace_baghdad(p: ModPair, sink: _RowSink) -> int:
    e, n = p.e, p.n
    num = 1
    while True:
        num += n
        if num % e == 0:
            sink.add((Fraction(num, e), "integer"))
            return (num // e) % n
        sink.add((Fraction(num, e), "fraction"))


def _trace_ffim(p: ModPair, sink: _RowSink) -> int:
    e, n = p.e, p.n
    if e == 1:
        return 1
    a = (n + 1) % e
    b = n % e
    if a == 0:
        return ((n + 1) // e) % n
    s_f = Fraction(a, e)
    d_f = Fraction(b, e)
    i = 1
    while True:
        r = Fraction(i * e - a, b)
        sink.add((i, s_f, d_f, r))
        if r.denominator == 1:
            return ((n * (r.numerator + 1) + 1) // e) % n
        i += 1


_TRACERS = {
    AlgorithmId.SEQUENTIAL: (("d", "e_d_mod_n"), _trace_sequential),
    AlgorithmId.EUCLID: (("g", "u", "i", "v", "q", "t"), _trace_euclid),
    AlgorithmId.STEIN: (
        ("u1", "u2", "u3", "v1", "v2", "v3", "t1", "t2", "t3"),
        _trace_stein,
    ),
    AlgorithmId.GORDON: (("g", "u", "i", "v", "q"), _trace_gordon),
    AlgorithmId.BAGHDAD: (("d", "result"), _trace_baghdad),
    AlgorithmId.FFIM_EXACT: (("i", "s_f", "d_f", "r"), _trace_ffim),
}


def traced_inverse(alg: AlgorithmId, p: ModPair):
    """Run an algorithm with per-iteration recording.

    Returns (outcome, trace); the outcome is identical to the untraced
    operation's.
    """
    if alg not in _TRACERS:
        raise DomainError(f"algorithm {alg} cannot be traced here")
    outcome = ALGORITHM_FUNCS[alg](p)
    expected_rows = outcome.iterations + (1 if alg in ALGORITHMS_WITH_INIT_ROW else 0)
    if expected_rows > MAX_TRACE_ROWS:
        raise TraceTooLongError(
            f"trace of {alg} for (e={p.e}, n={p.n}) would have {expected_rows} rows"
        )
    headers, tracer = _TRACERS[alg]
    sink = _RowSink()
    d = tracer(p, sink)
    if d != outcome.d or len(sink.rows) != expected_rows:
        raise InternalConsistencyError(
            f"traced run of {alg} diverged from the untraced result"
        )
    trace = StepTrace(
        algorithm=alg, headers=headers, rows=tuple(sink.rows), final=outcome
    )
    return outcome, trace


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


def parse_trace_json(text: str) -> dict:
    """Parse the JSON trace schema back into a plain dict."""
    return json.loads(text)
