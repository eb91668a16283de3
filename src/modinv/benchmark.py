"""Seeded workload generation and comparative measurement.

Every measured result is verified before it contributes to the
statistics; iteration and operation columns are deterministic in the
workload seed, wall time is not.
"""

from __future__ import annotations

import io
import math
import random
import time
from collections.abc import Sequence

from .core import (
    AlgorithmId,
    DomainError,
    InternalConsistencyError,
    ModPair,
    OpCounts,
    _record,
    scan_plan,
    verify_inverse,
)


RANDOM_COPRIME = "random_coprime"

# Small public exponents conventionally favoured for public keys.
SMALL_E_PRESET = (3, 5, 17, 257, 65537)


@_record
class WorkloadSpec:
    n_bits: int
    samples: int
    e_mode: str | tuple  # RANDOM_COPRIME or a tuple of fixed e values
    seed: int

    def __init__(self, n_bits: int, samples: int, e_mode: str | tuple, seed: int):
        if n_bits < 2:
            raise DomainError(f"n_bits must be >= 2, got {n_bits}")
        if samples < 1:
            raise DomainError(f"samples must be >= 1, got {samples}")
        if e_mode != RANDOM_COPRIME:
            if not (
                isinstance(e_mode, (tuple, list))
                and e_mode
                and all(isinstance(e, int) and e >= 2 for e in e_mode)
            ):
                raise DomainError(
                    f"e_mode must be {RANDOM_COPRIME!r} or a list of ints >= 2, got {e_mode!r}"
                )
            e_mode = tuple(e_mode)
        vars(self).update(n_bits=n_bits, samples=samples, e_mode=e_mode, seed=seed)

    @property
    def e_mode_label(self) -> str:
        if self.e_mode == RANDOM_COPRIME:
            return RANDOM_COPRIME
        return "fixed:" + ";".join(str(e) for e in self.e_mode)


_MAX_RESAMPLES = 10000


def generate_workload(spec: WorkloadSpec) -> list:
    """Deterministic list of exactly spec.samples coprime pairs."""
    rng = random.Random(spec.seed)
    lo, hi = 1 << (spec.n_bits - 1), 1 << spec.n_bits
    pairs = []
    fixed = None if spec.e_mode == RANDOM_COPRIME else spec.e_mode
    for j in range(spec.samples):
        for _attempt in range(_MAX_RESAMPLES):
            n = rng.randrange(lo, hi)
            if fixed is None:
                if n == 2:
                    continue
                e = rng.randrange(2, n)
                if math.gcd(e, n) == 1:
                    pairs.append(ModPair(e, n))
                    break
            else:
                e = fixed[j % len(fixed)]
                if e < n and math.gcd(e, n) == 1:
                    pairs.append(ModPair(e, n))
                    break
        else:
            raise DomainError(
                f"no coprime modulus found for sample {j} of {spec.e_mode_label}"
            )
    return pairs


@_record
class BenchRow:
    algorithm: str
    n_bits: int
    e_mode: str
    samples: int
    mean_iters: float
    median_iters: float
    max_iters: int
    mean_divs: float
    mean_mults: float
    mean_adds: float
    mean_subs: float
    mean_shifts: float
    mean_cmps: float
    mean_ns: float
    failures: int


@_record
class BenchReport:
    rows: tuple


# statistics.median's value, without the statistics module's import cost
def _median(values: list):
    s, mid = sorted(values), len(values) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def run_benchmark(
    pairs: Sequence[ModPair],
    algs: Sequence[AlgorithmId],
    spec: WorkloadSpec | None = None,
    repetitions: int = 5,
) -> BenchReport:
    """Measure each algorithm over the pairs; every result is verified.

    Wall time per (pair, algorithm) is the median of `repetitions` calls.
    A call that core's scan_plan says would refuse, on any pair, raises its
    refusal before the first timed call.
    """
    if not pairs or not algs:
        raise DomainError("need at least one pair and one algorithm")
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    for path in (scan_plan(alg.value, p.e, p.n)[0] for alg in algs for p in pairs):
        if isinstance(path, DomainError):
            raise path
    if spec is not None:
        n_bits = spec.n_bits
        e_mode = spec.e_mode_label
    else:
        n_bits = max(p.n.bit_length() for p in pairs)
        e_mode = "custom"
    rows = []
    for alg in algs:
        func = alg.func
        iters = []
        ops_total = OpCounts()
        times = []
        for p in pairs:
            samples_ns = []
            outcome = None
            for _ in range(repetitions):
                t0 = time.perf_counter_ns()
                outcome = func(p)
                samples_ns.append(time.perf_counter_ns() - t0)
            if not verify_inverse(p, outcome.d):
                raise InternalConsistencyError(
                    f"{alg} returned a non-inverse for (e={p.e}, n={p.n})"
                )
            iters.append(outcome.iterations)
            ops_total = ops_total + outcome.ops
            times.append(_median(samples_ns))
        count = len(pairs)
        rows.append(
            BenchRow(
                algorithm=alg.value,
                n_bits=n_bits,
                e_mode=e_mode,
                samples=count,
                mean_iters=sum(iters) / count,
                median_iters=float(_median(iters)),
                max_iters=max(iters),
                mean_divs=ops_total.divisions / count,
                mean_mults=ops_total.multiplications / count,
                mean_adds=ops_total.additions / count,
                mean_subs=ops_total.subtractions / count,
                mean_shifts=ops_total.shifts / count,
                mean_cmps=ops_total.comparisons / count,
                mean_ns=sum(times) / count,
                failures=0,
            )
        )
    return BenchReport(rows=tuple(rows))


CSV_HEADER = ",".join(BenchRow.__match_args__)


def emit_report(r: BenchReport, format: str = "csv") -> str:
    """Serialize a report, one column per BenchRow field in declaration
    order; JSON writes the big integer max_iters as a decimal string."""
    if format == "csv":
        import csv

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(vars(row).values() for row in r.rows)
        return buf.getvalue()
    if format == "json":
        import json

        rows = [{**vars(row), "max_iters": str(row.max_iters)} for row in r.rows]
        return json.dumps({"rows": rows})
    raise DomainError(f"unknown report format: {format!r}")
