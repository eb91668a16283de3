"""Seeded workload generation and comparative measurement.

Every measured result is verified before it contributes to the
statistics; iteration and operation columns are deterministic in the
workload seed, wall time is not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import statistics
import time
from dataclasses import asdict, astuple, dataclass
from typing import Optional, Sequence, Union, get_type_hints

from .core import (
    SEQUENTIAL_BUDGET,
    AlgorithmId,
    DomainError,
    InternalConsistencyError,
    ModPair,
    OpCounts,
    ScanBudgetError,
    _scan_closed,
    verify_inverse,
)


class GenerationError(DomainError):
    """Workload generation could not find a coprime companion."""


class BenchmarkError(InternalConsistencyError):
    """A measured result failed verification."""


RANDOM_COPRIME = "random_coprime"

# Small public exponents conventionally favoured for public keys.
SMALL_E_PRESET = (3, 5, 17, 257, 65537)


@dataclass(frozen=True)
class WorkloadSpec:
    n_bits: int
    samples: int
    e_mode: Union[str, tuple]  # RANDOM_COPRIME or a tuple of fixed e values
    seed: int

    def __post_init__(self):
        if self.n_bits < 2:
            raise DomainError(f"n_bits must be >= 2, got {self.n_bits}")
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if self.e_mode != RANDOM_COPRIME:
            fixed = self.e_mode
            if not (
                isinstance(fixed, (tuple, list))
                and fixed
                and all(isinstance(e, int) and e >= 2 for e in fixed)
            ):
                raise DomainError(
                    f"e_mode must be {RANDOM_COPRIME!r} or a list of ints >= 2, got {fixed!r}"
                )
            object.__setattr__(self, "e_mode", tuple(fixed))

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
            raise GenerationError(
                f"no coprime modulus found for sample {j} of {spec.e_mode_label}"
            )
    return pairs


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BenchReport:
    rows: tuple


def run_benchmark(
    pairs: Sequence[ModPair],
    algs: Sequence[AlgorithmId],
    spec: Optional[WorkloadSpec] = None,
    repetitions: int = 5,
) -> BenchReport:
    """Measure each algorithm over the pairs; every result is verified.

    Wall time per (pair, algorithm) is the median of `repetitions` calls.
    A sequential scan that would pass SEQUENTIAL_BUDGET on any pair is
    refused before the first timed call.
    """
    if not pairs or not algs:
        raise DomainError("need at least one pair and one algorithm")
    if AlgorithmId.FFIM_FLOAT in algs:
        raise DomainError("the float scan is measured in the float error lab")
    if repetitions < 1:
        raise DomainError("repetitions must be >= 1")
    if AlgorithmId.SEQUENTIAL in algs and any(
        p.n > SEQUENTIAL_BUDGET and _scan_closed(p.e - 1, p.e, p.n) > SEQUENTIAL_BUDGET
        for p in pairs
    ):
        raise ScanBudgetError()
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
                raise BenchmarkError(
                    f"{alg} returned a non-inverse for (e={p.e}, n={p.n})"
                )
            iters.append(outcome.iterations)
            ops_total = ops_total + outcome.ops
            times.append(statistics.median(samples_ns))
        count = len(pairs)
        rows.append(
            BenchRow(
                algorithm=alg.value,
                n_bits=n_bits,
                e_mode=e_mode,
                samples=count,
                mean_iters=sum(iters) / count,
                median_iters=float(statistics.median(iters)),
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


CSV_HEADER = ",".join(get_type_hints(BenchRow))


def emit_report(r: BenchReport, format: str = "csv") -> str:
    """Serialize a report, one column per BenchRow field in declaration
    order; JSON writes the big integer max_iters as a decimal string."""
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        writer.writerows(astuple(row) for row in r.rows)
        return buf.getvalue()
    if format == "json":
        rows = [{**asdict(row), "max_iters": str(row.max_iters)} for row in r.rows]
        return json.dumps({"rows": rows})
    raise DomainError(f"unknown report format: {format!r}")


def parse_report(text: str, format: str = "csv") -> BenchReport:
    """Inverse of emit_report for both formats; a malformed report raises
    DomainError."""
    if format not in ("csv", "json"):
        raise DomainError(f"unknown report format: {format!r}")
    columns = get_type_hints(BenchRow)  # each column's parser: str, int or float
    try:
        if format == "csv":
            reader = csv.reader(io.StringIO(text))
            if next(reader, None) != list(columns):
                raise ValueError("unexpected CSV header")
            # a row with too few or too many cells raises ValueError
            records = (dict(zip(columns, record, strict=True)) for record in reader)
        else:
            records = json.loads(text)["rows"]
        rows = tuple(
            BenchRow(**{f: parse(obj[f]) for f, parse in columns.items()}) for obj in records
        )
    except (csv.Error, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed {format} report: {exc!r}") from exc
    return BenchReport(rows=rows)
