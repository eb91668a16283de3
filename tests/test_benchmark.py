import csv
import io
import json
import math

import pytest

from modinv import AlgorithmId, ModPair, WorkloadSpec, emit_report, generate_workload, run_benchmark
from modinv.benchmark import (
    CSV_HEADER,
    RANDOM_COPRIME,
    SMALL_E_PRESET,
    BenchReport,
    BenchRow,
)
from modinv.core import DomainError

FAST_ALGS = (AlgorithmId.EUCLID, AlgorithmId.STEIN, AlgorithmId.GORDON)
SCAN_ALGS = (AlgorithmId.BAGHDAD, AlgorithmId.FFIM_EXACT)


class TestGenerateWorkload:
    def test_deterministic(self):
        spec = WorkloadSpec(n_bits=16, samples=25, e_mode=RANDOM_COPRIME, seed=9)
        assert generate_workload(spec) == generate_workload(spec)

    def test_bounds_and_coprimality(self):
        spec = WorkloadSpec(n_bits=8, samples=5, e_mode=RANDOM_COPRIME, seed=1)
        pairs = generate_workload(spec)
        assert len(pairs) == 5
        for p in pairs:
            assert 128 <= p.n < 256
            assert math.gcd(p.e, p.n) == 1

    def test_two_bit_moduli_skip_n_two(self):
        # n is 2 or 3, and n = 2 leaves no e in [2, n): only (2, 3) remains
        spec = WorkloadSpec(n_bits=2, samples=8, e_mode=RANDOM_COPRIME, seed=0)
        assert generate_workload(spec) == [ModPair(2, 3)] * 8

    def test_fixed_mode(self):
        spec = WorkloadSpec(n_bits=6, samples=3, e_mode=(7,), seed=4)
        pairs = generate_workload(spec)
        assert all(p.e == 7 for p in pairs)

    def test_fixed_mode_cycles_list(self):
        spec = WorkloadSpec(n_bits=20, samples=10, e_mode=SMALL_E_PRESET, seed=4)
        pairs = generate_workload(spec)
        assert [p.e for p in pairs[:5]] == list(SMALL_E_PRESET)

    def test_invalid_specs(self):
        with pytest.raises(DomainError):
            WorkloadSpec(n_bits=1, samples=5, e_mode=RANDOM_COPRIME, seed=0)
        with pytest.raises(DomainError):
            WorkloadSpec(n_bits=8, samples=0, e_mode=RANDOM_COPRIME, seed=0)
        with pytest.raises(DomainError):
            WorkloadSpec(n_bits=8, samples=5, e_mode=(1,), seed=0)
        for e_mode in ("random", 5, (3, "5"), (), [2.5]):
            with pytest.raises(DomainError, match="e_mode"):
                WorkloadSpec(n_bits=8, samples=5, e_mode=e_mode, seed=0)
        assert WorkloadSpec(n_bits=8, samples=5, e_mode=[3, 5], seed=0).e_mode == (3, 5)


class TestRunBenchmark:
    def test_rows_and_verification(self):
        spec = WorkloadSpec(n_bits=12, samples=10, e_mode=RANDOM_COPRIME, seed=3)
        report = run_benchmark(generate_workload(spec), FAST_ALGS, spec=spec, repetitions=1)
        assert len(report.rows) == 3
        for row in report.rows:
            assert row.failures == 0
            assert row.samples == 10

    def test_non_timing_columns_deterministic(self):
        spec = WorkloadSpec(n_bits=12, samples=10, e_mode=RANDOM_COPRIME, seed=3)
        pairs = generate_workload(spec)
        r1 = run_benchmark(pairs, FAST_ALGS, spec=spec, repetitions=1)
        r2 = run_benchmark(pairs, FAST_ALGS, spec=spec, repetitions=1)
        for a, b in zip(r1.rows, r2.rows):
            assert (a.mean_iters, a.median_iters, a.max_iters) == (
                b.mean_iters,
                b.median_iters,
                b.max_iters,
            )
            assert (a.mean_divs, a.mean_adds, a.mean_cmps) == (
                b.mean_divs,
                b.mean_adds,
                b.mean_cmps,
            )

    def test_empty_inputs_refused(self):
        pairs = generate_workload(WorkloadSpec(n_bits=8, samples=2, e_mode=RANDOM_COPRIME, seed=0))
        with pytest.raises(DomainError, match="at least one pair"):
            run_benchmark([], FAST_ALGS)
        with pytest.raises(DomainError, match="at least one pair"):
            run_benchmark(pairs, [])
        with pytest.raises(DomainError, match="repetitions must be >= 1"):
            run_benchmark(pairs, FAST_ALGS, repetitions=0)

    def test_log_algorithms_scale_with_bits(self):
        # mean iterations grow at most linearly in the bit length
        means = {}
        for bits in (8, 16, 32, 64):
            spec = WorkloadSpec(n_bits=bits, samples=40, e_mode=RANDOM_COPRIME, seed=17)
            report = run_benchmark(generate_workload(spec), FAST_ALGS, spec=spec, repetitions=1)
            for row in report.rows:
                means.setdefault(row.algorithm, {})[bits] = row.mean_iters
        for algorithm, by_bits in means.items():
            for lo, hi in ((8, 16), (16, 32), (32, 64)):
                growth = by_bits[hi] / by_bits[lo]
                assert growth <= 2.5, (algorithm, lo, hi, growth)

    def test_scan_algorithms_scale_with_e(self):
        # random e drives iteration counts far beyond the small-e preset
        random_spec = WorkloadSpec(n_bits=32, samples=30, e_mode=RANDOM_COPRIME, seed=23)
        fixed_spec = WorkloadSpec(n_bits=32, samples=30, e_mode=(3, 5, 17), seed=23)
        random_report = run_benchmark(
            generate_workload(random_spec), SCAN_ALGS, spec=random_spec, repetitions=1
        )
        fixed_report = run_benchmark(
            generate_workload(fixed_spec), SCAN_ALGS, spec=fixed_spec, repetitions=1
        )
        for rnd, fixed in zip(random_report.rows, fixed_report.rows):
            assert rnd.mean_iters > 100 * max(fixed.mean_iters, 1.0), rnd.algorithm


# A hand-built report whose cells reach the formats' edge cases: an integer
# past 64 bits, inf, -0.0, a subnormal, a repeating fraction and a fixed-e
# label with its separator.
PINNED_REPORT = BenchReport(rows=(
    BenchRow("stein", 2048, "fixed:3;5", 7, 1 / 3, -0.0, 10**40, 1e-320, 0.0, 2.5,
             1e300, 123456789.125, 0.1, math.inf, 0),
    BenchRow("euclid", 64, "random_coprime", 1, 19.0, 19.0, 19, 19.0, 0.0, 0.0,
             0.0, 0.0, 20.0, 1500.0, 2),
))
PINNED_CSV = (
    "algorithm,n_bits,e_mode,samples,mean_iters,median_iters,max_iters,mean_divs,"
    "mean_mults,mean_adds,mean_subs,mean_shifts,mean_cmps,mean_ns,failures\n"
    "stein,2048,fixed:3;5,7,0.3333333333333333,-0.0,"
    "10000000000000000000000000000000000000000,1e-320,0.0,2.5,1e+300,"
    "123456789.125,0.1,inf,0\n"
    "euclid,64,random_coprime,1,19.0,19.0,19,19.0,0.0,0.0,0.0,0.0,20.0,1500.0,2\n"
)
PINNED_JSON = (
    '{"rows": [{"algorithm": "stein", "n_bits": 2048, "e_mode": "fixed:3;5", '
    '"samples": 7, "mean_iters": 0.3333333333333333, "median_iters": -0.0, '
    '"max_iters": "10000000000000000000000000000000000000000", "mean_divs": 1e-320, '
    '"mean_mults": 0.0, "mean_adds": 2.5, "mean_subs": 1e+300, '
    '"mean_shifts": 123456789.125, "mean_cmps": 0.1, "mean_ns": Infinity, '
    '"failures": 0}, {"algorithm": "euclid", "n_bits": 64, '
    '"e_mode": "random_coprime", "samples": 1, "mean_iters": 19.0, '
    '"median_iters": 19.0, "max_iters": "19", "mean_divs": 19.0, "mean_mults": 0.0, '
    '"mean_adds": 0.0, "mean_subs": 0.0, "mean_shifts": 0.0, "mean_cmps": 20.0, '
    '"mean_ns": 1500.0, "failures": 2}]}'
)


class TestEmitReport:
    def _report(self):
        spec = WorkloadSpec(n_bits=10, samples=5, e_mode=RANDOM_COPRIME, seed=8)
        return run_benchmark(generate_workload(spec), FAST_ALGS[:2], spec=spec, repetitions=1)

    def test_csv_header_exact(self):
        text = emit_report(self._report(), "csv")
        assert text.splitlines()[0] == CSV_HEADER

    def test_row_count(self):
        text = emit_report(self._report(), "csv")
        assert len(text.splitlines()) == 1 + 2

    def test_round_trip_identity(self):
        # both formats carry the same cells: each CSV cell is its JSON value through str
        spec = WorkloadSpec(n_bits=10, samples=5, e_mode=RANDOM_COPRIME, seed=8)
        real = run_benchmark(generate_workload(spec), tuple(AlgorithmId), spec=spec, repetitions=1)
        for report in (real, PINNED_REPORT):
            csv_rows = list(csv.DictReader(io.StringIO(emit_report(report, "csv"))))
            json_rows = json.loads(emit_report(report, "json"))["rows"]
            assert csv_rows == [{f: str(v) for f, v in row.items()} for row in json_rows]

    @pytest.mark.parametrize("format,expected", [("csv", PINNED_CSV), ("json", PINNED_JSON)])
    def test_exact_bytes(self, format, expected):
        assert emit_report(PINNED_REPORT, format) == expected

    def test_json_big_ints_as_strings(self):
        obj = json.loads(emit_report(self._report(), "json"))
        assert all(isinstance(row["max_iters"], str) for row in obj["rows"])

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit_report(self._report(), "xml")
