import math

import pytest

from modinv import AlgorithmId, WorkloadSpec, emit_report, generate_workload, parse_report, run_benchmark
from modinv.benchmark import CSV_HEADER, RANDOM_COPRIME, SMALL_E_PRESET
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

    def test_float_algorithm_rejected(self):
        spec = WorkloadSpec(n_bits=8, samples=2, e_mode=RANDOM_COPRIME, seed=0)
        with pytest.raises(DomainError):
            run_benchmark(generate_workload(spec), [AlgorithmId.FFIM_FLOAT], spec=spec)

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
        report = self._report()
        csv_text = emit_report(report, "csv")
        json_text = emit_report(parse_report(csv_text, "csv"), "json")
        assert emit_report(parse_report(json_text, "json"), "csv") == csv_text

    def test_json_big_ints_as_strings(self):
        import json

        obj = json.loads(emit_report(self._report(), "json"))
        assert all(isinstance(row["max_iters"], str) for row in obj["rows"])

    def test_unknown_format(self):
        with pytest.raises(DomainError):
            emit_report(self._report(), "xml")

    @pytest.mark.parametrize("text,format", [
        ("", "csv"),
        (CSV_HEADER + "\neuclid,10\n", "csv"),
        (CSV_HEADER + "\neuclid,10,random_coprime,5" + ",x" * 11 + "\n", "csv"),
        ('{"rows": [{"algorithm": "euclid"}]}', "json"),
        ("not json", "json"),
    ], ids=["empty", "short_row", "non_numeric_cell", "missing_key", "not_json"])
    def test_malformed_report_raises_domain_error(self, text, format):
        with pytest.raises(DomainError):
            parse_report(text, format)
