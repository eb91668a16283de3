import json
import math
from fractions import Fraction

import pytest

from modinv import AlgorithmId, ModPair, knuth_expected_divisions, render_trace, traced_inverse
from modinv.core import SCAN_PREFIX, DomainError
from modinv.instrumentation import (
    ALGORITHM_FUNCS,
    EXACT_ALGORITHMS,
    TraceTooLongError,
)


class TestTracedInverse:
    def test_euclid_coefficient_column(self):
        _, trace = traced_inverse(AlgorithmId.EUCLID, ModPair(7, 60))
        assert [row[2] for row in trace.rows] == [0, 1, -8, 9, -17]
        assert trace.rows[0] == (60, 7, 0, 1, 0, 0)

    def test_baghdad_row_count_and_final_marker(self):
        _, trace = traced_inverse(AlgorithmId.BAGHDAD, ModPair(7, 60))
        assert len(trace.rows) == 5
        assert all(row[1] == "fraction" for row in trace.rows[:-1])
        assert trace.rows[-1] == (Fraction(43), "integer")

    def test_ffim_exact_r_values(self):
        _, trace = traced_inverse(AlgorithmId.FFIM_EXACT, ModPair(7, 60))
        assert [row[3] for row in trace.rows] == [
            Fraction(1, 2),
            Fraction(9, 4),
            Fraction(4),
        ]

    @pytest.mark.parametrize("alg", EXACT_ALGORITHMS)
    def test_row_count_matches_iterations(self, alg):
        outcome, trace = traced_inverse(alg, ModPair(17, 29))
        init = 1 if alg in {AlgorithmId.EUCLID, AlgorithmId.STEIN, AlgorithmId.GORDON} else 0
        assert len(trace.rows) == outcome.iterations + init

    @pytest.mark.parametrize("alg", EXACT_ALGORITHMS)
    def test_tracing_never_changes_results(self, alg):
        # all coprime pairs up to n = 60
        for n in range(2, 61):
            for e in range(1, n):
                if math.gcd(e, n) != 1:
                    continue
                p = ModPair(e, n)
                untraced = ALGORITHM_FUNCS[alg](p)
                outcome, trace = traced_inverse(alg, p)
                assert outcome == untraced
                assert trace.final == untraced

    def test_euclid_trace_replay(self):
        # each row must follow from the previous one under the division
        # step with coefficient update
        _, trace = traced_inverse(AlgorithmId.EUCLID, ModPair(123, 4567))
        for prev, cur in zip(trace.rows, trace.rows[1:]):
            g, u, i, v, _, _ = prev
            q = g // u
            t = i - q * v
            assert cur == (u, g - q * u, v, t, q, t)

    def test_ffim_trace_replay(self):
        _, trace = traced_inverse(AlgorithmId.FFIM_EXACT, ModPair(123, 4567))
        a = Fraction((4567 + 1) % 123, 123)
        b = Fraction(4567 % 123, 123)
        for idx, row in enumerate(trace.rows, start=1):
            assert row == (idx, a, b, (idx - a) / b)
        assert trace.rows[-1][3].denominator == 1

    def test_ffim_rows_share_s_f_and_d_f(self):
        # one Fraction each for s_f and d_f, not two new ones per row
        _, trace = traced_inverse(AlgorithmId.FFIM_EXACT, ModPair(123, 4567))
        assert len(trace.rows) > 2
        first = trace.rows[0]
        assert all(row[1] is first[1] and row[2] is first[2] for row in trace.rows)

    def test_euclid_opcount_consistency(self):
        outcome, trace = traced_inverse(AlgorithmId.EUCLID, ModPair(355, 613))
        assert outcome.ops.divisions == len(trace.rows) - 1

    def test_oversized_trace_refused(self):
        # sequential inverse of (3, n) with d close to n exceeds the cap; at
        # n = 3*10**12 + 1 an untraced scan would take about 2*10**12 steps,
        # so the refusal must come from the row cap, not after the run.
        # baghdad and ffim_exact at the large pair take the closed form.
        large = ModPair(2**40 + 15, 2**61 - 1)
        cases = [
            (AlgorithmId.SEQUENTIAL, ModPair(3, 3 * 10**6 + 1)),
            (AlgorithmId.SEQUENTIAL, ModPair(3, 3 * 10**12 + 1)),
            (AlgorithmId.BAGHDAD, large),
            (AlgorithmId.FFIM_EXACT, large),
        ]
        for alg, p in cases:
            with pytest.raises(TraceTooLongError, match="1000000 rows"):
                traced_inverse(alg, p)


    @pytest.mark.parametrize("alg", [AlgorithmId.EUCLID, AlgorithmId.STEIN, AlgorithmId.GORDON])
    def test_log_time_row_cap_follows_core(self, monkeypatch, alg):
        # the tracer reads core's cap when it runs, as _scan_index does: a
        # trace of exactly that many rows passes, one row more refuses
        from modinv import core

        p = ModPair(2**61 - 1, 2**89 - 1)
        _, full = traced_inverse(alg, p)
        rows = len(full.rows)
        assert rows > 3
        monkeypatch.setattr(core, "MAX_TRACE_ROWS", rows)
        assert traced_inverse(alg, p)[1] == full
        monkeypatch.setattr(core, "MAX_TRACE_ROWS", rows - 1)
        with pytest.raises(TraceTooLongError, match=f"would exceed {rows - 1} rows"):
            traced_inverse(alg, p)

    def test_row_cap_lives_in_core(self):
        from modinv import core, instrumentation

        assert core.MAX_TRACE_ROWS == 10**6
        assert not hasattr(instrumentation, "MAX_TRACE_ROWS")

    def test_long_scans_match_untraced(self):
        # Past SCAN_PREFIX steps an untraced baghdad or ffim_exact takes the
        # closed form while a traced one stays literal; both must give the
        # same outcome.
        q = 200003  # prime; each pair below stops at step 199999 or 200003
        e = 3 * q + pow(199999, -1, q)  # ffim_exact: b = n mod e = q
        cases = [
            (AlgorithmId.SEQUENTIAL, ModPair(pow(q, -1, 10**6 + 3), 10**6 + 3)),
            (AlgorithmId.BAGHDAD, ModPair(q, 7 * q + -pow(199999, -1, q) % q)),
            (AlgorithmId.FFIM_EXACT, ModPair(e, 5 * e + q)),
        ]
        for alg, p in cases:
            outcome, trace = traced_inverse(alg, p)
            assert outcome == ALGORITHM_FUNCS[alg](p)
            assert len(trace.rows) == outcome.iterations > SCAN_PREFIX
            assert outcome.iterations in (199999, q)


class TestKnuthModel:
    def test_twenty_bits(self):
        assert knuth_expected_divisions(2**20) == pytest.approx(18.33)

    def test_minimum_modulus(self):
        assert knuth_expected_divisions(2) == pytest.approx(2.313)

    def test_thirty_two_bits(self):
        assert knuth_expected_divisions(2**32) == pytest.approx(28.446)

    def test_domain(self):
        with pytest.raises(DomainError):
            knuth_expected_divisions(1)


class TestRenderTrace:
    def test_table_shape(self):
        _, trace = traced_inverse(AlgorithmId.EUCLID, ModPair(7, 60))
        text = render_trace(trace, "table")
        lines = text.splitlines()
        assert lines[0].split() == ["g", "u", "i", "v", "q", "t"]
        assert len(lines) == 1 + 5 + 1  # header, five rows, summary

    def test_json_round_trip(self):
        _, trace = traced_inverse(AlgorithmId.FFIM_EXACT, ModPair(7, 60))
        obj = json.loads(render_trace(trace, "json"))
        assert obj["algorithm"] == "ffim_exact"
        assert obj["headers"] == ["i", "s_f", "d_f", "r"]
        assert obj["rows"] == [
            ["1", "5/7", "4/7", "1/2"],
            ["2", "5/7", "4/7", "9/4"],
            ["3", "5/7", "4/7", "4"],
        ]
        assert obj["d"] == "43"
        assert obj["k"] == "5"
        assert obj["iterations"] == 3

    def test_json_matches_table_content(self):
        _, trace = traced_inverse(AlgorithmId.BAGHDAD, ModPair(3, 10))
        obj = json.loads(render_trace(trace, "json"))
        assert len(obj["rows"]) == 2  # 11/3 is not an integer, 21/3 is

    def test_unknown_format(self):
        _, trace = traced_inverse(AlgorithmId.EUCLID, ModPair(7, 60))
        with pytest.raises(DomainError):
            render_trace(trace, "yaml")
