import math
from fractions import Fraction

import numpy as np
import pytest

from modinv import floatlab
from modinv import (
    ModPair,
    ffim_exact_inverse,
    ffim_float_inverse,
    probe,
    scan_failures,
    ulp_gap,
)
from modinv.core import DomainError
from modinv.floatlab import (
    VERDICT_AGREE,
    VERDICT_WRONG_ANSWER,
    failure_report_from_json,
    failure_report_to_json,
)

# First non-agree pair found by scanning e up to 10^6 at epsilon = 1e-12
# over 52-bit moduli (seed 0); frozen here as a regression fixture.
FAILURE_E = 309686
FAILURE_N = 2535179246073379


class TestFloatInverse:
    def test_worked_example(self):
        o = ffim_float_inverse(ModPair(7, 60), 1e-6)
        assert o.d == 43
        assert o.iterations == 3

    def test_small_pair_exact(self):
        o = ffim_float_inverse(ModPair(3, 10), 1e-6)
        assert o.d == 7

    def test_solved_at_start_skips_loop(self):
        o = ffim_float_inverse(ModPair(7, 13), 1e-300)
        assert o.d == 2
        assert o.iterations == 0

    def test_unit_operand_rejected(self):
        with pytest.raises(DomainError):
            ffim_float_inverse(ModPair(1, 10), 1e-6)

    def test_oversized_modulus_rejected(self):
        with pytest.raises(DomainError):
            ffim_float_inverse(ModPair(3, (1 << 53) + 2), 1e-6)

    def test_bad_epsilon_rejected(self):
        with pytest.raises(DomainError):
            ffim_float_inverse(ModPair(7, 60), 0.0)


class TestUlpGap:
    def test_non_dyadic_gaps_positive(self):
        gap = ulp_gap(ModPair(7, 60))
        assert gap.xi1 > 0
        assert gap.xi2 > 0

    def test_dyadic_gaps_zero(self):
        gap = ulp_gap(ModPair(2, 5))
        assert gap.xi1 == 0
        assert gap.xi2 == 0

    def test_dyadic_reciprocal_only(self):
        gap = ulp_gap(ModPair(4, 9))
        assert gap.xi1 == 0

    def test_gaps_are_exact_rationals(self):
        gap = ulp_gap(ModPair(7, 60))
        assert gap.xi1 == abs(Fraction(1 / 7) - Fraction(1, 7))


class TestProbe:
    def test_worked_example_agrees(self):
        pr = probe(ModPair(7, 60), 1e-6)
        assert pr.verdict == VERDICT_AGREE
        assert pr.k_exact == 5

    def test_small_pair_tiny_error(self):
        pr = probe(ModPair(3, 10), 1e-6)
        assert pr.verdict == VERDICT_AGREE
        assert pr.k_exact == 2
        assert pr.r_error <= 1e-12

    def test_frozen_failure_witness(self):
        pr = probe(ModPair(FAILURE_E, FAILURE_N), 1e-12)
        assert pr.verdict != VERDICT_AGREE

    def test_agree_implies_equal_d(self):
        for e, n in [(7, 60), (97, 1003), (65537, 10**12 + 39)]:
            p = ModPair(e, n)
            pr = probe(p, 1e-9)
            if pr.verdict == VERDICT_AGREE:
                assert pr.d_float == ffim_exact_inverse(p).d


class TestSfErrorDecomposition:
    def test_bound_against_exact_rationals(self):
        # |fl(s_f) - s_f| <= 2*max(xi1, xi2) plus one rounding unit
        for e, n in [(7, 60), (97, 1003), (12345, 67891), (309686, 10**15 + 37)]:
            p = ModPair(e, n)
            gap = ulp_gap(p)
            a = (p.n + 1) % p.e
            s_f_c = Fraction(a / p.e)
            s_f_m = Fraction(a, p.e)
            half_ulp = Fraction(math.ulp(a / p.e)) / 2
            assert abs(s_f_c - s_f_m) <= 2 * max(gap.xi1, gap.xi2) + half_ulp


class TestScanFailures:
    def test_deterministic(self):
        args = dict(e_min=3, e_max=60, samples_per_e=2, n_bits=32, epsilon=1e-9, seed=5)
        assert scan_failures(**args) == scan_failures(**args)

    def test_small_e_all_agree(self):
        report = scan_failures(3, 100, 10, 32, 1e-9, 11)
        assert report.verdicts[VERDICT_AGREE] == report.pairs
        assert not report.witnesses

    def test_decile_error_growth(self):
        report = scan_failures(3, 2000, 1, 48, 1e-9, 7)
        deciles = report.decile_mean_r_error
        assert all(d is not None for d in deciles)
        assert deciles[-1] >= deciles[0]

    def test_float_path_never_silently_wrong(self):
        # any candidate failing exact confirmation must surface as a
        # wrong_answer verdict, never as a returned inverse
        report = scan_failures(3, 400, 2, 40, 1e-3, 13)
        for w in report.witnesses:
            if w["verdict"] == VERDICT_WRONG_ANSWER:
                break
        p = ModPair(FAILURE_E, FAILURE_N)
        pr = probe(p, 1e-12)
        if pr.d_float is not None:
            assert (p.e * pr.d_float) % p.n == 1

    def test_json_round_trip(self):
        report = scan_failures(3, 40, 1, 24, 1e-9, 1)
        text = failure_report_to_json(report)
        assert failure_report_from_json(text) == report

    def test_ordering_and_bounds(self):
        report = scan_failures(5, 30, 3, 16, 1e-9, 2)
        assert report.pairs > 0
        assert len(report.decile_mean_r_error) == 10

    @pytest.mark.parametrize("pairs", range(1, 26))
    def test_deciles_match_array_split(self, pairs, monkeypatch):
        # fewer than 10 pairs leaves empty (None) deciles; other counts
        # split unevenly. Means must equal np.array_split's bit for bit.
        probed = []

        def recording_probe(p, epsilon):
            probed.append(probe(p, epsilon))
            return probed[-1]

        monkeypatch.setattr(floatlab, "probe", recording_probe)
        report = scan_failures(1000, 999 + pairs, 1, 48, 1e-9, pairs)
        assert report.pairs == pairs
        by_k = sorted(sorted(probed, key=lambda pr: (pr.e, pr.n)), key=lambda pr: pr.k_exact)
        expected = tuple(
            float(sum(by_k[int(j)].r_error for j in bucket) / bucket.size)
            if bucket.size
            else None
            for bucket in np.array_split(np.arange(len(by_k)), 10)
        )
        assert report.decile_mean_r_error == expected

    def test_bad_bounds_rejected(self):
        with pytest.raises(DomainError):
            scan_failures(2, 100, 1, 32, 1e-9, 0)
        with pytest.raises(DomainError):
            scan_failures(3, 100, 1, 53, 1e-9, 0)
