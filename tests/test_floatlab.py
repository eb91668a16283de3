import math
import random
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
from modinv.core import DomainError, ffim_closed_form
from modinv.floatlab import (
    VERDICT_AGREE,
    VERDICT_WRONG_ANSWER,
    _candidates,
    _float_hit,
    _threshold,
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


# The floatscan benchmark workload's pool (benchmarks/workloads.py): e near
# 1e5, 48-bit moduli, epsilon 1e-11.
POOL_EPSILON = 1e-11


def floatscan_pool(seed, size=2048):
    rng = random.Random(seed)
    lo = 1 << 47
    pairs = []
    while len(pairs) < size:
        e = rng.randrange(95_000, 105_001)
        n = rng.randrange(lo, lo << 1)
        if math.gcd(e, n) == 1:
            pairs.append(ModPair(e, n))
    return pairs


def coprime_pairs(n_max):
    for n in range(2, n_max + 1):
        for e in range(2, n):
            if math.gcd(e, n) == 1:
                yield ModPair(e, n)


REFERENCE_CHUNK = 1 << 15  # indices per array pass of full_chunk_scan


def full_chunk_scan(s_f, d_f, epsilon, cap):
    """The float scan over every index in numpy chunks, an independent
    reference for _float_hit, frozen here from an earlier chunked version."""
    start = 1
    while start <= cap:
        stop = min(start + REFERENCE_CHUNK, cap + 1)
        idx = np.arange(start, stop, dtype=np.float64)
        r = (idx - s_f) / d_f
        hits = np.nonzero(np.abs(r - np.rint(r)) <= epsilon)[0]
        if hits.size:
            j = int(hits[0])
            return start + j, float(r[j])
        start = stop
    return None


def full_scan(p, epsilon):
    """The float scan over every index, as ffim_float_inverse would run it."""
    a, b = (p.n + 1) % p.e, p.n % p.e
    return full_chunk_scan(a / p.e, b / p.e, epsilon, p.e)


def falls_back(p, epsilon):
    b = p.n % p.e
    return floatlab._falls_back(b, _threshold(p.e, b, b / p.e, epsilon))


def literal_probe(monkeypatch, p, epsilon):
    """probe with both scans testing every index in order: the reference for
    the candidate scan and the closed-form exact side."""
    with monkeypatch.context() as m:
        m.setattr(floatlab, "ffim_closed_form", ffim_exact_inverse)
        m.setattr(floatlab, "_float_hit", lambda e, a, b, eps: full_chunk_scan(a / e, b / e, eps, e))
        return probe(p, epsilon)


# A pair on the candidate path whose first near-integral index is not the
# exact one: round(r) at i = 592 fails the divisibility confirmation.
WRONG_E, WRONG_N, WRONG_EPSILON = 4421, 1293272975, 1e-3


class TestCandidateScan:
    @pytest.mark.parametrize("e,b,epsilon,t", [
        (10007, 5500, 1e-3, 6),  # epsilon*b = 5.5 dominates
        (2**26 + 1, 2**20, 1e-15, 5),  # 8u*e^2 = 4 dominates
        (100003, 70001, 1e-11, 1),  # the floatscan regime
        (7, 3, 1.0, 3),  # capped at b
        (7, 3, float("inf"), 3),
    ])
    def test_threshold(self, e, b, epsilon, t):
        assert _threshold(e, b, b / e, epsilon) == t

    def test_candidates_are_the_residues_near_zero(self):
        for e in range(2, 40):
            for b in range(1, e):
                if math.gcd(e, b) != 1:
                    continue
                for a in range(0, e, 3):
                    for t in range((b - 1) // 2 + 1):
                        near = [i for i in range(1, e + 1)
                                if min((i * e - a) % b, -(i * e - a) % b) <= t]
                        assert list(_candidates(e, a, b, t)) == near, (e, a, b, t)

    def test_passing_indices_lie_inside_threshold(self):
        # every index the float test passes, not only the first, has a
        # residue strictly inside T: the +1 in T is spare
        for e, n, epsilon in [(10007, 5500 + 10007 * 9, 1e-3), (4421, WRONG_N, 1e-3),
                              (2003, 2**40 + 1500, 1e-9)]:
            a, b = (n + 1) % e, n % e
            i = np.arange(1, e + 1, dtype=np.float64)
            r = (i - a / e) / (b / e)
            passing = np.nonzero(np.abs(r - np.rint(r)) <= epsilon)[0] + 1
            assert passing.size
            t = _threshold(e, b, b / e, epsilon)
            assert all(min((j * e - a) % b, -(j * e - a) % b) < t for j in passing.tolist())

    @pytest.mark.parametrize("sparsity", [1, 4])
    def test_same_hit_as_full_scan_small_pairs(self, monkeypatch, sparsity):
        # 4 is the default; sparsity 1 sends every pair with 2T + 1 < b to
        # the candidates. Both paths are compared with the reference.
        monkeypatch.setattr(floatlab, "CANDIDATE_SPARSITY", sparsity)
        paths = {False: 0, True: 0}
        for epsilon in (1e-3, 1e-6, 1e-9, 1e-11, 1e-15):
            for p in coprime_pairs(300):
                a, b = (p.n + 1) % p.e, p.n % p.e
                if a:
                    assert _float_hit(p.e, a, b, epsilon) == full_scan(p, epsilon), (p, epsilon)
                    paths[falls_back(p, epsilon)] += 1
        assert min(paths.values()) > 10_000, paths

    def test_same_hit_as_full_scan_on_floatscan_pool(self):
        # T = 1 here, and no pair of either pool has b <= 4*(2T + 1), so
        # every one takes the candidates
        for seed in (1, 2):
            for p in floatscan_pool(seed):
                a, b = (p.n + 1) % p.e, p.n % p.e
                assert not falls_back(p, POOL_EPSILON), p
                assert _float_hit(p.e, a, b, POOL_EPSILON) == full_scan(p, POOL_EPSILON), p

    @pytest.mark.parametrize("e,n,epsilon", [
        (10**12 + 39, 2**51 + 2**49 + 12345, 1e-6),  # T about 8.9e8
        (10**11 + 3, 2**51 + 777, 1e-4),  # T about 1.9e7
    ])
    def test_large_e_falls_back(self, e, n, epsilon):
        # T grows as 8*u*e^2: at a large e the candidates are sparse but the
        # progressions too many to list, so every index is tested
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        t = _threshold(e, b, b / e, epsilon)
        assert floatlab.CANDIDATE_SPARSITY * (2 * t + 1) < b
        assert 2 * t + 1 > floatlab.MAX_PROGRESSIONS
        assert falls_back(p, epsilon)
        hit = _float_hit(e, a, b, epsilon)
        assert hit is not None and hit == full_scan(p, epsilon)

    def test_mid_cap_pair_takes_the_candidates(self):
        # 2T + 1 = 44411 offsets are listed in milliseconds, where testing
        # every index up to the hit at 14972935 would take seconds
        e, n, epsilon = 5000000029, 3377700708182193, 1e-12
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        t = _threshold(e, b, b / e, epsilon)
        assert t == 22205 and not falls_back(p, epsilon)
        hit = _float_hit(e, a, b, epsilon)
        assert hit == full_scan(p, epsilon) == (14972935, 108721457.0)

    def test_progression_bound_is_exact(self):
        # b is large enough that only the number of progressions decides
        b = 10**9
        assert not floatlab._falls_back(b, floatlab.MAX_PROGRESSIONS // 2 - 1)
        assert floatlab._falls_back(b, floatlab.MAX_PROGRESSIONS // 2)

    def test_probe_matches_literal_scans(self, monkeypatch):
        pairs = floatscan_pool(1, 512) + [ModPair(FAILURE_E, FAILURE_N)]
        for p in pairs:
            assert probe(p, POOL_EPSILON) == literal_probe(monkeypatch, p, POOL_EPSILON), p
        assert probe(pairs[-1], 1e-12) == literal_probe(monkeypatch, pairs[-1], 1e-12)

    def test_constructed_wrong_answer(self, monkeypatch):
        p = ModPair(WRONG_E, WRONG_N)
        assert not falls_back(p, WRONG_EPSILON)
        pr = probe(p, WRONG_EPSILON)
        assert pr.verdict == VERDICT_WRONG_ANSWER
        assert pr.i_float == 592 and pr.d_float is None
        assert pr == literal_probe(monkeypatch, p, WRONG_EPSILON)
        with pytest.raises(floatlab.WrongAnswer):
            ffim_float_inverse(p, WRONG_EPSILON)


class TestFallbackScan:
    # the exact index lies in [1, b]; these pairs find nothing there
    @pytest.mark.parametrize("e,n,first", [
        (1002, 776039837081929, 254),  # exact index 67 misses; 67 + b passes
        (305, 157628349846431, None),  # no index passes
        (1507, 892224166445855, 523),  # b = 12 falls back; exact index 7 misses
    ])
    def test_first_hit_past_b_or_none(self, monkeypatch, e, n, first):
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        epsilon = 1e-14
        assert falls_back(p, epsilon) == (b <= 12)
        hit = _float_hit(e, a, b, epsilon)
        assert hit == full_scan(p, epsilon)
        # sparsity b sends every pair to the every-index loop
        monkeypatch.setattr(floatlab, "CANDIDATE_SPARSITY", b)
        assert falls_back(p, epsilon)
        assert _float_hit(e, a, b, epsilon) == hit
        if first is None:
            assert hit is None
            with pytest.raises(floatlab.MissedTermination):
                ffim_float_inverse(p, epsilon)
        else:
            assert hit[0] == first > b


class TestClosedFormExactSide:
    def test_matches_scan_small_pairs(self):
        for n in range(2, 513):
            for e in range(1, n):
                if math.gcd(e, n) == 1:
                    p = ModPair(e, n)
                    assert ffim_closed_form(p) == ffim_exact_inverse(p), p

    def test_matches_scan_floatscan_pairs(self):
        for p in floatscan_pool(1, 256):
            assert ffim_closed_form(p) == ffim_exact_inverse(p), p


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
