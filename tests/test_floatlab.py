import copy
import dataclasses
import math
import pickle
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

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
    VERDICT_EARLY_TERMINATION,
    VERDICT_MISSED_TERMINATION,
    VERDICT_WRONG_ANSWER,
    VERDICTS,
    FailureReport,
    FloatProbeResult,
    _float_hit,
    _threshold,
    _window_returns,
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


# At epsilon >= 1/2 every index passes, since |r - round(r)| <= 1/2.
BAD_EPSILONS = [0.0, -1e-9, 0.5, 1.0, math.inf, -math.inf, math.nan]


def refuse(*args):
    raise AssertionError("must not run")


class TestEpsilonDomain:
    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_probe_refuses_before_either_scan(self, monkeypatch, epsilon):
        monkeypatch.setattr(floatlab, "ffim_closed_form", refuse)
        monkeypatch.setattr(floatlab, "_float_hit", refuse)
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1/2\)"):
            probe(ModPair(7, 60), epsilon)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_float_inverse_refuses_before_the_scan(self, monkeypatch, epsilon):
        monkeypatch.setattr(floatlab, "_float_hit", refuse)
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1/2\)"):
            ffim_float_inverse(ModPair(7, 60), epsilon)

    @pytest.mark.parametrize("epsilon", BAD_EPSILONS)
    def test_scan_failures_refuses_before_any_draw(self, monkeypatch, epsilon):
        monkeypatch.setattr(floatlab, "random", SimpleNamespace(Random=refuse))
        monkeypatch.setattr(floatlab, "probe", refuse)
        with pytest.raises(DomainError, match=r"epsilon must lie in \(0, 1/2\)"):
            scan_failures(3, 5, 1, 20, epsilon, 0)

    def test_just_below_one_half_accepted(self):
        assert probe(ModPair(7, 60), 0.4999).verdict in VERDICTS
        assert scan_failures(3, 5, 1, 20, 0.4999, 0).pairs == 3


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


EXAMPLE_PROBE_REPR = (
    "FloatProbeResult(e=7, n=60, epsilon=1e-06, k_exact=5, i_float=3, "
    "d_float=43, r_error=0.0, verdict='agree')"
)


class TestFloatProbeResult:
    def values(self):
        return [
            (probe(ModPair(7, 60), 1e-6), probe(ModPair(7, 60), 1e-6)),
            (probe(ModPair(MISSED_E, MISSED_N), 1e-14),
             probe(ModPair(MISSED_E, MISSED_N), 1e-14)),
        ]

    def test_field_names_and_order(self):
        assert [f.name for f in dataclasses.fields(FloatProbeResult)] == [
            "e", "n", "epsilon", "k_exact", "i_float", "d_float", "r_error", "verdict",
        ]

    def test_each_argument_lands_in_its_field(self):
        args = (7, 60, 1e-6, 5, 3, 43, 0.25, "agree")
        pr = FloatProbeResult(*args)
        assert dataclasses.astuple(pr) == args
        names = [f.name for f in dataclasses.fields(FloatProbeResult)]
        assert FloatProbeResult(**dict(zip(names, args))) == pr

    def test_repr(self):
        assert repr(probe(ModPair(7, 60), 1e-6)) == EXAMPLE_PROBE_REPR

    def test_equal_values_equal_objects_and_hashes(self):
        for a, b in self.values():
            assert a is not b
            assert a == b
            assert hash(a) == hash(b)
        assert probe(ModPair(7, 60), 1e-6) != probe(ModPair(7, 60), 1e-9)
        assert len({pr for pair in self.values() for pr in pair}) == 2

    def test_fields_are_frozen(self):
        for value, _ in self.values():
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, 1)

    def test_replace_copy_and_pickle(self):
        pr = probe(ModPair(7, 60), 1e-6)
        changed = dataclasses.replace(pr, verdict=VERDICT_EARLY_TERMINATION, i_float=4)
        assert dataclasses.astuple(changed) == (
            7, 60, 1e-6, 5, 4, 43, 0.0, VERDICT_EARLY_TERMINATION,
        )
        for value, _ in self.values():
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            restored = pickle.loads(pickle.dumps(value))
            assert restored == value
            assert hash(restored) == hash(value)
            assert type(restored) is type(value)


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


def passing_indices(e, a, b, epsilon):
    """Every i in [1, e] the float test passes, by numpy over every index."""
    passing = []
    for start in range(1, e + 1, REFERENCE_CHUNK * 32):
        idx = np.arange(start, min(start + REFERENCE_CHUNK * 32, e + 1), dtype=np.float64)
        r = (idx - a / e) / (b / e)
        passing += (np.nonzero(np.abs(r - np.rint(r)) <= epsilon)[0] + start).tolist()
    return passing


def full_scan(p, epsilon):
    """The float scan over every index, as ffim_float_inverse would run it."""
    a, b = (p.n + 1) % p.e, p.n % p.e
    return full_chunk_scan(a / p.e, b / p.e, epsilon, p.e)


def recording_walk(monkeypatch):
    """Patch _float_hit's walk to record each call's t and the indices it
    yields; returns the list of (t, indices)."""
    walks = []

    def recording(e, a, b, t, i_exact):
        walks.append((t, []))
        for i in _window_returns(e, a, b, t, i_exact):
            walks[-1][1].append(i)
            yield i

    monkeypatch.setattr(floatlab, "_window_returns", recording)
    return walks


def literal_probe(monkeypatch, p, epsilon):
    """probe with both scans testing every index in order: the reference for
    the candidate scan and the closed-form exact side."""
    with monkeypatch.context() as m:
        m.setattr(floatlab, "ffim_closed_form", ffim_exact_inverse)
        m.setattr(floatlab, "_float_hit",
                  lambda e, a, b, eps, i: full_chunk_scan(a / e, b / e, eps, e))
        return probe(p, epsilon)


# A pair on the candidate path whose first near-integral index is not the
# exact one: round(r) at i = 592 fails the divisibility confirmation.
WRONG_E, WRONG_N, WRONG_EPSILON = 4421, 1293272975, 1e-3

# A pair whose float scan finds nothing up to e at epsilon 1e-14.
MISSED_E, MISSED_N = 305, 157628349846431


def reference_probe(p, epsilon):
    """probe as it was when it composed ffim_closed_form with
    ffim_float_inverse, frozen here as the reference for the one-pass probe.
    Returns the field values in field order."""
    exact = ffim_closed_form(p)
    i_exact = exact.iterations
    e, n = p.e, p.n
    a = (n + 1) % e
    b = n % e
    if i_exact == 0:
        r_error = 0.0
    else:
        r_f = (float(i_exact) - a / e) / (b / e)
        r_error = abs(r_f - round(r_f))
    try:
        fo = ffim_float_inverse(p, epsilon)
    except floatlab.MissedTermination:
        return (e, n, epsilon, exact.k, None, None, r_error, VERDICT_MISSED_TERMINATION)
    except floatlab.WrongAnswer as failure:
        return (e, n, epsilon, exact.k, failure.i, None, r_error, VERDICT_WRONG_ANSWER)
    if fo.d == exact.d and fo.iterations == i_exact:
        verdict = VERDICT_AGREE
    else:
        verdict = VERDICT_EARLY_TERMINATION
    return (e, n, epsilon, exact.k, fo.iterations, fo.d, r_error, verdict)


def assert_matches_reference(cases):
    """probe equals reference_probe field for field on every (p, epsilon);
    returns the verdict tallies."""
    verdicts = Counter()
    for p, epsilon in cases:
        pr = probe(p, epsilon)
        assert dataclasses.astuple(pr) == reference_probe(p, epsilon), (p, epsilon)
        verdicts[pr.verdict] += 1
    return verdicts


class TestProbeAgainstReference:
    def test_floatscan_pools(self):
        verdicts = assert_matches_reference(
            (p, POOL_EPSILON) for seed in (1, 2) for p in floatscan_pool(seed)
        )
        assert sum(verdicts.values()) == 4096

    def test_small_pairs_at_five_epsilons(self):
        verdicts = assert_matches_reference(
            (p, epsilon)
            for epsilon in (1e-3, 1e-6, 1e-9, 1e-11, 1e-15)
            for p in coprime_pairs(300)
        )
        assert set(verdicts) == set(VERDICTS) - {VERDICT_WRONG_ANSWER}

    def test_fixtures(self):
        verdicts = assert_matches_reference([
            (ModPair(FAILURE_E, FAILURE_N), 1e-12),
            (ModPair(FAILURE_E, FAILURE_N), POOL_EPSILON),
            (ModPair(WRONG_E, WRONG_N), WRONG_EPSILON),
            (ModPair(MISSED_E, MISSED_N), 1e-14),
        ])
        assert verdicts == {
            VERDICT_EARLY_TERMINATION: 2, VERDICT_WRONG_ANSWER: 1, VERDICT_MISSED_TERMINATION: 1,
        }


class TestProbeRunsOnce:
    def record(self, monkeypatch):
        calls = Counter()
        for name in ("ffim_closed_form", "_float_hit", "_float_d"):
            def recording(*args, fn=getattr(floatlab, name), name=name):
                calls[name] += 1
                return fn(*args)

            monkeypatch.setattr(floatlab, name, recording)
        monkeypatch.setattr(floatlab, "ffim_float_inverse", refuse)
        return calls

    @pytest.mark.parametrize("e,n,epsilon,verdict,closes", [
        (7, 60, 1e-6, VERDICT_AGREE, 1),
        (FAILURE_E, FAILURE_N, 1e-12, VERDICT_EARLY_TERMINATION, 1),
        (WRONG_E, WRONG_N, WRONG_EPSILON, VERDICT_WRONG_ANSWER, 1),
        (MISSED_E, MISSED_N, 1e-14, VERDICT_MISSED_TERMINATION, 0),
    ])
    def test_each_scan_once_per_pair(self, monkeypatch, e, n, epsilon, verdict, closes):
        calls = self.record(monkeypatch)
        pr = probe(ModPair(e, n), epsilon)
        assert pr.verdict == verdict
        assert calls == Counter(ffim_closed_form=1, _float_hit=1, _float_d=closes)

    def test_solved_at_start_runs_no_float_scan(self, monkeypatch):
        # a = 0: both sides are solved at i = 0, as ffim_float_inverse is
        calls = self.record(monkeypatch)
        pr = probe(ModPair(7, 13), 1e-6)
        assert (pr.i_float, pr.d_float, pr.verdict) == (0, 2, VERDICT_AGREE)
        assert calls == {"ffim_closed_form": 1}


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
        # every t from W = 2t - 1 = 1 (the exact index's progression) to
        # W >= b (every index)
        for e in range(2, 40):
            for b in range(1, e):
                if math.gcd(e, b) != 1:
                    continue
                for a in range(0, e, 3):
                    i_exact = next(i for i in range(1, b + 1) if (i * e - a) % b == 0)
                    for t in range(1, b + 2):
                        near = [i for i in range(1, e + 1)
                                if min((i * e - a) % b, -(i * e - a) % b) <= t - 1]
                        assert list(_window_returns(e, a, b, t, i_exact)) == near, (e, a, b, t)

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

    def test_passing_residues_are_at_most_threshold_minus_one(self):
        # the bound _float_hit relies on to test only |s| <= T - 1: every
        # index the float test passes, over every index of each pair
        at_edge = set()

        def check(e, a, b, epsilon, passing):
            t = _threshold(e, b, b / e, epsilon)
            for j in passing:
                rho = min((j * e - a) % b, -(j * e - a) % b)
                assert rho <= t - 1, (e, a, b, epsilon, j)
                if rho and rho == t - 1:
                    at_edge.add(e)

        for p in floatscan_pool(1, 256):
            a, b = (p.n + 1) % p.e, p.n % p.e
            check(p.e, a, b, POOL_EPSILON, passing_indices(p.e, a, b, POOL_EPSILON))
        for epsilon in (1e-3, 1e-6, 1e-9, 1e-11, 1e-15):
            for n in range(3, 301):
                # every e < n coprime to n with a != 0, against every i <= e
                e = np.arange(2, n)
                e = e[(np.gcd(e, n) == 1) & ((n + 1) % e != 0)]
                a, b = (n + 1) % e, n % e
                i = np.arange(1, n)
                r = (i - (a / e)[:, None]) / (b / e)[:, None]
                rows, cols = np.nonzero((np.abs(r - np.rint(r)) <= epsilon) & (i <= e[:, None]))
                for row in np.unique(rows).tolist():
                    passing = (cols[rows == row] + 1).tolist()
                    check(int(e[row]), int(a[row]), int(b[row]), epsilon, passing)
        # T >= 2: epsilon*b = 5.5 sets T = 6; the rounding term sets T = 2 at
        # e = 4.24e7 and T = 8 at e = 9.46e7, where a residue of 1 passes
        for e, n, epsilon in [(10007, 5500 + 10007 * 9, 1e-3),
                              (42430558, 3898714017556497, POOL_EPSILON),
                              (94603407, 4213322137487131, POOL_EPSILON)]:
            a, b = (n + 1) % e, n % e
            passing = passing_indices(e, a, b, epsilon)
            assert _threshold(e, b, b / e, epsilon) >= 2 and passing
            check(e, a, b, epsilon, passing)
        assert 67109952 in passing
        # residues at T - 1 itself pass: the bound is tight at epsilon = 1e-3
        assert 10007 in at_edge, at_edge

    def test_threshold_one_lists_no_candidates(self, monkeypatch):
        # at T = 1 the one progression left is the exact index's own, so
        # probe and ffim_float_inverse (through reference_probe) walk it
        # from the exact index, with no seed
        pairs = floatscan_pool(1, 512)
        assert all(_threshold(p.e, p.n % p.e, p.n % p.e / p.e, POOL_EPSILON) == 1 for p in pairs)
        monkeypatch.setattr(floatlab, "_gaps", refuse)
        monkeypatch.setattr(floatlab, "_first_in", refuse)
        walks = recording_walk(monkeypatch)
        for p in pairs:
            expected = reference_probe(p, POOL_EPSILON)
            assert dataclasses.astuple(probe(p, POOL_EPSILON)) == expected, p
            assert dataclasses.astuple(literal_probe(monkeypatch, p, POOL_EPSILON)) == expected, p
        assert len(walks) == 2 * len(pairs)
        assert {t for t, _ in walks} == {1}

    def test_candidates_get_threshold_minus_one(self, monkeypatch):
        e, n, epsilon = 10007, 5500 + 10007 * 9, 1e-3
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        walks = recording_walk(monkeypatch)
        hit = _float_hit(e, a, b, epsilon, ffim_closed_form(p).iterations)
        assert [t for t, _ in walks] == [_threshold(e, b, b / e, epsilon)] == [6]
        # the walk's window is |s| <= t - 1 = 5
        near = [i for i in range(1, e + 1) if min((i * e - a) % b, -(i * e - a) % b) <= 5]
        assert walks[0][1] == near[:len(walks[0][1])]
        assert hit == full_scan(p, epsilon)
        assert probe(p, epsilon) == literal_probe(monkeypatch, p, epsilon)
        assert [t for t, _ in walks] == [6, 6]

    @pytest.mark.parametrize("widen", [1, 4])
    def test_same_hit_as_full_scan_small_pairs(self, monkeypatch, widen):
        # T = 1 at the five epsilons of the other small-pair tests; 0.02 and
        # 0.45 reach the walk's other two seeds, 1 < W < b and W >= b.
        # widen = 4 walks a window four times the bound's T (capped at b):
        # its extra indices are ones that cannot pass, so the hit is the same.
        threshold = floatlab._threshold
        monkeypatch.setattr(
            floatlab, "_threshold",
            lambda e, b, d_f, epsilon: min(b, widen * threshold(e, b, d_f, epsilon)),
        )
        seeds = Counter()
        for epsilon in (1e-3, 1e-6, 1e-9, 1e-11, 1e-15, 0.02, 0.45):
            for p in coprime_pairs(300):
                a, b = (p.n + 1) % p.e, p.n % p.e
                if a:
                    hit = _float_hit(p.e, a, b, epsilon, ffim_closed_form(p).iterations)
                    assert hit == full_scan(p, epsilon), (p, epsilon)
                    w = 2 * floatlab._threshold(p.e, b, b / p.e, epsilon) - 1
                    seeds["W = 1" if w == 1 else "W >= b" if w >= b else "1 < W < b"] += 1
        # past widen = 1, W = 1 is left only where b = 1
        assert seeds["1 < W < b"] > 1000 and seeds["W >= b"] > 1000, seeds
        assert widen > 1 or seeds["W = 1"] > 1000, seeds

    def test_same_hit_as_full_scan_on_floatscan_pool(self):
        # T = 1 here: the walk is the exact index's progression
        for seed in (1, 2):
            for p in floatscan_pool(seed):
                a, b = (p.n + 1) % p.e, p.n % p.e
                hit = _float_hit(p.e, a, b, POOL_EPSILON, ffim_closed_form(p).iterations)
                assert hit == full_scan(p, POOL_EPSILON), p

    @pytest.mark.parametrize("e,n,epsilon", [
        (10**12 + 39, 2**51 + 2**49 + 12345, 1e-6),  # T about 8.9e8
        (10**11 + 3, 2**51 + 777, 1e-4),  # T about 1.9e7
    ])
    def test_large_e_falls_back(self, e, n, epsilon):
        # T grows as 8*u*e^2: at a large e there are millions of
        # progressions, which the walk steps through without listing
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        hit = _float_hit(e, a, b, epsilon, ffim_closed_form(p).iterations)
        assert hit is not None and hit == full_scan(p, epsilon)

    def test_mid_cap_pair_takes_the_candidates(self):
        # 2T - 1 = 44409 progressions, walked in milliseconds, where testing
        # every index up to the hit at 14972935 would take seconds
        e, n, epsilon = 5000000029, 3377700708182193, 1e-12
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        t = _threshold(e, b, b / e, epsilon)
        assert t == 22205
        hit = _float_hit(e, a, b, epsilon, ffim_closed_form(p).iterations)
        assert hit == full_scan(p, epsilon) == (14972935, 108721457.0)

    def test_probe_matches_literal_scans(self, monkeypatch):
        pairs = floatscan_pool(1, 512) + [ModPair(FAILURE_E, FAILURE_N)]
        for p in pairs:
            assert probe(p, POOL_EPSILON) == literal_probe(monkeypatch, p, POOL_EPSILON), p
        assert probe(pairs[-1], 1e-12) == literal_probe(monkeypatch, pairs[-1], 1e-12)

    def test_constructed_wrong_answer(self, monkeypatch):
        p = ModPair(WRONG_E, WRONG_N)
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
        (1507, 892224166445855, 523),  # b = 12; exact index 7 misses
    ])
    def test_first_hit_past_b_or_none(self, e, n, first):
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        epsilon = 1e-14
        hit = _float_hit(e, a, b, epsilon, ffim_closed_form(p).iterations)
        assert hit == full_scan(p, epsilon)
        if first is None:
            assert hit is None
            with pytest.raises(floatlab.MissedTermination):
                ffim_float_inverse(p, epsilon)
        else:
            assert hit[0] == first > b


class TestWindowWalk:
    def test_gaps_cover_the_window(self):
        # A + B >= W, so "x + A < W" and "x >= B" never both hold and the
        # walk needs no tie-break; each gap is the first time its side of 0
        # comes within W - 1
        for b in range(2, 120):
            for c in range(1, b):
                if math.gcd(c, b) != 1:
                    continue
                for w in range(2, b):
                    g1, A, g2, B = floatlab._gaps(c, b, w)
                    assert A + B >= w, (c, b, w)
                    up = next(j for j in range(1, b) if 0 < j * c % b < w)
                    down = next(j for j in range(1, b) if 0 < -j * c % b < w)
                    assert (g1, A, g2, B) == (up, up * c % b, down, -down * c % b), (c, b, w)

    def test_small_b_at_threshold_one_walks_the_exact_progression(self, monkeypatch):
        # b = 12 at T = 1: the exact index's progression from 7, 44 indices
        # up to the hit at 523, not every index from 1
        e, n, epsilon = 1507, 892224166445855, 1e-14
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        assert b == 12 and _threshold(e, b, b / e, epsilon) == 1
        walks = recording_walk(monkeypatch)
        hit = _float_hit(e, a, b, epsilon, ffim_closed_form(p).iterations)
        assert hit == full_scan(p, epsilon) and hit[0] == 523
        assert walks == [(1, list(range(7, 524, 12)))]
        assert len(walks[0][1]) == 44

    def test_threshold_set_by_epsilon(self):
        # at epsilon 1e-3, epsilon*b sets T in the thousands, and a hit comes
        # within a few hundred indices; three 47-bit moduli from Random(0)
        e, epsilon = 10**7 + 19, 1e-3
        rng = random.Random(0)
        moduli = []
        while len(moduli) < 3:
            n = rng.randrange(1 << 46, 1 << 47)
            if math.gcd(e, n) == 1:
                moduli.append(n)
        for n in moduli:
            p = ModPair(e, n)
            a, b = (n + 1) % e, n % e
            assert _threshold(e, b, b / e, epsilon) > 2000
            hit = _float_hit(e, a, b, epsilon, ffim_closed_form(p).iterations)
            assert hit is not None and hit == full_scan(p, epsilon), n
        assert hit[0] == 657

    @pytest.mark.parametrize("e,n,epsilon,first", [
        (10**12 + 39, 2**51 + 2**49 + 12345, 1e-6, 470634),  # T about 8.9e8
        (5000000029, 3377700708182193, 1e-12, 14972935),  # T = 22205
        # T = 799361: the pair of `modinv scan-float --e-min 30000000007
        # --e-max 30000000007 --samples-per-e 1 --n-bits 52 --epsilon 1e-12`
        (30000000007, 3986789839407053, 1e-12, 42741220),
    ])
    def test_walk_memory_is_constant(self, e, n, epsilon, first):
        p = ModPair(e, n)
        a, b = (n + 1) % e, n % e
        i_exact = ffim_closed_form(p).iterations
        tracemalloc.start()
        try:
            hit = _float_hit(e, a, b, epsilon, i_exact)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak
        assert hit == full_scan(p, epsilon) and hit[0] == first


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

    def test_float_path_never_silently_wrong(self, monkeypatch):
        # any candidate failing exact confirmation must surface as a
        # wrong_answer verdict, never as a returned inverse; around WRONG_E
        # at WRONG_EPSILON about half the pairs are wrong answers
        probed = []

        def recording_probe(p, epsilon):
            probed.append(probe(p, epsilon))
            return probed[-1]

        monkeypatch.setattr(floatlab, "probe", recording_probe)
        report = scan_failures(WRONG_E - 20, WRONG_E + 20, 2, 31, WRONG_EPSILON, 13)
        assert len(probed) == report.pairs == 82
        wrong = [pr for pr in probed if pr.verdict == VERDICT_WRONG_ANSWER]
        assert wrong and len(wrong) == report.verdicts[VERDICT_WRONG_ANSWER]
        for pr in probed:
            if pr.d_float is not None:
                assert pr.e * pr.d_float % pr.n == 1, pr
        for pr in wrong:
            assert pr.d_float is None and pr.i_float is not None, pr

    def test_json_round_trip(self):
        report = scan_failures(3, 40, 1, 24, 1e-9, 1)
        text = failure_report_to_json(report)
        assert failure_report_from_json(text) == report

    def test_json_exact_bytes(self):
        report = FailureReport(
            epsilon=1e-13,
            pairs=3,
            verdicts={VERDICT_AGREE: 2, VERDICT_WRONG_ANSWER: 0,
                      VERDICT_MISSED_TERMINATION: 1, VERDICT_EARLY_TERMINATION: 0},
            decile_mean_r_error=(1 / 3, -0.0, 1e-320) + (None,) * 6 + (0.0,),
            witnesses=({"e": "309686", "n": "2535179246073379", "k": "123",
                        "verdict": VERDICT_MISSED_TERMINATION},),
        )
        text = failure_report_to_json(report)
        assert text == (
            '{"epsilon": 1e-13, "pairs": 3, "verdicts": {"agree": 2, '
            '"wrong_answer": 0, "missed_termination": 1, "early_termination": 0}, '
            '"decile_mean_r_error": [0.3333333333333333, -0.0, 1e-320, null, null, '
            'null, null, null, null, 0.0], "witnesses": [{"e": "309686", '
            '"n": "2535179246073379", "k": "123", "verdict": "missed_termination"}]}'
        )
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

    def test_no_samples_refused(self):
        with pytest.raises(DomainError, match="samples_per_e must be >= 1"):
            scan_failures(3, 10, 0, 32, 1e-9, 0)

    def test_exponent_with_no_modulus_above_it_refused(self):
        # no 12-bit n exceeds e >= 4095, so such an e cannot be paired
        with pytest.raises(DomainError, match="e_max = 5000"):
            scan_failures(3, 5000, 1, 12, 1e-9, 0)
        with pytest.raises(DomainError, match="e_max = 255"):
            scan_failures(3, 255, 1, 8, 1e-9, 0)

    def test_every_exponent_gets_its_moduli(self):
        # e up to 2**n_bits - 2 (its one modulus is e + 1) pairs every e,
        # those above 2**(n_bits - 1) included
        report = scan_failures(3, 1022, 1, 10, 1e-9, 0)
        assert report.pairs == 1020

    def test_draws_below_the_low_bound_unchanged(self, monkeypatch):
        # for e below 2**(n_bits - 1) the moduli are drawn as they always were
        probed = []
        monkeypatch.setattr(floatlab, "probe", lambda p, eps: probed.append(p) or probe(p, eps))
        scan_failures(3, 60, 2, 16, 1e-9, 4)
        rng = random.Random(4)
        expected = []
        for e in range(3, 61):
            while len(expected) < 2 * (e - 2):
                n = rng.randrange(1 << 15, 1 << 16)
                if math.gcd(e, n) == 1:
                    expected.append(ModPair(e, n))
        assert probed == expected

    def test_exponent_without_coprime_draw_refused(self, monkeypatch):
        class EvenDraws:  # every modulus even, so e = 4 never finds one
            def __init__(self, seed):
                pass

            def randrange(self, lo, hi):
                return lo + lo % 2

        monkeypatch.setattr(floatlab, "random", SimpleNamespace(Random=EvenDraws))
        with pytest.raises(DomainError, match="coprime to e = 4"):
            scan_failures(3, 4, 1, 16, 1e-9, 0)
