"""Acceptance suite: one test per criterion, printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
lines.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

from modinv import (
    AlgorithmId,
    ModPair,
    WorkloadSpec,
    baghdad_inverse,
    emit_report,
    euclid_inverse,
    ffim_exact_inverse,
    ffim_float_inverse,
    generate_workload,
    gordon_inverse,
    knuth_expected_divisions,
    run_benchmark,
    scan_failures,
    sequential_inverse,
    stein_inverse,
    traced_inverse,
    witness_k,
)
from modinv.benchmark import RANDOM_COPRIME
from modinv.cli import rsa_toy_keygen, run_exhaustive_validation
from modinv.floatlab import VERDICT_AGREE, VERDICT_WRONG_ANSWER, probe
from modinv.instrumentation import ALGORITHM_FUNCS


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number} [{description}]: FAIL")
        raise
    print(f"\nACCEPTANCE {number} [{description}]: PASS")


def test_criterion_1_running_example():
    with criterion(1, "all paths give 43 for (7, 60)"):
        p = ModPair(7, 60)
        for func in (
            sequential_inverse,
            euclid_inverse,
            stein_inverse,
            gordon_inverse,
            baghdad_inverse,
            ffim_exact_inverse,
        ):
            assert func(p).d == 43, func.__name__
        assert ffim_float_inverse(p, 1e-6).d == 43


def test_criterion_2_exhaustive_oracle_equivalence():
    with criterion(2, "validate --n-max 512 reports zero discrepancies"):
        checked, discrepancy = run_exhaustive_validation(512)
        assert discrepancy is None
        assert checked == sum(
            1
            for n in range(2, 513)
            for e in range(1, n)
            if math.gcd(e, n) == 1
        )


def test_criterion_3_witness_laws():
    with criterion(3, "witness identity, iteration laws, minimality"):
        for n in range(2, 513):
            for e in range(1, n):
                if math.gcd(e, n) != 1:
                    continue
                p = ModPair(e, n)
                o = euclid_inverse(p)
                assert p.e * o.d == 1 + o.k * p.n
                assert 0 <= o.k < max(p.e, 1) or p.e == 1
                if e > 1:
                    ob = baghdad_inverse(p)
                    assert ob.iterations == witness_k(p, ob.d)
                    if (n + 1) % e != 0:
                        of = ffim_exact_inverse(p)
                        assert of.k - 1 == (of.iterations * e - (n + 1) % e) // (n % e)
                    # minimality: no smaller i makes (1 + i*n)/e an integer
                    for i in range(1, o.k):
                        assert (1 + i * n) % e != 0


def test_criterion_4_knuth_division_model():
    with criterion(4, "mean euclid divisions within 10% of 0.843*32 + 1.47"):
        spec = WorkloadSpec(n_bits=32, samples=1000, e_mode=RANDOM_COPRIME, seed=42)
        report = run_benchmark(
            generate_workload(spec), [AlgorithmId.EUCLID], spec=spec, repetitions=1
        )
        expected = knuth_expected_divisions(2**32)
        assert expected == 0.843 * 32 + 1.47
        mean = report.rows[0].mean_divs
        assert abs(mean - expected) <= 0.10 * expected, (
            f"mean divisions {mean:.3f} vs modelled {expected:.3f}"
        )


def test_criterion_5_trace_fidelity():
    with criterion(5, "worked-table traces for (7, 60)"):
        p = ModPair(7, 60)
        _, euclid_trace = traced_inverse(AlgorithmId.EUCLID, p)
        assert [row[2] for row in euclid_trace.rows] == [0, 1, -8, 9, -17]
        _, baghdad_trace = traced_inverse(AlgorithmId.BAGHDAD, p)
        assert len(baghdad_trace.rows) == 5
        _, ffim_trace = traced_inverse(AlgorithmId.FFIM_EXACT, p)
        assert [row[3] for row in ffim_trace.rows] == [
            Fraction(1, 2),
            Fraction(9, 4),
            Fraction(4),
        ]


def test_criterion_6_float_error_lab():
    with criterion(6, "small-e safety, decile growth, confirmed candidates"):
        # (a) small e with 32-bit moduli never disagrees at 1e-9
        small = scan_failures(3, 100, 10, 32, 1e-9, 1)
        assert small.verdicts[VERDICT_AGREE] == small.pairs

        # (b) default wide scan: error grows with the witness k
        wide = scan_failures(3, 5000, 2, 48, 1e-9, 0)
        deciles = wide.decile_mean_r_error
        assert all(d is not None for d in deciles)
        assert deciles[-1] >= deciles[0]

        # (c) a float run never returns an unconfirmed inverse
        import random

        rng = random.Random(6)
        checked = 0
        for e in range(25000, 1000001, 12347):
            n = rng.randrange(1 << 49, 1 << 50)
            if math.gcd(e, n) != 1:
                continue
            pr = probe(ModPair(e, n), 1e-12)
            if pr.d_float is not None:
                assert (e * pr.d_float) % n == 1
            else:
                assert pr.verdict in (VERDICT_WRONG_ANSWER, "missed_termination")
            checked += 1
        assert checked >= 40


def test_criterion_7_complexity_characterization(tmp_path):
    with criterion(7, "scan iteration counts dwarf euclid divisions at n = 1000003"):
        n = 1000003
        import random

        rng = random.Random(2024)
        pairs = []
        while len(pairs) < 1000:
            e = rng.randrange(2, n)
            if math.gcd(e, n) == 1:
                pairs.append(ModPair(e, n))
        report = run_benchmark(
            pairs,
            [AlgorithmId.EUCLID, AlgorithmId.BAGHDAD, AlgorithmId.FFIM_EXACT],
            repetitions=1,
        )
        rows = {row.algorithm: row for row in report.rows}
        euclid_divs = rows["euclid"].mean_divs
        assert rows["baghdad"].mean_iters > 50 * euclid_divs
        assert rows["ffim_exact"].mean_iters > 50 * euclid_divs
        artifact = tmp_path / "complexity.csv"
        artifact.write_text(emit_report(report, "csv"))
        assert artifact.read_text().startswith("algorithm,")


def test_criterion_8_keygen_demo():
    with criterion(8, "toy keygen (5, 11, 7) gives d = 23"):
        n, e, d = rsa_toy_keygen(5, 11, 7)
        assert (n, e, d) == (55, 7, 23)
        assert (7 * 23) % 40 == 1
