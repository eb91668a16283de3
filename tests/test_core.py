import copy
import dataclasses
import inspect
import math
import pickle
import random
import typing

import pytest

from modinv import (
    AlgorithmId,
    DomainError,
    InternalConsistencyError,
    InverseOutcome,
    ModPair,
    NoInverseError,
    OpCounts,
    baghdad_inverse,
    euclid_inverse,
    ffim_exact_inverse,
    gordon_inverse,
    sequential_inverse,
    stein_inverse,
    traced_inverse,
    verify_inverse,
    witness_k,
)
from modinv import benchmark, core, floatlab, instrumentation
from modinv.core import SEQUENTIAL_BUDGET, _outcome


def random_pairs(count, bits, seed):
    """count coprime pairs with a bits-bit n; at 2048 bits and seed 2009 they
    are the random pairs of tests/test_golden.py's outcome digest."""
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        e = rng.getrandbits(bits) % n
        if e and math.gcd(e, n) == 1:
            pairs.append(ModPair(e, n))
    return pairs


ALL_EXACT = (
    sequential_inverse,
    euclid_inverse,
    stein_inverse,
    gordon_inverse,
    baghdad_inverse,
    ffim_exact_inverse,
)


def brute_force_inverse(e, n):
    """Independent oracle: scan every candidate d."""
    for d in range(1, n):
        if (e * d) % n == 1:
            return d
    raise AssertionError(f"no inverse of {e} mod {n}")


class TestMakePair:
    def test_plain(self):
        p = ModPair(7, 60)
        assert (p.e, p.n) == (7, 60)

    def test_reduces_modulo_n(self):
        p = ModPair(67, 60)
        assert (p.e, p.n) == (7, 60)

    def test_non_coprime_names_divisor(self):
        with pytest.raises(NoInverseError) as exc:
            ModPair(6, 60)
        assert exc.value.common_divisor == 6

    def test_zero_residue_rejected(self):
        with pytest.raises(DomainError):
            ModPair(120, 60)

    def test_small_modulus_rejected(self):
        with pytest.raises(DomainError):
            ModPair(1, 1)


class TestSequential:
    def test_worked_example(self):
        o = sequential_inverse(ModPair(7, 60))
        assert o.d == 43
        assert o.iterations == 43

    def test_unit_operand(self):
        o = sequential_inverse(ModPair(1, 10))
        assert o.d == 1
        assert o.iterations == 1

    def test_against_oracle(self):
        o = sequential_inverse(ModPair(3, 10))
        assert o.d == brute_force_inverse(3, 10) == 7
        assert o.iterations == 7


class TestEuclid:
    def test_worked_example(self):
        o = euclid_inverse(ModPair(7, 60))
        assert o.d == 43
        assert o.iterations == 4
        assert o.ops.divisions == 4

    def test_unit_operand(self):
        assert euclid_inverse(ModPair(1, 10)).d == 1

    def test_against_oracle(self):
        assert euclid_inverse(ModPair(3, 10)).d == 7


def reference_stein(e, n):
    """Stein's loop as the textbook writes it, with all three cofactors of
    u, v and t (the three-cofactor stein_inverse, frozen here). Returns
    (d, iterations, ops, rows)."""
    u1, u2, u3 = 1, 0, e
    v1, v2, v3 = n, 1 - e, n
    if e & 1:
        t1, t2, t3 = 0, -1, -n
    else:
        t1, t2, t3 = 1, 0, e
    rows = [(u1, u2, u3, v1, v2, v3, t1, t2, t3)]
    halvings = fixes = flips = wraps = its = 0
    while True:
        its += 1
        while t3 & 1 == 0:
            t3 >>= 1
            halvings += 1
            if t1 & 1 == 0 and t2 & 1 == 0:
                t1 >>= 1
                t2 >>= 1
            else:
                t1 = (t1 + n) >> 1
                t2 = (t2 - e) >> 1
                fixes += 1
        if t3 > 0:
            u1, u2, u3 = t1, t2, t3
        else:
            v1, v2, v3 = n - t1, -(e + t2), -t3
            flips += 1
        t1, t2, t3 = u1 - v1, u2 - v2, u3 - v3
        if t1 < 0:
            t1 += n
            t2 -= e
            wraps += 1
        rows.append((u1, u2, u3, v1, v2, v3, t1, t2, t3))
        if t3 == 0:
            break
    ops = OpCounts(
        additions=fixes + flips + wraps,
        subtractions=fixes + 2 * flips + wraps + 3 * its,
        shifts=3 * halvings,
        comparisons=2 * halvings + 4 * its,
    )
    return u1 % n, its, ops, rows


def parity_class_pairs(count, bits, seed):
    """count coprime pairs with a bits-bit n in each parity class: n odd and
    e odd, n odd and e even, n even (e then odd)."""
    rng = random.Random(seed)
    pairs = []
    for n_low, e_low in ((1, 1), (1, 0), (0, 1)):
        drawn = 0
        while drawn < count:
            n = (rng.getrandbits(bits) | (1 << (bits - 1))) & ~1 | n_low
            e = (rng.getrandbits(bits) % n) & ~1 | e_low
            if 0 < e < n and math.gcd(e, n) == 1:
                pairs.append(ModPair(e, n))
                drawn += 1
    return pairs


def assert_stein_matches_reference(p):
    rows = []
    o = stein_inverse(p, rows.append)
    d, its, ops, ref_rows = reference_stein(p.e, p.n)
    assert (o.d, o.iterations, o.ops) == (d, its, ops), p
    assert rows == ref_rows, p
    assert stein_inverse(p) == o, p


class TestStein:
    def test_worked_example(self):
        assert stein_inverse(ModPair(7, 60)).d == 43

    def test_unit_operand(self):
        assert stein_inverse(ModPair(1, 3)).d == 1

    def test_against_oracle(self):
        assert stein_inverse(ModPair(3, 10)).d == 7

    def test_passes_within_proven_bound(self):
        # the loop's cap is 4*(bits) + 16; the proof in stein_inverse bounds
        # the passes by bits = e.bit_length() + n.bit_length()
        pairs = [ModPair(e, n) for n in range(2, 513) for e in range(1, n) if math.gcd(e, n) == 1]
        pairs += random_pairs(64, 2048, seed=2009)  # the golden 2048-bit pairs
        for p in pairs:
            bits = p.e.bit_length() + p.n.bit_length()
            assert stein_inverse(p).iterations <= bits < 4 * bits + 16, p

    def test_matches_three_cofactor_reference_small(self):
        # every coprime pair with n <= 300: outcome, tallies and every row.
        # e = 1 with an even n is where the wrap test's c == 0 clause fires:
        # there u2 = v2 = 0, so a pass can form t2 = 0 with t3 < 0
        for n in range(2, 301):
            for e in range(1, n):
                if math.gcd(e, n) == 1:
                    assert_stein_matches_reference(ModPair(e, n))

    @pytest.mark.parametrize("bits", [64, 256, 2048, 4096])
    def test_matches_three_cofactor_reference_at_key_sizes(self, bits):
        pairs = parity_class_pairs(6 if bits > 256 else 40, bits, seed=bits)
        assert {(p.n & 1, p.e & 1) for p in pairs} == {(1, 1), (1, 0), (0, 1)}
        for p in pairs:
            assert_stein_matches_reference(p)


def reference_gordon(e, n):
    """Gordon's loop with a swap as a pass of its own, which goes back to
    the loop guard before it shifts (gordon_inverse's earlier loop, frozen
    here). Returns (d, iterations, ops, rows)."""
    g, u = n, e
    i, v = 0, 1
    swaps = passes = doublings = 0
    rows = [(g, u, i, v, 0)]
    while u > 0:
        if u > g:
            swaps += 1
            g, u = u, g
            i, v = v, i
            rows.append((g, u, i, v, 0))
            continue
        s = g.bit_length() - u.bit_length()
        us = u << s
        if us > g:
            s -= 1
            us >>= 1
        passes += 1
        doublings += s + 1
        g, u = u, g - us
        i, v = v, i - (v << s)
        rows.append((g, u, i, v, 1 << s))
    ops = OpCounts(
        additions=doublings,
        subtractions=2 * passes,
        shifts=doublings + 2 * passes,
        comparisons=2 * swaps + 3 * passes + doublings + 1,
    )
    return i % n, swaps + passes, ops, rows


def assert_gordon_matches_reference(p):
    """gordon_inverse equals the frozen loop; returns its swap-row count."""
    rows = []
    o = gordon_inverse(p, rows.append)
    d, its, ops, ref_rows = reference_gordon(p.e, p.n)
    assert (o.d, o.iterations, o.ops) == (d, its, ops), p
    assert rows == ref_rows, p
    assert gordon_inverse(p) == o, p
    return sum(1 for row in rows[1:] if row[4] == 0)


class TestGordon:
    def test_worked_example(self):
        assert gordon_inverse(ModPair(7, 60)).d == 43

    def test_unit_operand(self):
        assert gordon_inverse(ModPair(1, 10)).d == 1

    def test_against_oracle(self):
        assert gordon_inverse(ModPair(3, 10)).d == 7

    def test_no_multiply_or_divide(self):
        ops = gordon_inverse(ModPair(7, 60)).ops
        assert ops.multiplications == 0
        assert ops.divisions == 0

    def test_matches_reference_small(self):
        # every coprime pair with n <= 300: outcome, tallies and every row
        swap_rows = 0
        for n in range(2, 301):
            for e in range(1, n):
                if math.gcd(e, n) == 1:
                    swap_rows += assert_gordon_matches_reference(ModPair(e, n))
        assert swap_rows > 0

    @pytest.mark.parametrize("bits", [64, 256, 2048, 4096])
    def test_matches_reference_at_key_sizes(self, bits):
        pairs = parity_class_pairs(6 if bits > 256 else 40, bits, seed=bits)
        assert sum(assert_gordon_matches_reference(p) for p in pairs) > 0


class TestBaghdad:
    def test_worked_example(self):
        o = baghdad_inverse(ModPair(7, 60))
        assert o.d == 43
        assert o.iterations == 5

    def test_unit_operand_normalized(self):
        # raw value n + 1 = 11 reduces to 1
        o = baghdad_inverse(ModPair(1, 10))
        assert o.d == 1
        assert o.iterations == 1

    def test_against_hand_iteration(self):
        # 11/3 is not an integer, 21/3 = 7 is
        o = baghdad_inverse(ModPair(3, 10))
        assert o.d == brute_force_inverse(3, 10) == 7
        assert o.iterations == 2


class TestFfimExact:
    def test_worked_example(self):
        o = ffim_exact_inverse(ModPair(7, 60))
        assert o.d == 43
        assert o.iterations == 3
        assert o.k == 5  # r = 4 at i = 3, k = r + 1

    def test_solved_at_start(self):
        # (13 + 1) mod 7 = 0, so d = 14/7 = 2 without entering the loop
        o = ffim_exact_inverse(ModPair(7, 13))
        assert o.d == brute_force_inverse(7, 13) == 2
        assert o.iterations == 0

    def test_unit_operand(self):
        assert ffim_exact_inverse(ModPair(1, 10)).d == 1


class TestVerifyAndWitness:
    def test_verify_true(self):
        assert verify_inverse(ModPair(7, 60), 43)
        assert verify_inverse(ModPair(3, 10), 7)  # 21 mod 10 = 1

    def test_verify_false(self):
        assert not verify_inverse(ModPair(7, 60), 42)
        assert not verify_inverse(ModPair(7, 60), 0)
        assert not verify_inverse(ModPair(7, 60), 103)

    def test_witness_values(self):
        assert witness_k(ModPair(7, 60), 43) == 5  # (7*43 - 1)/60
        assert witness_k(ModPair(1, 10), 1) == 0
        assert witness_k(ModPair(3, 10), 7) == 2  # (21 - 1)/10

    def test_witness_rejects_non_inverse(self):
        with pytest.raises(DomainError):
            witness_k(ModPair(7, 60), 42)

    @pytest.mark.parametrize("d", [0, 103, -17])
    def test_witness_rejects_out_of_range(self, d):
        # 103 and -17 are 43 mod 60, the inverse of 7: only the range test
        # refuses them
        with pytest.raises(DomainError, match=f"{d} is not the inverse of 7 modulo 60"):
            witness_k(ModPair(7, 60), d)


@pytest.mark.parametrize("func", ALL_EXACT)
def test_outcome_contract_on_example(func):
    p = ModPair(7, 60)
    o = func(p)
    assert 1 <= o.d < p.n
    assert p.e * o.d == 1 + o.k * p.n
    assert 0 <= o.k < p.e


@pytest.mark.parametrize("alg", AlgorithmId)
def test_every_table_member_runs_everywhere(alg, monkeypatch):
    # each member has a function that the tracer and the harness both run
    p = ModPair(7, 60)
    assert alg.func(p).d == 43
    outcome, trace = traced_inverse(alg, p)
    assert outcome.d == trace.final.d == 43
    func, outcomes = alg.func, []
    monkeypatch.setattr(alg, "func", lambda p: outcomes.append(func(p)) or outcomes[-1])
    (row,) = benchmark.run_benchmark([p], [alg], repetitions=1).rows
    assert [o.d for o in outcomes] == [43]
    assert (row.algorithm, row.samples, row.failures) == (alg.value, 1, 0)


def test_large_operands():
    # 128-bit pair; cross-checked between structurally different algorithms
    n = (1 << 127) + 1
    e = (1 << 64) + 13
    p = ModPair(e, n)
    d = euclid_inverse(p).d
    assert (e * d) % n == 1
    assert stein_inverse(p).d == d
    assert gordon_inverse(p).d == d


# The README example: euclid_inverse(ModPair(7, 60)).
EXAMPLE_REPR = (
    "InverseOutcome(d=43, k=5, iterations=4, ops=OpCounts(additions=0, "
    "subtractions=8, multiplications=8, divisions=4, shifts=0, comparisons=5))"
)


def _bench_row(mean_ns):
    return benchmark.BenchRow(
        "euclid", 8, "fixed:3", 2, 4.0, 4.0, 5, 4.0, 8.0, 0.0, 8.0, 0.0, 5.0, mean_ns, 0
    )


def _example_values():
    """Two equal but separately built instances of each hashable record (a
    FailureReport holds a dict). The fourth outcome's ops is never read
    before the test gets it; its twin is built directly with an OpCounts."""
    return [
        (ModPair(7, 60), ModPair(67, 60)),
        (OpCounts(1, 2, 3, 4, 5, 6), OpCounts(1, 2, 3, 4, 5, 6)),
        (euclid_inverse(ModPair(7, 60)), euclid_inverse(ModPair(67, 60))),
        (stein_inverse(ModPair(7, 60)), InverseOutcome(43, 5, 4, OpCounts(8, 22, 0, 0, 21, 30))),
        (
            traced_inverse(AlgorithmId.EUCLID, ModPair(7, 60))[1],
            traced_inverse(AlgorithmId.EUCLID, ModPair(67, 60))[1],
        ),
        (floatlab.ulp_gap(ModPair(7, 60)), floatlab.ulp_gap(ModPair(67, 60))),
        (
            floatlab.probe(ModPair(7, 60), 1e-9),
            floatlab.FloatProbeResult(7, 60, 1e-9, 5, 3, 43, 0.0, "agree"),
        ),
        (
            benchmark.WorkloadSpec(16, 4, [3, 5], 1),
            benchmark.WorkloadSpec(n_bits=16, samples=4, e_mode=(3, 5), seed=1),
        ),
        (_bench_row(812.5), _bench_row(812.5)),
        (benchmark.BenchReport((_bench_row(1.5),)), benchmark.BenchReport((_bench_row(1.5),))),
    ]


class TestResultTypes:
    def test_field_names_and_order(self):
        names = lambda cls: [f.name for f in dataclasses.fields(cls)]
        assert names(ModPair) == ["e", "n"]
        assert names(OpCounts) == [
            "additions",
            "subtractions",
            "multiplications",
            "divisions",
            "shifts",
            "comparisons",
        ]
        assert names(InverseOutcome) == ["d", "k", "iterations", "ops"]

    def test_repr_of_readme_example(self):
        assert repr(ModPair(7, 60)) == "ModPair(e=7, n=60)"
        assert repr(euclid_inverse(ModPair(7, 60))) == EXAMPLE_REPR

    def test_equal_values_equal_objects_and_hashes(self):
        for a, b in _example_values():
            assert a is not b
            assert a == b
            assert hash(a) == hash(b)
        assert ModPair(7, 60) != ModPair(7, 61)
        assert OpCounts(shifts=1) != OpCounts()
        assert len({OpCounts(), OpCounts(), OpCounts(comparisons=1)}) == 2

    def test_fields_are_frozen(self):
        for value, _ in _example_values():
            for f in dataclasses.fields(value):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(value, f.name, 1)

    def test_replace_astuple_copy_and_pickle(self):
        p = ModPair(7, 60)
        assert dataclasses.replace(p, e=67) == p  # replace validates again
        with pytest.raises(NoInverseError):
            dataclasses.replace(p, e=6)
        o = euclid_inverse(p)
        changed = dataclasses.replace(o, iterations=9)
        assert (changed.d, changed.k, changed.iterations, changed.ops) == (43, 5, 9, o.ops)
        assert dataclasses.astuple(p) == (7, 60)
        assert dataclasses.astuple(o) == (43, 5, 4, (0, 8, 8, 4, 0, 5))
        for value, _ in _example_values():
            assert copy.copy(value) == value
            assert copy.deepcopy(value) == value
            restored = pickle.loads(pickle.dumps(value))
            assert restored == value
            assert hash(restored) == hash(value)
            assert type(restored) is type(value)

    def test_modpair_keywords_normalize(self):
        p = ModPair(e=-1, n=7)
        assert p.e == 6
        assert p.n == 7

    def test_opcounts_defaults_to_zero(self):
        assert dataclasses.astuple(OpCounts()) == (0, 0, 0, 0, 0, 0)
        assert OpCounts(divisions=2) == OpCounts(0, 0, 0, 2, 0, 0)

    def test_opcounts_add(self):
        total = OpCounts(1, 2, 3, 4, 5, 6) + OpCounts(comparisons=10)
        assert total == OpCounts(1, 2, 3, 4, 5, 16)

    @pytest.mark.parametrize("other", [1, (0,) * 6, InverseOutcome(43, 5, 4, OpCounts())])
    def test_opcounts_add_refuses_other_types(self, other):
        # __add__ returns NotImplemented, so Python raises its own TypeError
        with pytest.raises(TypeError, match="unsupported operand"):
            OpCounts() + other

    def test_modpair_errors_unchanged(self):
        with pytest.raises(DomainError, match="modulus must be >= 2, got 1"):
            ModPair(1, 1)
        with pytest.raises(DomainError, match="operand 120 is 0 modulo 60"):
            ModPair(120, 60)
        with pytest.raises(NoInverseError, match=r"gcd\(6, 60\) = 6"):
            ModPair(66, 60)


def _dataclass_twin(cls):
    """The class a plain @dataclass(frozen=True) makes from cls's fields."""
    spec = [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


RECORDS = [
    ModPair,
    OpCounts,
    InverseOutcome,
    instrumentation.StepTrace,
    floatlab.UlpGap,
    floatlab.FloatProbeResult,
    floatlab.FailureReport,
    benchmark.WorkloadSpec,
    benchmark.BenchRow,
    benchmark.BenchReport,
]


@pytest.mark.parametrize(
    "cls",
    [
        OpCounts,
        InverseOutcome,
        floatlab.FloatProbeResult,
        instrumentation.StepTrace,
        floatlab.UlpGap,
        floatlab.FailureReport,
        benchmark.BenchRow,
        benchmark.BenchReport,
    ],
    ids=lambda c: c.__name__,
)
def test_record_init_matches_dataclass(cls):
    twin = _dataclass_twin(cls)
    assert inspect.signature(cls) == inspect.signature(twin)
    fields = dataclasses.fields(cls)
    required = sum(f.default is dataclasses.MISSING for f in fields)
    bad_calls = [
        lambda c: c(*range(len(fields)), no_such_field=0),
        lambda c: c(*range(len(fields) + 1)),
    ]
    if required:  # every OpCounts field has a default
        bad_calls.append(lambda c: c(*range(required - 1)))
    for call in bad_calls:
        messages = []
        for c in (twin, cls):
            with pytest.raises(TypeError) as info:
                call(c)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _one_of_each_record():
    values = {type(a): a for a, _ in _example_values()}
    values[floatlab.FailureReport] = floatlab.scan_failures(3, 8, 1, 16, 1e-3, 1)
    return values


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_matches_frozen_dataclass(cls):
    value = _one_of_each_record()[cls]
    assert type(value) is cls
    twin = _dataclass_twin(cls)
    names = [f.name for f in dataclasses.fields(cls)]
    twin_value = twin(**{name: getattr(value, name) for name in names})
    assert cls.__match_args__ == twin.__match_args__
    assert repr(value) == repr(twin_value)
    assert dataclasses.asdict(value) == dataclasses.asdict(twin_value)
    assert dataclasses.astuple(value) == dataclasses.astuple(twin_value)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(value, name)


class TestLazyTallies:
    """An outcome keeps its tallies as a tuple until ops is first read."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The OpCounts objects built while the test runs."""
        built = []
        init = OpCounts.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(OpCounts, "__init__", counting_init)
        return built

    # (e, n): a scan past SCAN_PREFIX, a literal scan, and a = (n + 1) mod e = 0
    PAIRS = [(654321, 1000003), (7, 60), (7, 13)]

    def test_untraced_runs_build_none(self, built):
        outcomes = [func(ModPair(e, n)) for func in ALL_EXACT for e, n in self.PAIRS]
        outcomes += [floatlab.ffim_float_inverse(ModPair(e, n), 1e-9) for e, n in self.PAIRS]
        assert len({o.d for o in outcomes[:6 * len(self.PAIRS)]}) == len(self.PAIRS)
        assert built == []

    @pytest.mark.parametrize("func", ALL_EXACT, ids=lambda f: f.__name__)
    def test_first_read_builds_one_and_keeps_it(self, built, func):
        o = func(ModPair(7, 60))
        ops = o.ops
        assert len(built) == 1 and built[0] is ops
        assert o.ops is ops
        assert dataclasses.astuple(o) == (43, 5, o.iterations, dataclasses.astuple(ops))
        assert len(built) == 1

    def test_float_outcome_reads_as_exact_one(self):
        p = ModPair(7, 60)
        assert floatlab.ffim_float_inverse(p, 1e-9) == ffim_exact_inverse(p)

    def test_direct_construction_keeps_the_given_opcounts(self, built):
        ops = OpCounts(0, 8, 8, 4, 0, 5)
        o = InverseOutcome(43, 5, 4, ops)
        assert o.ops is ops
        assert o == euclid_inverse(ModPair(7, 60))
        assert len(built) == 2  # ops, and the euclid outcome's on its first read

    def test_pickle_of_unread_outcome_carries_opcounts(self):
        restored = pickle.loads(pickle.dumps(euclid_inverse(ModPair(7, 60))))
        assert type(vars(restored)["ops"]) is OpCounts
        assert restored == InverseOutcome(43, 5, 4, OpCounts(0, 8, 8, 4, 0, 5))


def test_public_dataclass_hints_resolve():
    import modinv

    classes = [getattr(modinv, name) for name in modinv.__all__]
    classes = [c for c in classes if isinstance(c, type) and dataclasses.is_dataclass(c)]
    assert {c.__name__ for c in classes} >= {"InverseOutcome", "UlpGap", "StepTrace"}
    for cls in classes:
        hints = typing.get_type_hints(cls)
        assert list(hints) == [f.name for f in dataclasses.fields(cls)], cls


class TestOutcomeRefusal:
    @pytest.mark.parametrize("d_raw", [42, 44, 1, 0, 60, -60, 120])
    def test_non_inverse_raises_naming_value(self, d_raw):
        # the inverse of 7 mod 60 is 43
        with pytest.raises(InternalConsistencyError, match=f"produced {d_raw} which"):
            _outcome(ModPair(7, 60), d_raw, 1, OpCounts())

    def test_zero_residue_refused_at_every_small_modulus(self):
        # d_raw = 0 mod n must fail the check for every pair, n = 2 included
        for n in range(2, 40):
            for e in range(1, n):
                if math.gcd(e, n) == 1:
                    for d_raw in (0, n, -n, 5 * n):
                        with pytest.raises(InternalConsistencyError, match=f"produced {d_raw} which"):
                            _outcome(ModPair(e, n), d_raw, 0, OpCounts())

    @pytest.mark.parametrize("d_raw", [43, 103, 43 - 3 * 60])
    def test_inverse_accepted_and_reduced(self, d_raw):
        ops = OpCounts(additions=1)
        o = _outcome(ModPair(7, 60), d_raw, 4, ops)
        assert o == InverseOutcome(d=43, k=5, iterations=4, ops=ops)


class TestPublicApi:
    def test_every_public_name_resolves(self):
        import modinv

        namespace = {}
        exec("from modinv import *", namespace)
        for name in modinv.__all__:
            assert namespace[name] is getattr(modinv, name)
        assert set(modinv.__all__) <= set(dir(modinv))

    def test_unknown_attribute_raises(self):
        import modinv

        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            modinv.no_such_name

    def test_errors_mapped_by_base_class(self):
        # the CLI maps core's classes only: a refusal is a DomainError (exit
        # 2), a failed verification an InternalConsistencyError (exit 1)
        from modinv import core, instrumentation

        assert issubclass(core.TraceTooLongError, core.DomainError)
        assert instrumentation.TraceTooLongError is core.TraceTooLongError


# ----------------------------------------------------------------------------
# Every exception class of core, floatlab and benchmark survives pickling, as
# multiprocessing needs. Each case raises its error the way the library does;
# the trace refusal and a second sequential refusal are raised under a patched
# MAX_TRACE_ROWS or SEQUENTIAL_BUDGET and unpickled after the patch is undone,
# so their messages must travel as built.


def _trace_refusal(monkeypatch):
    monkeypatch.setattr(core, "MAX_TRACE_ROWS", 3)
    traced_inverse(AlgorithmId.SEQUENTIAL, ModPair(7, 60))


def _benchmark_error(monkeypatch):
    monkeypatch.setattr(benchmark, "verify_inverse", lambda p, d: False)
    benchmark.run_benchmark([ModPair(7, 60)], [AlgorithmId.EUCLID])


def _float_inverse_failure(monkeypatch):
    # the library raises only its subclasses
    raise floatlab.FloatInverseFailure("float scan failed", i=7)


RAISERS = {
    "DomainError": lambda monkeypatch: ModPair(3, 1),
    "NoInverseError": lambda monkeypatch: ModPair(4, 6),
    "InternalConsistencyError": lambda monkeypatch: _outcome(ModPair(7, 60), 42, 1, OpCounts()),
    "ScanBudgetError": lambda monkeypatch: sequential_inverse(
        ModPair(3, 3 * SEQUENTIAL_BUDGET + 1)
    ),
    "TraceTooLongError": _trace_refusal,
    "FloatInverseFailure": _float_inverse_failure,
    "MissedTermination": lambda monkeypatch: floatlab.ffim_float_inverse(
        ModPair(305, 157628349846431), 1e-14
    ),
    "WrongAnswer": lambda monkeypatch: floatlab.ffim_float_inverse(
        ModPair(4421, 1293272975), 1e-3
    ),
}


def test_raisers_cover_every_exception_class():
    defined = {
        name
        for module in (core, floatlab, benchmark)
        for name, value in vars(module).items()
        if isinstance(value, type)
        and issubclass(value, BaseException)
        and value.__module__ == module.__name__
    }
    assert defined == set(RAISERS)


def _generation_refusal(monkeypatch):
    # no 2-bit modulus lies above e = 4
    benchmark.generate_workload(
        benchmark.WorkloadSpec(n_bits=2, samples=1, e_mode=(4,), seed=0)
    )


def _patched_budget_refusal(monkeypatch):
    monkeypatch.setattr(core, "SEQUENTIAL_BUDGET", 10)
    sequential_inverse(ModPair(3, 10**6 + 3))


@pytest.mark.parametrize(
    "name, raiser",
    [pytest.param(name, RAISERS[name], id=name) for name in sorted(RAISERS)]
    + [
        pytest.param(
            "ScanBudgetError", _patched_budget_refusal, id="ScanBudgetError-patched"
        ),
        pytest.param("DomainError", _generation_refusal, id="DomainError-generation"),
        pytest.param(
            "InternalConsistencyError", _benchmark_error, id="InternalConsistencyError-bench"
        ),
    ],
)
def test_exception_pickle_round_trip(name, raiser, monkeypatch):
    with pytest.raises(Exception) as info:
        raiser(monkeypatch)
    err = info.value
    assert type(err).__name__ == name
    monkeypatch.undo()
    restored = pickle.loads(pickle.dumps(err))
    assert type(restored) is type(err)
    assert str(restored) == str(err)
    for attr in ("e", "n", "common_divisor", "i"):
        assert getattr(restored, attr, None) == getattr(err, attr, None), attr


def test_refusals_carry_their_data(monkeypatch):
    assert core.ScanBudgetError().args == (SEQUENTIAL_BUDGET,)
    monkeypatch.setattr(core, "MAX_TRACE_ROWS", 3)
    # euclid is refused by the tracer's row cap, sequential by the scan's limit
    for alg in (AlgorithmId.EUCLID, AlgorithmId.SEQUENTIAL):
        with pytest.raises(core.TraceTooLongError) as refusal:
            traced_inverse(alg, ModPair(7, 60))
        assert refusal.value.args == (alg.value, 3)
        assert type(refusal.value.args[0]) is str
    with pytest.raises(NoInverseError) as refusal:
        ModPair(4, 6)
    assert refusal.value.args == (4, 6, 2)
