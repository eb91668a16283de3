"""Golden digests of every trace and every outcome over fixed inputs.

A change to any trace row, to its JSON rendering, to an inverse, witness,
iteration count or operation tally changes one of the digests. Update a
digest only for an intended change of output, and say so where the change
is recorded. From ``tests/``: ``python -c "import test_golden as t;
print(t._sha256(t.outcome_lines()))"`` prints the current outcome digest.
"""

import hashlib
import math
import random
from dataclasses import astuple

from modinv import AlgorithmId, ModPair, render_trace, traced_inverse
from modinv.instrumentation import ALGORITHM_FUNCS, EXACT_ALGORITHMS

TRACE_JSON_SHA256 = "6671b37ae5b00ddbfb66676b999700e4ae30a6ba5f4d307b14741dc795ce411b"
OUTCOME_SHA256 = "ee42c1b659641697afdff495f12057b672ce799e20ac4b9789638f51953208a4"

LOG_TIME_ALGORITHMS = (AlgorithmId.EUCLID, AlgorithmId.STEIN, AlgorithmId.GORDON)


def _coprime_pairs(n_max):
    for n in range(2, n_max + 1):
        for e in range(1, n):
            if math.gcd(e, n) == 1:
                yield ModPair(e, n)


def _random_pairs(count, bits, seed):
    rng = random.Random(seed)
    pairs = []
    while len(pairs) < count:
        n = rng.getrandbits(bits) | (1 << (bits - 1))
        e = rng.getrandbits(bits) % n
        if e and math.gcd(e, n) == 1:
            pairs.append(ModPair(e, n))
    return pairs


def _sha256(lines):
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def trace_json_lines():
    for p in _coprime_pairs(64):
        for alg in EXACT_ALGORITHMS:
            _, trace = traced_inverse(alg, p)
            yield render_trace(trace, "json")


def outcome_lines():
    cases = [(alg, p) for p in _coprime_pairs(256) for alg in EXACT_ALGORITHMS]
    cases += [
        (alg, p)
        for p in _random_pairs(64, 2048, seed=2009)
        for alg in LOG_TIME_ALGORITHMS
    ]
    for alg, p in cases:
        o = ALGORITHM_FUNCS[alg](p)
        yield repr((alg.value, p.e, p.n, o.d, o.k, o.iterations, astuple(o.ops)))


def test_trace_json_digest():
    assert _sha256(trace_json_lines()) == TRACE_JSON_SHA256


def test_outcome_digest():
    assert _sha256(outcome_lines()) == OUTCOME_SHA256
