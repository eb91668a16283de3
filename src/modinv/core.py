"""Exact-arithmetic modular multiplicative inverse algorithms.

All functions operate on Python's arbitrary-precision integers. Each
algorithm returns an :class:`InverseOutcome` carrying the inverse, the
Bezout-style witness, the iteration count, and per-operation tallies of
its main loop.

Each algorithm also takes an optional ``sink``, called with one row per
loop pass (after a row for the initial state in Euclid, Stein and Gordon)
laid out as the ``headers`` of its :class:`AlgorithmId` member.
:class:`AlgorithmId`, at the end of this module, is the table of
algorithms that the tracer, the benchmark harness and the CLI dispatch
through.
"""

from __future__ import annotations

import copyreg
import enum
import math
from collections.abc import Callable
from dataclasses import dataclass


class DomainError(ValueError):
    """Input outside an operation's domain."""


class NoInverseError(ValueError):
    """The operand shares a nontrivial divisor with the modulus."""

    def __init__(self, e: int, n: int, common_divisor: int):
        super().__init__(f"no inverse: gcd({e}, {n}) = {common_divisor}")
        self.e = e
        self.n = n
        self.common_divisor = common_divisor

    def __reduce__(self):  # pickle would pass the message to __init__
        return type(self), (self.e, self.n, self.common_divisor)


class InternalConsistencyError(RuntimeError):
    """A provably unreachable iteration cap was exhausted."""


class ScanBudgetError(DomainError):
    """The literal sequential scan was refused: its index passes
    SEQUENTIAL_BUDGET."""

    def __init__(self):
        super().__init__(
            f"sequential scan passed SEQUENTIAL_BUDGET = {SEQUENTIAL_BUDGET} steps"
        )

    def __reduce__(self):  # pickle would pass the message to __init__
        return type(self), ()


class TraceTooLongError(DomainError):
    """Tracing refused: the run would record more than MAX_TRACE_ROWS rows."""

    def __init__(self, alg):
        super().__init__(
            f"trace of {alg} would exceed {MAX_TRACE_ROWS} rows; run untraced instead"
        )

    def __reduce__(self):  # keep the message, whose cap may have been patched since
        return copyreg.__newobj__, (type(self), *self.args)


def gcd(a: int, b: int) -> int:
    """Greatest common divisor of two nonnegative integers."""
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    if a < 0 or b < 0:
        raise DomainError("gcd arguments must be nonnegative")
    return math.gcd(a, b)


# The result types are frozen dataclasses whose __init__ writes the fields into
# __dict__ directly: the generated frozen __init__ sends each one through
# object.__setattr__, which costs more than the log-time loops at small n.
@dataclass(frozen=True, init=False)
class ModPair:
    """A validated problem instance: find the inverse of e modulo n.

    Construction normalizes e into [1, n) and rejects non-coprime pairs,
    so every ModPair in existence has an inverse.
    """

    e: int
    n: int

    def __init__(self, e: int, n: int):
        if n < 2:
            raise DomainError(f"modulus must be >= 2, got {n}")
        r = e % n
        if r == 0:
            raise DomainError(f"operand {e} is 0 modulo {n}")
        g = math.gcd(r, n)
        if g != 1:
            raise NoInverseError(r, n, g)
        fields = self.__dict__
        fields["e"] = r
        fields["n"] = n


@dataclass(frozen=True, init=False)
class OpCounts:
    """Tallies of the arithmetic operations executed by an algorithm's
    main loop."""

    additions: int = 0
    subtractions: int = 0
    multiplications: int = 0
    divisions: int = 0
    shifts: int = 0
    comparisons: int = 0

    def __init__(
        self,
        additions: int = 0,
        subtractions: int = 0,
        multiplications: int = 0,
        divisions: int = 0,
        shifts: int = 0,
        comparisons: int = 0,
    ):
        fields = self.__dict__
        fields["additions"] = additions
        fields["subtractions"] = subtractions
        fields["multiplications"] = multiplications
        fields["divisions"] = divisions
        fields["shifts"] = shifts
        fields["comparisons"] = comparisons

    def __add__(self, other: "OpCounts") -> "OpCounts":
        return OpCounts(
            self.additions + other.additions,
            self.subtractions + other.subtractions,
            self.multiplications + other.multiplications,
            self.divisions + other.divisions,
            self.shifts + other.shifts,
            self.comparisons + other.comparisons,
        )


@dataclass(frozen=True, init=False)
class InverseOutcome:
    """Result of one inverse computation.

    Satisfies e*d = 1 + k*n exactly, with 1 <= d < n and 0 <= k < e.
    """

    d: int
    k: int
    iterations: int
    ops: OpCounts

    def __init__(self, d: int, k: int, iterations: int, ops: OpCounts):
        fields = self.__dict__
        fields["d"] = d
        fields["k"] = k
        fields["iterations"] = iterations
        fields["ops"] = ops


def verify_inverse(p: ModPair, d: int) -> bool:
    """True iff d is the canonical inverse of p.e modulo p.n."""
    return 1 <= d < p.n and (p.e * d) % p.n == 1


def witness_k(p: ModPair, d: int) -> int:
    """The integer k with e*d = 1 + k*n; requires d to be the inverse."""
    k, r = divmod(p.e * d - 1, p.n)
    if r or not 1 <= d < p.n:
        raise DomainError(f"{d} is not the inverse of {p.e} modulo {p.n}")
    return k


def _outcome(p: ModPair, d_raw: int, iterations: int, ops: OpCounts) -> InverseOutcome:
    # verify_inverse and k from one division: d lies in [0, n) and n >= 2,
    # so d = 0 leaves the remainder n - 1
    e, n = p.e, p.n
    d = d_raw % n
    k, r = divmod(e * d - 1, n)
    if r:
        raise InternalConsistencyError(
            f"algorithm produced {d_raw} which is not an inverse of {e} mod {n}"
        )
    return InverseOutcome(d, k, iterations, ops)


RowSink = Callable[[tuple], object]

# How far a literal scan may run: SCAN_PREFIX steps untraced (baghdad and
# ffim_exact), SEQUENTIAL_BUDGET untraced (sequential), MAX_TRACE_ROWS with a
# sink. _scan_index alone applies these limits.
SCAN_PREFIX = 1 << 12
SEQUENTIAL_BUDGET = 1 << 24
MAX_TRACE_ROWS = 10**6


def _scan(m: int, step: int, mod: int, cap: int, emit=None) -> int | None:
    """First j in [1, cap] with m + (j - 1)*step = 0 modulo mod, or None;
    needs 0 <= m, step < mod. An emit(j, residue) sees each candidate, the
    terminating one included."""
    for j in range(1, cap + 1):
        if emit is not None:
            emit(j, m)
        if not m:
            return j
        m += step
        if m >= mod:
            m -= mod
    return None


def _scan_closed(m: int, step: int, mod: int) -> int:
    """The index _scan(m, step, mod, mod) returns, in closed form: the first
    j >= 1 with m + (j - 1)*step = 0 modulo mod. Each exact scan's step is a
    unit modulo mod, which puts that j in [1, mod]:

    - sequential (step e, mod n): gcd(e, n) = 1;
    - baghdad (step n mod e, mod e): gcd(n mod e, e) = 1;
    - ffim_exact (step e mod b, mod b = n mod e): gcd(e mod b, b) = gcd(e, n) = 1.

    mod = 1 works too: pow(x, -1, 1) is 0.
    """
    return 1 + -m * pow(step, -1, mod) % mod


def _scan_index(alg, limit, m, step, mod, emit) -> int:
    """The terminating index of alg's scan _scan(m, step, mod, mod, emit),
    literal within the limit (MAX_TRACE_ROWS with an emit). When mod exceeds
    the limit the closed form comes first: an index past the limit is
    returned untraced, or refused before the first row with an emit."""
    limit = limit if emit is None else MAX_TRACE_ROWS
    if mod > limit and (j := _scan_closed(m, step, mod)) > limit:
        if emit is not None:
            raise TraceTooLongError(alg)
        return j
    j = _scan(m, step, mod, mod, emit)
    if j is None:
        raise InternalConsistencyError(f"{alg} scan passed {mod} steps")
    return j


def sequential_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Trivial search: try d = 1, 2, 3, ... until e*d is 1 modulo n."""
    e, n = p.e, p.n
    emit = None if sink is None else lambda d, m: sink((d, (m + 1) % n))
    # the residue is e*d - 1 mod n
    d = _scan_index("sequential", SEQUENTIAL_BUDGET, e - 1, e, n, emit)
    if d > SEQUENTIAL_BUDGET:  # the literal oracle refuses the closed form
        raise ScanBudgetError()
    # per candidate: one multiply (e*d), one reduction, one compare; d - 1
    # increments of the candidate itself
    ops = OpCounts(additions=d - 1, multiplications=d, divisions=d, comparisons=d)
    return _outcome(p, d, d, ops)


def euclid_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Extended Euclid: quotient/remainder steps with coefficient updates."""
    e, n = p.e, p.n
    g, u = n, e
    i, v = 0, 1
    its = 0
    if sink is not None:
        sink((g, u, i, v, 0, 0))
    while u > 0:
        q, r = divmod(g, u)
        g, u = u, r
        i, v = v, i - q * v
        its += 1
        if sink is not None:
            sink((g, u, i, v, q, v))
    # per pass: one division for q, two multiplies, two subtractions, the
    # loop-guard comparison (plus the final failing test)
    ops = OpCounts(
        subtractions=2 * its,
        multiplications=2 * its,
        divisions=its,
        comparisons=its + 1,
    )
    return _outcome(p, i, its, ops)


def _stein_row(
    e: int, n: int, prev: tuple, uc: int, u3: int, vc: int, v3: int, tc: int, t3: int
) -> tuple:
    """Stein's nine-column trace row after one pass, from the row before it
    and the kept cofactors uc, vc, tc (see stein_inverse).

    The cofactor not kept, o (x2 for odd n, x1 for even n), follows the kept
    one's rules with d = -e (odd n) or n (even n) in place of m: a parity fix
    adds d, a flip gives d - o and a wrap adds d. A pass's s halvings add
    K*m to the kept cofactor of t and K*d to its o before dividing by 2^s,
    so K comes back from the kept one by an exact division with an s-bit
    quotient. (Rebuilding o from x1*e + x2*n = x3 instead takes a
    full-size division per cofactor and row, which made a 2048-bit trace
    about 20 times slower than the three-cofactor loop's.)
    """
    if n & 1:
        m, d = n, -e
        ou, ov, ot, kt = prev[1], prev[4], prev[7], prev[6]
    else:
        m, d = e, n
        ou, ov, ot, kt = prev[0], prev[3], prev[6], -prev[7]
    t3p = prev[8]
    s = (t3p & -t3p).bit_length() - 1  # the pass's halvings
    if t3p > 0:  # the halved t became u
        k = ((uc << s) - kt) // m
        ou = (ot + k * d) >> s
    else:  # it flipped into v
        k = (((m - vc) << s) - kt) // m
        ov = d - ((ot + k * d) >> s)
    ot = ou - ov if tc == uc - vc else ou - ov + d  # a wrap added m to tc
    if n & 1:
        return (uc, ou, u3, vc, ov, v3, tc, ot, t3)
    return (ou, -uc, u3, ov, -vc, v3, ot, -tc, t3)


def stein_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Binary extended gcd: halving, addition, subtraction, comparison only.

    The textbook algorithm (Knuth, TAOCP Vol. 2, 4.5.2, Algorithm Y) keeps
    three vectors (x1, x2, x3) for x = u, v, t with x1*e + x2*n = x3, and
    halves an even t3 with the (t1 + n)/2, (t2 - e)/2 parity fix when t1
    and t2 are not both even. Given x3, one cofactor fixes the other, so
    the loop carries one, c, with its modulus m:

    - n odd: c = x1 and m = n. With t3 even, t1 even forces t2*n, and so
      t2, even: "t1 and t2 both even" is "c even".
    - n even (e is then odd): c = -x2 and m = e. With t3 and n even, t1*e
      is even, so t1 is: the test is "t2 even", again "c even".

    The fix, the sign flip v = (n - t1, -(e + t2), -t3) and the wrap
    t1 += n, t2 -= e then read c = (c + m)/2, vc = m - c and c += m. The
    wrap test t1 < 0 reads t1*e = t3 + c*n < 0 for even n; since |t3| < n
    after the first pass, that holds exactly when c < 0, or c = 0 and
    t3 < 0. For odd n, c = 0 forces t3 = 0, so the same test serves.

    The loop holds no negative big integer: t3 is its magnitude a >= 0 and
    a sign pos (t3 = 0 counts as positive), formed by comparing u3 with
    v3. CPython's & and >> on a negative int build a two's-complement copy
    first: the parity test costs about three times as much there. After the
    first pass u3 and v3 are odd, so a is even: each pass's halvings run
    at the bottom of the pass before, with no parity test on entry. Only
    the first pass's run, which may be empty, stands before the loop.

    The sink still sees all nine columns (_stein_row derives each row from
    the one before), and the tallies count the three-cofactor algorithm's
    operations.
    """
    e, n = p.e, p.n
    if n & 1:
        m = n
        uc, vc, tc = 1, n, 0 if e & 1 else 1
    else:
        m = e
        uc, vc, tc = 0, e - 1, 1
    u3, v3 = e, n
    a, pos = (n, False) if e & 1 else (e, True)
    if sink is not None:
        row = (1, 0, e, n, 1 - e, n) + ((0, -1, -n) if e & 1 else (1, 0, e))
        sink(row)
    halvings = fixes = flips = wraps = 0
    while not a & 1:
        a >>= 1
        halvings += 1
        if tc & 1:
            tc = (tc + m) >> 1
            fixes += 1
        else:
            tc >>= 1
    # The cap is unreachable: the loop makes at most e.bit_length() +
    # n.bit_length() passes (Stein 1967; Knuth, TAOCP Vol. 2, 4.5.2). After
    # the first pass u3 and v3 are odd with u3*v3 <= e*n (n is odd when e is
    # even). Each later pass halves t3 = u3 - v3, even and nonzero, at least
    # once and puts |t3| / 2^s < max(u3, v3) / 2 in place of the larger, so
    # u3*v3 more than halves while staying >= 1; the pass that makes t3 = 0
    # ends the loop.
    cap = 4 * (n.bit_length() + e.bit_length()) + 16
    for its in range(1, cap + 1):
        if pos:
            uc, u3 = tc, a
        else:
            vc, v3 = m - tc, a
            flips += 1
        tc = uc - vc
        if u3 >= v3:
            a, pos = u3 - v3, True
        else:
            a, pos = v3 - u3, False
        if tc < 0 or (tc == 0 and not pos):
            tc += m
            wraps += 1
        if sink is not None:
            row = _stein_row(e, n, row, uc, u3, vc, v3, tc, a if pos else -a)
            sink(row)
        if not a:
            break
        while True:
            a >>= 1
            halvings += 1
            if tc & 1:
                tc = (tc + m) >> 1
                fixes += 1
            else:
                tc >>= 1
            if a & 1:
                break
    else:
        raise InternalConsistencyError("binary gcd exceeded its iteration cap")
    # Per halving: the parity test, the even-t1/t2 test, 3 shifts; a parity
    # fix adds n and subtracts e. Per pass: the failing parity test, the sign
    # test, 3 subtractions forming t, the sign-fix test and the until test; a
    # sign flip costs 2 subtractions and an addition, a wrap one of each.
    ops = OpCounts(
        additions=fixes + flips + wraps,
        subtractions=fixes + 2 * flips + wraps + 3 * its,
        shifts=3 * halvings,
        comparisons=2 * halvings + 4 * its,
    )
    return _outcome(p, uc if n & 1 else (u3 + uc * n) // e, its, ops)


def gordon_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Euclid variant with power-of-two quotients found by shifting.

    Each pass replaces the true quotient by the largest 2**s with
    2**s * u <= g; a pass with u > g contributes quotient 0 (a plain
    swap). A swap leaves u < g, so its shifting pass follows in the same
    iteration; it is still its own pass, with its own row. The loop uses no
    multiplication and no division.
    """
    e, n = p.e, p.n
    g, u = n, e
    i, v = 0, 1
    swaps = passes = doublings = 0
    if sink is not None:
        sink((g, u, i, v, 0))
    while u > 0:
        if u > g:
            swaps += 1
            g, u = u, g
            i, v = v, i
            if sink is not None:
                sink((g, u, i, v, 0))
        s = g.bit_length() - u.bit_length()
        us = u << s
        if us > g:
            s -= 1
            us >>= 1
        passes += 1
        doublings += s + 1
        g, u = u, g - us
        i, v = v, i - (v << s)
        if sink is not None:
            sink((g, u, i, v, 1 << s))
    # tallies of a shift-and-compare search for s. Per swap: loop guard and
    # u > g test. Per shifting pass: those two, s + 1 doublings (shift, add,
    # compare), a failing compare, 2 shifts, 2 subtractions. One last guard.
    ops = OpCounts(
        additions=doublings,
        subtractions=2 * passes,
        shifts=doublings + 2 * passes,
        comparisons=2 * swaps + 3 * passes + doublings + 1,
    )
    return _outcome(p, i, swaps + passes, ops)


def baghdad_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Repeatedly add n to a running numerator until e divides it.

    The recurrence d = (d + n)/e only ever yields an integer at the final
    step, so the loop keeps the exact numerator 1 + j*n and tests
    divisibility by e instead of testing a real number for integrality.
    """
    e, n = p.e, p.n
    step = n % e
    emit = None
    if sink is not None:
        from fractions import Fraction

        emit = lambda k, m: sink(
            (Fraction(1 + k * n, e), "fraction" if m else "integer")
        )
    # the residue is (1 + k*n) mod e
    k = _scan_index("baghdad", SCAN_PREFIX, (1 + step) % e, step, e, emit)
    # per pass: one addition of n, one division by e, one integrality test
    ops = OpCounts(additions=k, divisions=k, comparisons=k)
    return _outcome(p, (1 + k * n) // e, k, ops)


def _ffim_outcome(p: ModPair, a: int, b: int, i: int) -> InverseOutcome:
    """Close the fraction-integer scan at its terminating index i, checking
    both divisions; a = 0 is already solved, with d = (n+1)/e at i = 0."""
    e, n = p.e, p.n
    if a == 0:
        return _outcome(p, (n + 1) // e, 0, OpCounts())
    num = i * e - a
    if num % b:
        raise InternalConsistencyError("terminating index does not divide evenly")
    d_num = n * (num // b + 1) + 1
    if d_num % e:
        raise InternalConsistencyError("closing formula numerator not divisible by e")
    # per pass: one subtraction and one division forming r, one integrality
    # test, one increment of i
    ops = OpCounts(additions=i, subtractions=i, divisions=i, comparisons=i)
    return _outcome(p, d_num // e, i, ops)


def ffim_exact_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Fraction-integer scan in exact integer arithmetic.

    With a = (n+1) mod e and b = n mod e, finds the smallest i >= 1 such
    that b divides i*e - a, sets r = (i*e - a)/b, and closes with
    d = (n*(r+1) + 1)/e. The scan tests every i in order when the
    terminating index is within the literal limit; beyond it the index
    comes in closed form, with the same outcome and counts, or a traced
    run refuses.
    """
    e, n = p.e, p.n
    a = (n + 1) % e
    b = n % e  # nonzero unless e = 1, where a = 0 too
    if a == 0:
        return _ffim_outcome(p, a, b, 0)
    emit = None
    if sink is not None:
        from fractions import Fraction

        s_f, d_f = Fraction(a, e), Fraction(b, e)  # the same in every row
        emit = lambda i, m: sink((i, s_f, d_f, Fraction(i * e - a, b)))
    # the residue is (i*e - a) mod b
    i = _scan_index("ffim_exact", SCAN_PREFIX, (e - a) % b, e % b, b, emit)
    return _ffim_outcome(p, a, b, i)


def ffim_closed_form(p: ModPair) -> InverseOutcome:
    """ffim_exact_inverse(p) with the terminating index always taken in closed
    form: the same outcome, counts included, in O(log n) time."""
    e, n = p.e, p.n
    a, b = (n + 1) % e, n % e
    return _ffim_outcome(p, a, b, _scan_closed((e - a) % b, e % b, b) if a else 0)


class AlgorithmId(enum.Enum):
    """The algorithm table. Each member's value is its name; ``func`` is its
    exact function and ``headers`` the layout of the rows its sink receives.
    The float variant lives in the float error lab and has neither."""

    def __new__(cls, value: str, func=None, headers=None):
        member = object.__new__(cls)
        member._value_ = value
        member.func = func
        member.headers = headers
        return member

    SEQUENTIAL = ("sequential", sequential_inverse, ("d", "e_d_mod_n"))
    EUCLID = ("euclid", euclid_inverse, ("g", "u", "i", "v", "q", "t"))
    STEIN = (
        "stein",
        stein_inverse,
        ("u1", "u2", "u3", "v1", "v2", "v3", "t1", "t2", "t3"),
    )
    GORDON = ("gordon", gordon_inverse, ("g", "u", "i", "v", "q"))
    BAGHDAD = ("baghdad", baghdad_inverse, ("d", "result"))
    FFIM_EXACT = ("ffim_exact", ffim_exact_inverse, ("i", "s_f", "d_f", "r"))
    FFIM_FLOAT = "ffim_float"

    def __str__(self) -> str:
        return self.value


EXACT_ALGORITHMS = tuple(alg for alg in AlgorithmId if alg.func is not None)


def run_exhaustive_validation(n_max: int):
    """Check every exact algorithm against the sequential oracle for all
    coprime pairs with n <= n_max.

    Returns (pairs_checked, first_discrepancy) where the discrepancy is
    (algorithm, e, n) or None.
    """
    if not 2 <= n_max <= SCAN_PREFIX:  # so every scan runs its literal loop
        raise DomainError(f"n_max must be in [2, {SCAN_PREFIX}], got {n_max}")
    others = [a for a in EXACT_ALGORITHMS if a is not AlgorithmId.SEQUENTIAL]
    checked = 0
    for n in range(2, n_max + 1):
        for e in range(1, n):
            if math.gcd(e, n) != 1:
                continue
            p = ModPair(e, n)
            expected = sequential_inverse(p).d
            checked += 1
            for alg in others:
                if alg.func(p).d != expected:
                    return checked, (alg.value, e, n)
    return checked, None


def is_prime(n: int) -> bool:
    """Trial-division primality; intended for toy-scale inputs only."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def rsa_toy_keygen(p: int, q: int, e: int):
    """Toy RSA key pair: n = p*q and d = e^-1 modulo (p-1)(q-1)."""
    limit = 1 << 32
    if p >= limit or q >= limit:
        raise DomainError("primes must be below 2^32 for the demo")
    if p == q:
        raise DomainError("p and q must differ")
    for value in (p, q):
        if not is_prime(value):
            raise DomainError(f"{value} is not prime")
    totient = (p - 1) * (q - 1)
    d = euclid_inverse(ModPair(e, totient)).d
    return p * q, e, d
