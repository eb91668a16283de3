"""Exact-arithmetic modular multiplicative inverse algorithms.

All functions operate on Python's arbitrary-precision integers. Each
algorithm returns an :class:`InverseOutcome` carrying the inverse, the
Bezout-style witness, the iteration count, and per-operation tallies of
its main loop. An algorithm hands its tallies over as a tuple in
:class:`OpCounts` field order; ``ops`` builds the OpCounts on first read.

Each algorithm also takes an optional ``sink``, called with one row per
loop pass (after a row for the initial state in Euclid, Stein and Gordon)
laid out as the ``headers`` of its :class:`AlgorithmId` member.
:class:`AlgorithmId`, at the end of this module, is the table of
algorithms that the tracer, the benchmark harness and the CLI dispatch
through.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable


class DomainError(ValueError):
    """Input outside an operation's domain."""


class NoInverseError(ValueError):
    """gcd(e, n) > 1: no inverse exists; args are (e, n, common_divisor)."""

    def __init__(self, e: int, n: int, common_divisor: int):
        super().__init__(e, n, common_divisor)
        self.e = e
        self.n = n
        self.common_divisor = common_divisor

    def __str__(self) -> str:
        return f"no inverse: gcd({self.e}, {self.n}) = {self.common_divisor}"


class InternalConsistencyError(RuntimeError):
    """A provably unreachable iteration cap was exhausted."""


# The refusals below keep the limit they hit in args and build their message
# from args alone, so the default pickling (type, args, __dict__) restores
# them whatever the limit reads when they are unpickled.


class ScanBudgetError(DomainError):
    """The literal sequential scan passes its budget; args are (limit,)."""

    def __init__(self, limit: int | None = None):
        super().__init__(SEQUENTIAL_BUDGET if limit is None else limit)

    def __str__(self) -> str:
        return f"sequential scan passed SEQUENTIAL_BUDGET = {self.args[0]} steps"


class TraceTooLongError(DomainError):
    """Tracing refused past a row cap; args are (algorithm name, cap)."""

    def __str__(self) -> str:
        alg, limit = self.args
        return f"trace of {alg} would exceed {limit} rows; run untraced instead"


def _frozen(self, name, *value):  # a record's __setattr__ and __delattr__
    from dataclasses import FrozenInstanceError  # only on this error path

    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


# A record's __dataclass_fields__, until its first read, is the namespace of a
# throwaway dataclass: the record's annotations and field defaults. The first
# read imports dataclasses and keeps that dataclass's fields on the record, so
# dataclasses.fields, astuple, asdict, replace and is_dataclass work on it.
class _Fields(dict):
    def __get__(self, obj, cls):
        from dataclasses import dataclass

        cls.__dataclass_fields__ = dataclass(type(cls.__name__, (), self)).__dataclass_fields__
        return cls.__dataclass_fields__


# dataclasses imports inspect: about 8 ms of a command's start-up. A frozen
# dataclass's __init__ sends each field through object.__setattr__, which costs
# more than the log-time loops at small n.
def _record(cls):
    """cls as @dataclass(frozen=True) makes it, without importing dataclasses.
    Unless cls has its own, __init__ stores each field straight into the
    instance __dict__, one store per field."""
    names = cls.__match_args__ = tuple(cls.__annotations__)
    defaults = {n: getattr(cls, n) for n in names if hasattr(cls, n)}
    if "__init__" not in vars(cls):
        # no field declared in a class body is named __self or __dict: the
        # compiler mangles such a name to _Class__self
        src = f"def __init__(__self, {', '.join(names)}):\n    __dict = __self.__dict__\n"
        src += "".join(f"    __dict[{n!r}] = {n}\n" for n in names)
        exec(src, ns := {"__name__": cls.__module__})
        cls.__init__ = ns["__init__"]
        cls.__init__.__defaults__ = tuple(defaults.values())
        cls.__init__.__annotations__ = {**cls.__annotations__, "return": None}
        cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"
    key = lambda r: tuple([getattr(r, n) for n in names])
    cls.__repr__ = lambda r: f"{cls.__qualname__}({', '.join(map('{}={!r}'.format, names, key(r)))})"
    cls.__eq__ = lambda r, other: key(r) == key(other) if type(other) is cls else NotImplemented
    cls.__hash__ = lambda r: hash(key(r))
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__dataclass_fields__ = _Fields(defaults, __annotations__=cls.__annotations__)
    return cls


# ModPair validates before it stores, so it keeps its own __init__, which
# writes into __dict__ as _record's does
@_record
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


@_record
class OpCounts:
    """Tallies of the arithmetic operations executed by an algorithm's
    main loop."""

    additions: int = 0
    subtractions: int = 0
    multiplications: int = 0
    divisions: int = 0
    shifts: int = 0
    comparisons: int = 0

    def __add__(self, other: OpCounts) -> OpCounts:
        if not isinstance(other, OpCounts):
            return NotImplemented
        return OpCounts(*[getattr(self, n) + getattr(other, n) for n in self.__match_args__])


class _Tallies:
    """InverseOutcome.ops. The algorithms store their tallies as a plain
    tuple in OpCounts field order; the first read builds the OpCounts and
    keeps it, so a caller that never reads them never pays for the object."""

    def __get__(self, obj, cls=None):
        if obj is None:  # so _record finds no default for the field
            raise AttributeError("ops")
        ops = obj.__dict__["ops"]
        if type(ops) is tuple:
            ops = obj.__dict__["ops"] = OpCounts(*ops)
        return ops

    def __set__(self, obj, value):  # a data descriptor, read before __dict__
        obj.__dict__["ops"] = value


@_record
class InverseOutcome:
    """Result of one inverse computation.

    Satisfies e*d = 1 + k*n exactly, with 1 <= d < n and 0 <= k < e.
    """

    d: int
    k: int
    iterations: int
    ops: OpCounts = _Tallies()  # a descriptor, not a default

    def __getstate__(self):  # pickles and copies carry the OpCounts
        return {**self.__dict__, "ops": self.ops}


def verify_inverse(p: ModPair, d: int) -> bool:
    """True iff d is the canonical inverse of p.e modulo p.n."""
    return 1 <= d < p.n and (p.e * d) % p.n == 1


def witness_k(p: ModPair, d: int) -> int:
    """The integer k with e*d = 1 + k*n; requires d to be the inverse."""
    k, r = divmod(p.e * d - 1, p.n)
    if r or not 1 <= d < p.n:
        raise DomainError(f"{d} is not the inverse of {p.e} modulo {p.n}")
    return k


def _outcome(p: ModPair, d_raw: int, iterations: int, ops: OpCounts | tuple) -> InverseOutcome:
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
# sink. scan_plan alone applies them, reading each when it is called.
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
    """_scan(m, step, mod, mod) in closed form, for a step that is a unit
    modulo mod. mod = 1 works too: pow(x, -1, 1) is 0."""
    return 1 + -m * pow(step, -1, mod) % mod


def scan_plan(alg: str, e: int, n: int, traced: bool = False) -> tuple:
    """(path, index, m, step, mod) of alg's scan of the pair (e, n), with a
    sink if traced: "literal" while the index is within the limit, else
    "closed" or the refusal the call raises. The index is known once mod
    passes the limit; ffim_exact's a = 0 is ("closed", 0, None, None, None)."""
    # The walk (m, step, mod) stops at the first j >= 1 with m + (j - 1)*step
    # = 0 modulo mod; step is a unit modulo mod, so j <= mod. The limit is
    # MAX_TRACE_ROWS traced, else SEQUENTIAL_BUDGET for sequential and
    # SCAN_PREFIX for the others.
    if alg == "ffim_exact":
        # the residue (i*e - a) mod b, with b = n mod e and a = (n + 1) mod e,
        # which is b + 1 unless b + 1 = e; gcd(e mod b, b) = gcd(e, n) = 1
        b = n % e
        a = (b + 1) % e
        if not a:
            return "closed", 0, None, None, None
        m, step, mod, limit = (e - a) % b, e % b, b, SCAN_PREFIX
    elif alg == "baghdad":  # the residue (1 + k*n) mod e; gcd(n mod e, e) = 1
        step, mod, limit = n % e, e, SCAN_PREFIX
        m = (1 + step) % e
    elif alg == "sequential":  # the residue e*d - 1 mod n; gcd(e, n) = 1
        m, step, mod, limit = e - 1, e, n, SEQUENTIAL_BUDGET
    else:  # a log-time loop: no walk, no limit
        return "literal", None, None, None, None
    limit = MAX_TRACE_ROWS if traced else limit
    j = None if mod <= limit else _scan_closed(m, step, mod)
    if j is None or j <= limit:
        return "literal", j, m, step, mod
    # past the limit a trace refuses, and so does sequential, the literal oracle
    if traced:
        return TraceTooLongError(alg, limit), j, m, step, mod
    return (ScanBudgetError(limit) if alg == "sequential" else "closed"), j, m, step, mod


def _scan_index(alg: str, e: int, n: int, emit) -> int:
    """alg's index on (e, n), on the path scan_plan gives."""
    path, j, m, step, mod = scan_plan(alg, e, n, emit is not None)
    if path == "literal":
        j = _scan(m, step, mod, mod, emit)
        if j is None:
            raise InternalConsistencyError(f"{alg} scan passed {mod} steps")
    elif path != "closed":
        raise path
    return j


def sequential_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Trivial search: try d = 1, 2, 3, ... until e*d is 1 modulo n."""
    e, n = p.e, p.n
    emit = None if sink is None else lambda d, m: sink((d, (m + 1) % n))
    d = _scan_index("sequential", e, n, emit)
    # per candidate: one multiply (e*d), one reduction, one compare; d - 1
    # increments of the candidate itself
    return _outcome(p, d, d, (d - 1, 0, d, d, 0, d))


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
    return _outcome(p, i, its, (0, 2 * its, 2 * its, its, 0, its + 1))


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
    adds, subs = fixes + flips + wraps, fixes + 2 * flips + wraps + 3 * its
    ops = (adds, subs, 0, 0, 3 * halvings, 2 * halvings + 4 * its)
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
    cmps = 2 * swaps + 3 * passes + doublings + 1
    ops = (doublings, 2 * passes, 0, 0, doublings + 2 * passes, cmps)
    return _outcome(p, i, swaps + passes, ops)


def baghdad_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Repeatedly add n to a running numerator until e divides it.

    The recurrence d = (d + n)/e only ever yields an integer at the final
    step, so the loop keeps the exact numerator 1 + j*n and tests
    divisibility by e instead of testing a real number for integrality.
    """
    e, n = p.e, p.n
    emit = None
    if sink is not None:
        from fractions import Fraction

        emit = lambda k, m: sink(
            (Fraction(1 + k * n, e), "fraction" if m else "integer")
        )
    k = _scan_index("baghdad", e, n, emit)
    # per pass: one addition of n, one division by e, one integrality test
    return _outcome(p, (1 + k * n) // e, k, (k, 0, 0, k, 0, k))


def _ffim_outcome(p: ModPair, e: int, n: int, i: int) -> InverseOutcome:
    """Close the fraction-integer scan of p = (e, n) at its terminating index
    i, checking both divisions; i = 0 is a = 0, solved with d = (n+1)/e."""
    if not i:
        return _outcome(p, (n + 1) // e, 0, (0, 0, 0, 0, 0, 0))
    b = n % e
    num = i * e - b - 1  # i*e - a: i > 0 needs a = (n + 1) mod e > 0, so a = b + 1
    if num % b:
        raise InternalConsistencyError("terminating index does not divide evenly")
    d_num = n * (num // b + 1) + 1
    if d_num % e:
        raise InternalConsistencyError("closing formula numerator not divisible by e")
    # per pass: one subtraction and one division forming r, one integrality
    # test, one increment of i
    return _outcome(p, d_num // e, i, (i, i, 0, i, 0, i))


def ffim_exact_inverse(p: ModPair, sink: RowSink | None = None) -> InverseOutcome:
    """Fraction-integer scan in exact integer arithmetic.

    With a = (n+1) mod e and b = n mod e, finds the smallest i >= 1 such
    that b divides i*e - a (in order, or in closed form: see scan_plan), sets
    r = (i*e - a)/b, and closes with d = (n*(r+1) + 1)/e.
    """
    e, n = p.e, p.n
    emit = None
    if sink is not None:
        from fractions import Fraction

        a, b = (n + 1) % e, n % e
        s_f, d_f = Fraction(a, e), Fraction(b, e)  # the same in every row
        emit = lambda i, m: sink((i, s_f, d_f, Fraction(i * e - a, b)))
    return _ffim_outcome(p, e, n, _scan_index("ffim_exact", e, n, emit))


def ffim_closed_form(p: ModPair) -> InverseOutcome:
    """ffim_exact_inverse(p) with the terminating index always taken in closed
    form: the same outcome, counts included, in O(log n) time."""
    e, n = p.e, p.n
    _, i, m, step, mod = scan_plan("ffim_exact", e, n)
    return _ffim_outcome(p, e, n, _scan_closed(m, step, mod) if i is None else i)


class AlgorithmId(enum.Enum):
    """The algorithm table. Each member's value is its name; ``func`` is its
    exact function and ``headers`` the layout of the rows its sink receives.
    The float variant lives in the float error lab, outside this table."""

    def __new__(cls, value: str, func, headers):
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

    def __str__(self) -> str:
        return self.value


EXACT_ALGORITHMS = tuple(AlgorithmId)


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
    if not 1 < e < totient:
        raise DomainError(f"e must lie in (1, phi) = (1, {totient}), got {e}")
    d = euclid_inverse(ModPair(e, totient)).d
    return p * q, e, d
