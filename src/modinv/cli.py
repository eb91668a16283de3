"""Command-line front end.

Exit codes: 0 success; 1 mathematical failure (no inverse, discrepancy,
non-coprime exponent) or an internal inconsistency; 2 usage or environment
error, a refusal (any DomainError) or a number past Python's digit limit.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import __version__

# Only core is imported here: the trace, bench and scan-float handlers import
# their own module, so the other commands start without loading it.
from .core import (
    EXACT_ALGORITHMS,
    AlgorithmId,
    DomainError,
    InternalConsistencyError,
    ModPair,
    NoInverseError,
    rsa_toy_keygen,
    run_exhaustive_validation,
    scan_plan,
)


# Python refuses int <-> decimal str conversions past sys.get_int_max_str_digits()
# digits with a ValueError. The limit is the interpreter's, and main may run
# inside another program, so the CLI refuses such a number and leaves the limit
# be. _digit_limit gives the refusal's text for that ValueError, else None.
def _digit_limit(err: ValueError) -> str | None:
    if "integer string conversion" in str(err):
        return f"more than {sys.get_int_max_str_digits()} decimal digits (PYTHONINTMAXSTRDIGITS)"
    return None


class UsageError(ValueError):
    """A malformed command line: the parser prints it and exits 2."""


def parse_int(text: str) -> int:
    """Integer argument, decimal or 0x-prefixed hex, after one optional sign."""
    try:
        if text.strip().lstrip("+-")[:2].lower() == "0x":
            return int(text, 16)
        return int(text, 10)
    except ValueError as err:
        raise UsageError(_digit_limit(err) or f"not an integer: {text!r}")


def _algorithm(name: str) -> AlgorithmId:
    """An exact algorithm by name; the float variant belongs to scan-float."""
    try:
        return AlgorithmId(name)
    except ValueError:
        raise UsageError(f"not an exact algorithm: {name!r}") from None


def _cmd_inverse(args) -> int:
    p = ModPair(args.e, args.n)
    results = []
    for alg in EXACT_ALGORITHMS if args.alg == "all" else (args.alg,):
        # --alg all leaves out a call that core would refuse; named, it refuses
        if args.alg == "all" and isinstance(path := scan_plan(alg.value, p.e, p.n)[0], DomainError):
            print(f"note: {alg} left out: {path}", file=sys.stderr)
        else:
            results.append((alg, alg.func(p)))
    if len({o.d for _, o in results}) != 1:
        print("error: algorithms disagree", file=sys.stderr)
        return 1
    for alg, o in results:
        print(f"{alg.value}: d={o.d} k={o.k} iterations={o.iterations}")
    return 0


def _cmd_trace(args) -> int:
    from .instrumentation import render_trace, traced_inverse

    _, trace = traced_inverse(args.alg, ModPair(args.e, args.n))
    print(render_trace(trace, args.format))
    return 0


def _cmd_validate(args) -> int:
    checked, discrepancy = run_exhaustive_validation(args.n_max)
    if discrepancy is not None:
        alg, e, n = discrepancy
        print(f"discrepancy: {alg} disagrees with sequential at (e={e}, n={n})")
        return 1
    print(f"checked {checked} coprime pairs up to n = {args.n_max}: no discrepancies")
    return 0


def _cmd_bench(args) -> int:
    from .benchmark import (
        RANDOM_COPRIME,
        WorkloadSpec,
        emit_report,
        generate_workload,
        run_benchmark,
    )

    e_mode = args.e_fixed if args.e_fixed is not None else RANDOM_COPRIME
    spec = WorkloadSpec(
        n_bits=args.bits, samples=args.samples, e_mode=e_mode, seed=args.seed
    )
    pairs = generate_workload(spec)
    report = run_benchmark(pairs, args.algs, spec=spec, repetitions=args.reps)
    text = emit_report(report, args.format)
    with open(args.out, "w") as fh:
        fh.write(text)
    for row in report.rows:
        print(
            f"{row.algorithm}: mean_iters={row.mean_iters:.2f} "
            f"mean_divs={row.mean_divs:.2f} mean_ns={row.mean_ns:.0f}"
        )
    print(f"report written to {args.out}")
    return 0


def _cmd_scan_float(args) -> int:
    from .floatlab import failure_report_to_json, scan_failures

    report = scan_failures(
        e_min=args.e_min,
        e_max=args.e_max,
        samples_per_e=args.samples_per_e,
        n_bits=args.n_bits,
        epsilon=args.epsilon,
        seed=args.seed,
    )
    for verdict, count in sorted(report.verdicts.items()):
        print(f"{verdict}: {count}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(failure_report_to_json(report))
        print(f"report written to {args.out}")
    return 0


def _cmd_keygen_demo(args) -> int:
    print(
        "warning: pedagogical demo only, not secure key generation",
        file=sys.stderr,
    )
    n, e, d = rsa_toy_keygen(args.p, args.q, args.e)
    print(f"n={n} e={e} d={d}")
    return 0


# Each command's handler, help text and options. Each option maps its flag to
# (converter, default[, choices]), and a default of ... marks it required. A
# converter refuses a value with a ValueError, and the value it returns must
# be one of the choices.
_INT = (parse_int, ...)
_COMMANDS = {
    "inverse": (_cmd_inverse, "compute an inverse", {"--e": _INT, "--n": _INT, "--alg": (
        lambda s: s if s == "all" else _algorithm(s), "all", (*EXACT_ALGORITHMS, "all"))}),
    "trace": (_cmd_trace, "render a per-iteration trace", {
        "--e": _INT, "--n": _INT, "--alg": (_algorithm, ..., EXACT_ALGORITHMS),
        "--format": (str, "table", ("table", "json"))}),
    "validate": (_cmd_validate, "check all algorithms against the oracle", {"--n-max": _INT}),
    "bench": (_cmd_bench, "run a seeded benchmark workload (--e-fixed, --algs: a,b,...)", {
        "--bits": _INT, "--samples": _INT, "--seed": (parse_int, 0),
        "--e-fixed": (lambda s: tuple(map(parse_int, s.split(","))), None),
        # all but sequential: the oracle refuses pairs past SEQUENTIAL_BUDGET, so
        # it runs only when named
        "--algs": (lambda s: tuple(map(_algorithm, s.split(","))),
                   tuple(a for a in EXACT_ALGORITHMS if a is not AlgorithmId.SEQUENTIAL)),
        "--reps": (parse_int, 5), "--format": (str, "csv", ("csv", "json")), "--out": (str, ...)}),
    "scan-float": (_cmd_scan_float, "scan the float scan for disagreement regions", {
        "--e-min": (parse_int, 3), "--e-max": (parse_int, 5000),
        "--samples-per-e": (parse_int, 2), "--n-bits": (parse_int, 48),
        "--epsilon": (float, ...), "--seed": (parse_int, 0), "--out": (str, None)}),
    "keygen-demo": (_cmd_keygen_demo, "toy RSA key generation",
                    {"--p": _INT, "--q": _INT, "--e": _INT}),
}


# How argparse reads a token: (flag, None or the text after "=") for a flag or
# its unique prefix, (None, token) for a value, else (None, None).
def _option(token: str, flags) -> tuple:
    prefix, eq, text = token.partition("=")
    if token.startswith("--") and token != "--":
        matches = [prefix] if prefix in flags else [f for f in flags if f.startswith(prefix)]
        if len(matches) > 1:
            raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], text if eq else None
    if token[:2] in flags and token[1:2] != "-":  # -h, -h=text or -htext
        return token[:2], token[3:] if token[2:3] == "=" else token[2:] or None
    # "-" alone, a negative number (-7, -.5, -7.5) and a token with a blank are values
    number = token[1:].replace(".", "", 1).isdecimal() and token[-1] != "."
    return None, token if token[:1] != "-" or token == "-" or number or " " in token else None


# argparse reads every token before it takes any, so an ambiguous flag
# anywhere is the first error; each token after "--" is a value.
def _read(argv: list, flags) -> list:
    end = argv.index("--") if "--" in argv else len(argv)
    return [(t, *(_option(t, flags) if i <= end else (None, t))) for i, t in enumerate(argv)]


def _usage(command=None) -> str:
    if command is None:
        return "usage: modinv [-h] [--version] {" + ",".join(_COMMANDS) + "} ..."
    words = ["usage: modinv", command, "[-h]"]
    for flag, (_, default, *choices) in _COMMANDS[command][2].items():
        meta = "{" + ",".join(map(str, *choices)) + "}" if choices else flag[2:].upper()
        words.append(f"{flag} {meta}" if default is ... else f"[{flag} {meta}]")
    return " ".join(words)


# One loop reads the program's flags up to the command, then the command's
# flags: argparse's program parser hands every token after the command on.
def _parse_args(argv=None) -> SimpleNamespace:
    argv = sys.argv[1:] if argv is None else list(argv)
    command, options, values, extras = None, {}, {}, []  # extras: unknown flags, stray values
    try:
        tokens = iter(_read(argv, ("-h", "--help", "--version")))
        while item := next(tokens, None):
            token, flag, text = item
            if flag in ("-h", "--help", "--version"):
                if flag == "-h" and text:  # argparse reads -hh as -h -h
                    text = text.lstrip("h") or None
                if text is not None:
                    name = flag if flag == "--version" else "-h/--help"
                    raise UsageError(f"argument {name}: ignored explicit argument {text!r}")
                lines = [_usage(command), "", _COMMANDS[command][1]] if command else [
                    _usage(), *(f"{_usage(c)}\n    {_COMMANDS[c][1]}" for c in _COMMANDS)]
                print(__version__ if flag == "--version" else "\n".join(lines))
                raise SystemExit(0)
            elif flag:
                if text is None:
                    _, after, text = next(tokens, (None, None, None))
                    if after is not None or text is None:  # not a value
                        raise UsageError(f"argument {flag}: expected one argument")
                convert, _, *choices = options[flag]
                try:
                    values[flag] = convert(text)
                except ValueError as err:  # float's own, in argparse's words
                    why = err if isinstance(err, UsageError) else f"invalid float value: {text!r}"
                    raise UsageError(f"argument {flag}: {why}") from None
                if choices and values[flag] not in choices[0]:
                    choose = "choose from " + ", ".join(map(repr, choices[0]))
                    raise UsageError(f"argument {flag}: invalid choice: {text!r} ({choose})")
            elif command or text is None and not (token == "--" and argv[len(extras) + 1:]):
                extras.append(token)
            else:  # the program's first value (or "--" before one) names the command
                if token not in _COMMANDS:
                    choose = "choose from " + ", ".join(map(repr, _COMMANDS))
                    raise UsageError(f"argument command: invalid choice: {token!r} ({choose})")
                command, (func, _, options) = token, _COMMANDS[token]
                values = {flag: spec[1] for flag, spec in options.items()}
                tokens = iter(_read(argv[len(extras) + 1:], ("-h", "--help", *options)))
        if missing := [f for f, v in values.items() if v is ...] if command else ["command"]:
            raise UsageError("the following arguments are required: " + ", ".join(missing))
        if extras:  # argparse reports leftovers against the whole program
            command = None
            raise UsageError("unrecognized arguments: " + " ".join(extras))
        names = {flag[2:].replace("-", "_"): value for flag, value in values.items()}
        return SimpleNamespace(command=command, func=func, **names)
    except UsageError as err:
        prog = "modinv" if command is None else f"modinv {command}"
        print(f"{_usage(command)}\n{prog}: error: {err}", file=sys.stderr)
        raise SystemExit(2) from None


def build_parser() -> SimpleNamespace:
    """parse_args(argv=None) reads argv by _COMMANDS as argparse did."""
    return SimpleNamespace(parse_args=_parse_args)


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        try:
            return args.func(args)
        except NoInverseError as err:
            print(f"no inverse: gcd={err.common_divisor}")
            return 1
        except (DomainError, OSError, InternalConsistencyError) as err:
            print(f"error: {err}", file=sys.stderr)
            return 1 if isinstance(err, InternalConsistencyError) else 2
    except SystemExit as exc:  # usage errors, --help and --version
        return 0 if exc.code in (0, None) else 2
    except ValueError as err:  # str() of a result's or a message's integer
        if (reason := _digit_limit(err)) is None:
            raise
        print(f"error: an integer to print has {reason}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
