import argparse
import contextlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import modinv
from modinv import core
from modinv.cli import build_parser, main, parse_int, rsa_toy_keygen, run_exhaustive_validation
from modinv.core import (
    AlgorithmId,
    DomainError,
    InternalConsistencyError,
    InverseOutcome,
    NoInverseError,
    OpCounts,
    is_prime,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def child_env():
    """Environment for a fresh interpreter that imports this checkout."""
    src = str(Path(modinv.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


class TestInverse:
    def test_all_algorithms_agree(self, capsys):
        code, out, _ = run(capsys, "inverse", "--e", "7", "--n", "60")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert all("d=43" in line for line in lines)

    def test_unit_operand(self, capsys):
        code, out, _ = run(capsys, "inverse", "--e", "1", "--n", "10")
        assert code == 0
        assert "d=1" in out

    def test_single_algorithm(self, capsys):
        code, out, _ = run(capsys, "inverse", "--e", "7", "--n", "60", "--alg", "stein")
        assert code == 0
        assert out.strip() == "stein: d=43 k=5 iterations=4"

    def test_sequential_budget_refused(self):
        # sequential's d here is near 2^128: it refuses after
        # SEQUENTIAL_BUDGET candidates instead of running on
        proc = subprocess.run(
            [sys.executable, "-m", "modinv.cli", "inverse", "--e", "65537",
             "--n", "0xfffffffffffffffffffffffffffffff1", "--alg", "sequential"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "SEQUENTIAL_BUDGET = 16777216" in proc.stderr

    def test_default_leaves_out_refused_sequential(self, capsys):
        # the paper's regime, a small e and a large n: --alg all says why
        # sequential is missing and runs the other five
        n = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFF1
        code, out, err = run(capsys, "inverse", "--e", "65537", "--n", hex(n))
        assert code == 0
        assert err == (
            "note: sequential left out: sequential scan passed "
            "SEQUENTIAL_BUDGET = 16777216 steps\n"
        )
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "euclid", "stein", "gordon", "baghdad", "ffim_exact"
        ]
        d = pow(65537, -1, n)
        assert all(f"d={d} " in line for line in lines)

    def test_disagreement_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(AlgorithmId.GORDON, "func", TestValidate.wrong_gordon)
        code, out, err = run(capsys, "inverse", "--e", "7", "--n", "60")
        assert (code, out, err) == (1, "", "error: algorithms disagree\n")

    def test_internal_inconsistency_reported(self, capsys, monkeypatch):
        def broken(p):
            raise InternalConsistencyError("euclid exceeded its cap")

        monkeypatch.setattr(AlgorithmId.EUCLID, "func", broken)
        code, out, err = run(capsys, "inverse", "--e", "7", "--n", "60")
        assert (code, out, err) == (1, "", "error: euclid exceeded its cap\n")

    def test_non_coprime(self, capsys):
        code, out, _ = run(capsys, "inverse", "--e", "6", "--n", "60")
        assert code == 1
        assert "no inverse: gcd=6" in out

    def test_hex_input(self, capsys):
        code, out, _ = run(capsys, "inverse", "--e", "0x7", "--n", "0x3C")
        assert code == 0
        assert "d=43" in out

    def test_bad_args(self, capsys):
        code, _, _ = run(capsys, "inverse", "--e", "7")
        assert code == 2
        code, _, _ = run(capsys, "inverse", "--e", "x", "--n", "60")
        assert code == 2

    def test_float_alg_rejected(self, capsys):
        code, _, err = run(capsys, "inverse", "--e", "7", "--n", "60", "--alg", "ffim_float")
        assert code == 2
        assert "not an exact algorithm: 'ffim_float'" in err


class TestTrace:
    def test_euclid_table(self, capsys):
        code, out, _ = run(capsys, "trace", "--e", "7", "--n", "60", "--alg", "euclid")
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()[1:6]]
        assert [r[2] for r in rows] == ["0", "1", "-8", "9", "-17"]

    def test_baghdad_row_count(self, capsys):
        code, out, _ = run(capsys, "trace", "--e", "7", "--n", "60", "--alg", "baghdad")
        assert code == 0
        # header + 5 iteration rows + summary
        assert len(out.strip().splitlines()) == 7

    def test_json_format(self, capsys):
        code, out, _ = run(
            capsys, "trace", "--e", "7", "--n", "60", "--alg", "ffim_exact",
            "--format", "json",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["d"] == "43"
        assert [row[3] for row in obj["rows"]] == ["1/2", "9/4", "4"]

    def test_float_alg_rejected(self, capsys):
        code, _, _ = run(capsys, "trace", "--e", "7", "--n", "60", "--alg", "ffim_float")
        assert code == 2

    def test_oversized_trace_refused(self, capsys):
        code, _, err = run(
            capsys, "trace", "--alg", "sequential", "--e", "3", "--n", "3000000000001"
        )
        assert code == 2
        assert "1000000 rows" in err

    def test_scan_refusal_text(self, capsys):
        code, out, err = run(
            capsys, "trace", "--alg", "baghdad", "--e", str(2**40 + 15),
            "--n", str(2**61 - 1),
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: trace of baghdad would exceed 1000000 rows; run untraced instead\n"
        )

    def test_patched_row_cap_refused(self, capsys, monkeypatch):
        # euclid records 5 rows at (7, 60); the tracer stops it at the 4th
        monkeypatch.setattr(core, "MAX_TRACE_ROWS", 3)
        code, out, err = run(capsys, "trace", "--alg", "euclid", "--e", "7", "--n", "60")
        assert (code, out) == (2, "")
        assert err == "error: trace of euclid would exceed 3 rows; run untraced instead\n"

    def test_non_coprime(self, capsys):
        code, out, _ = run(capsys, "trace", "--alg", "euclid", "--e", "6", "--n", "60")
        assert code == 1
        assert out == "no inverse: gcd=6\n"


class TestValidate:
    def test_includes_worked_example(self, capsys):
        code, out, _ = run(capsys, "validate", "--n-max", "60")
        assert code == 0
        assert "no discrepancies" in out

    def test_minimal_range(self):
        checked, discrepancy = run_exhaustive_validation(2)
        assert checked == 1
        assert discrepancy is None

    def test_range_rejected(self, capsys):
        code, _, _ = run(capsys, "validate", "--n-max", "5000")
        assert code == 2

    def test_first_refused_n_max(self, capsys):
        code, out, err = run(capsys, "validate", "--n-max", "4097")
        assert (code, out) == (2, "")
        assert err == "error: n_max must be in [2, 4096], got 4097\n"

    @staticmethod
    def wrong_gordon(p):
        # right only where the inverse is 1: first wrong at (e=2, n=3)
        return InverseOutcome(1, 0, 0, OpCounts())

    def test_discrepancy_found(self, monkeypatch):
        monkeypatch.setattr(AlgorithmId.GORDON, "func", self.wrong_gordon)
        checked, discrepancy = run_exhaustive_validation(8)
        assert discrepancy == ("gordon", 2, 3)
        assert checked == 3  # (1, 2), (1, 3), (2, 3)

    def test_discrepancy_reported(self, capsys, monkeypatch):
        monkeypatch.setattr(AlgorithmId.GORDON, "func", self.wrong_gordon)
        code, out, _ = run(capsys, "validate", "--n-max", "8")
        assert code == 1
        assert out == "discrepancy: gordon disagrees with sequential at (e=2, n=3)\n"


class TestBench:
    def test_csv_artifact(self, tmp_path, capsys):
        out_file = tmp_path / "r.csv"
        code, out, _ = run(
            capsys, "bench", "--bits", "10", "--samples", "5", "--seed", "7",
            "--reps", "1", "--algs", "euclid,gordon", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().splitlines()
        assert lines[0].startswith("algorithm,n_bits,e_mode")
        assert len(lines) == 3

    def test_fixed_preset(self, tmp_path, capsys):
        out_file = tmp_path / "r.csv"
        code, _, _ = run(
            capsys, "bench", "--bits", "20", "--samples", "10", "--seed", "7",
            "--reps", "1", "--algs", "baghdad", "--e-fixed", "3,5,17,257,65537",
            "--out", str(out_file),
        )
        assert code == 0
        assert "fixed:3;5;17;257;65537" in out_file.read_text()

    def test_determinism_of_non_timing_columns(self, tmp_path, capsys):
        args = (
            "bench", "--bits", "10", "--samples", "5", "--seed", "7",
            "--reps", "1", "--algs", "euclid",
        )
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(f1))[0] == 0
        assert run(capsys, *args, "--out", str(f2))[0] == 0
        strip = lambda text: [
            ",".join(v for i, v in enumerate(line.split(",")) if i != 13)
            for line in text.splitlines()
        ]
        assert strip(f1.read_text()) == strip(f2.read_text())

    @pytest.mark.parametrize("algs", ["euclid,bogus", "", "ffim_float"])
    def test_bad_algs_rejected(self, tmp_path, capsys, algs):
        out_file = tmp_path / "r.csv"
        code, _, err = run(
            capsys, "bench", "--bits", "10", "--samples", "2", "--seed", "1",
            "--reps", "1", "--algs", algs, "--out", str(out_file),
        )
        assert code == 2
        assert "argument --algs: not an exact algorithm" in err
        assert not out_file.exists()

    def test_generation_error(self, tmp_path, capsys):
        # no 2-bit modulus exceeds the fixed exponent 4
        code, _, err = run(
            capsys, "bench", "--bits", "2", "--samples", "3", "--e-fixed", "4",
            "--algs", "euclid", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 2
        assert "no coprime modulus found for sample 0 of fixed:4" in err

    def test_wrong_result_reported(self, tmp_path, capsys, monkeypatch):
        # d = 1 is the inverse of no e >= 2
        monkeypatch.setattr(AlgorithmId.EUCLID, "func", lambda p: InverseOutcome(1, 0, 0, OpCounts()))
        code, _, err = run(
            capsys, "bench", "--bits", "10", "--samples", "2", "--seed", "1",
            "--reps", "1", "--algs", "euclid", "--out", str(tmp_path / "r.csv"),
        )
        assert code == 1
        assert "euclid returned a non-inverse" in err

    def test_sequential_budget_refused_before_timing(self, tmp_path, capsys, monkeypatch):
        # a 64-bit pair's inverse lies far past SEQUENTIAL_BUDGET: the
        # refusal comes before stein, listed first, is timed once
        calls = []
        monkeypatch.setattr(AlgorithmId.STEIN, "func", calls.append)
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "bench", "--bits", "64", "--samples", "3", "--seed", "1",
            "--reps", "1", "--algs", "stein,sequential", "--out", str(out_file),
        )
        assert (code, out, calls) == (2, "", [])
        assert err == "error: sequential scan passed SEQUENTIAL_BUDGET = 16777216 steps\n"
        assert not out_file.exists()

    def test_default_algs_leave_out_sequential(self, tmp_path, capsys):
        # at 64 bits the sequential oracle would refuse every pair
        out_file = tmp_path / "r.csv"
        code, out, err = run(
            capsys, "bench", "--bits", "64", "--samples", "20", "--seed", "7",
            "--out", str(out_file),
        )
        assert (code, err) == (0, "")
        rows = out_file.read_text().splitlines()[1:]
        expected = [a.value for a in AlgorithmId if a is not AlgorithmId.SEQUENTIAL]
        assert [row.split(",")[0] for row in rows] == expected
        assert len(expected) == 5

    def test_unwritable_output(self, capsys):
        code, _, _ = run(
            capsys, "bench", "--bits", "10", "--samples", "2", "--seed", "1",
            "--reps", "1", "--algs", "euclid", "--out", "/nonexistent/dir/r.csv",
        )
        assert code == 2


class TestScanFloat:
    def test_small_scan_all_agree(self, tmp_path, capsys):
        out_file = tmp_path / "scan.json"
        code, out, _ = run(
            capsys, "scan-float", "--e-min", "3", "--e-max", "40",
            "--samples-per-e", "1", "--n-bits", "24", "--epsilon", "1e-9",
            "--seed", "2", "--out", str(out_file),
        )
        assert code == 0
        obj = json.loads(out_file.read_text())
        assert obj["verdicts"]["agree"] == obj["pairs"]

    def test_epsilon_required(self, capsys):
        code, _, _ = run(capsys, "scan-float", "--e-max", "40")
        assert code == 2

    def test_bad_bounds(self, capsys):
        code, _, _ = run(
            capsys, "scan-float", "--e-min", "50", "--e-max", "40",
            "--epsilon", "1e-9",
        )
        assert code == 2

    def test_exponent_above_every_modulus_refused(self, capsys):
        code, out, err = run(
            capsys, "scan-float", "--e-min", "3", "--e-max", "5000",
            "--samples-per-e", "1", "--n-bits", "12", "--epsilon", "1e-9",
        )
        assert code == 2
        assert out == ""
        assert err == "error: e_max = 5000 leaves no 12-bit modulus above it\n"

    def test_large_e_pair(self, capsys):
        # T = 799361 at e = 3e10: the float scan walks its progressions to
        # the first hit at i = 42741220 instead of testing every index
        code, out, _ = run(
            capsys, "scan-float", "--e-min", "30000000007", "--e-max", "30000000007",
            "--samples-per-e", "1", "--n-bits", "52", "--epsilon", "1e-12",
        )
        assert code == 0
        assert "wrong_answer: 1" in out.splitlines()

    @pytest.mark.parametrize("epsilon", ["inf", "nan", "0.5", "0"])
    def test_epsilon_outside_its_range_refused(self, capsys, epsilon):
        # at epsilon >= 1/2 every index passes, so the scan stops at i = 1
        code, out, err = run(
            capsys, "scan-float", "--e-min", "3", "--e-max", "5",
            "--n-bits", "20", "--epsilon", epsilon,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: epsilon must lie in (0, 1/2), got {float(epsilon)}\n"


class TestKeygenDemo:
    def test_worked_pair(self, capsys):
        code, out, err = run(capsys, "keygen-demo", "--p", "5", "--q", "11", "--e", "7")
        assert code == 0
        assert "n=55 e=7 d=23" in out
        assert "demo" in err

    def test_other_exponent(self):
        assert rsa_toy_keygen(5, 11, 3) == (55, 3, 27)

    def test_exponent_sharing_factor_with_totient(self, capsys):
        code, out, _ = run(capsys, "keygen-demo", "--p", "5", "--q", "11", "--e", "5")
        assert code == 1
        assert "no inverse: gcd=5" in out

    def test_non_prime_rejected(self, capsys):
        code, _, _ = run(capsys, "keygen-demo", "--p", "9", "--q", "11", "--e", "7")
        assert code == 2

    @pytest.mark.parametrize(
        "p, q, e, phi",
        [(5, 11, -3, 40), (5, 11, 41, 40), (5, 11, 1, 40), (2, 3, 7, 2)],
        ids=["negative", "above-phi", "one", "phi-two"],
    )
    def test_exponent_outside_one_to_phi_refused(self, capsys, p, q, e, phi):
        # each of these e is coprime to phi, but its key is degenerate: -3
        # is no public exponent, and e = 1 or e = 41 = 1 mod 40 gives d = 1
        code, out, err = run(capsys, "keygen-demo", "--p", str(p), "--q", str(q), "--e", str(e))
        assert (code, out) == (2, "")
        assert err.endswith(f"error: e must lie in (1, phi) = (1, {phi}), got {e}\n")

    def test_keygen_guards(self):
        with pytest.raises(DomainError):
            rsa_toy_keygen(5, 5, 7)
        with pytest.raises(DomainError):
            rsa_toy_keygen(1 << 33, 11, 7)
        with pytest.raises(NoInverseError):
            rsa_toy_keygen(5, 11, 5)


@pytest.fixture
def digit_limit():
    """Python's default int/str digit limit, set for the test whatever
    PYTHONINTMAXSTRDIGITS says."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(saved)


class TestDigitLimit:
    # a number past the limit is refused with exit 2, not a traceback; hex
    # input has no limit, so n = 2^(4*limit) + 1 (coprime to 3) comes in whole

    @pytest.mark.parametrize("command", ["inverse", "trace"])
    def test_result_past_limit(self, capsys, digit_limit, command):
        n = hex(2 ** (4 * digit_limit) + 1)
        code, out, err = run(capsys, command, "--alg", "euclid", "--e", "3", "--n", n)
        assert (code, out) == (2, "")
        assert err == (
            f"error: an integer to print has more than {digit_limit} decimal digits "
            "(PYTHONINTMAXSTRDIGITS)\n"
        )

    def test_trace_row_past_limit(self, capsys, digit_limit):
        # n has exactly limit digits and so does d, but baghdad's row for
        # k = 3 holds (1 + 3n)/5, one digit longer
        n = str(10**digit_limit - 9)
        code, out, _ = run(capsys, "inverse", "--alg", "baghdad", "--e", "5", "--n", n)
        assert code == 0 and "k=4 iterations=4" in out
        code, out, err = run(capsys, "trace", "--alg", "baghdad", "--e", "5", "--n", n)
        assert (code, out) == (2, "")
        assert f"more than {digit_limit} decimal digits" in err

    def test_common_divisor_past_limit(self, capsys, digit_limit):
        e, n = hex(2 ** (4 * digit_limit)), hex(2 ** (4 * digit_limit + 1))
        code, out, err = run(capsys, "inverse", "--e", e, "--n", n)
        assert (code, out) == (2, "")
        assert f"more than {digit_limit} decimal digits" in err

    def test_decimal_input_past_limit(self, capsys, digit_limit):
        code, out, err = run(capsys, "inverse", "--e", "3", "--n", "7" * (digit_limit + 1))
        assert (code, out) == (2, "")
        assert err.endswith(
            f"argument --n: more than {digit_limit} decimal digits (PYTHONINTMAXSTRDIGITS)\n"
        )
        assert "7777" not in err  # the digits are not echoed


class TestHelpers:
    def test_parse_int(self):
        assert parse_int("42") == 42
        assert parse_int("0x2a") == 42
        assert parse_int("-7") == -7

    def test_parse_int_signed_hex(self):
        assert parse_int("+0x2a") == 42
        assert parse_int("-0x2a") == -42
        with pytest.raises(modinv.cli.UsageError, match="not an integer"):
            parse_int("+-0x2a")

    @pytest.mark.parametrize("text,value", [(" 0x2a", 42), ("0x2a\n", 42), (" -0x2a ", -42)],
                             ids=["leading-blank", "trailing-newline", "blanks-around-sign"])
    def test_parse_int_hex_with_blanks(self, text, value):
        # int() strips blanks, so the 0x prefix is looked for after them too
        assert parse_int(text) == value

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]

    def test_is_prime_below_two(self):
        assert not is_prime(0)
        assert not is_prime(1)


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_cli_examples():
    """The modinv commands of the README's CLI block, with continuation
    lines joined and comments dropped, as argument lists."""
    cli_section = README.read_text().split("\n## CLI\n", 1)[1]
    block = cli_section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.replace("\\\n", " ").splitlines()]


def test_readme_cli_examples_parse():
    # parsed only, not run: a renamed command, flag or algorithm fails here
    examples = readme_cli_examples()
    assert len(examples) == 9
    parser = build_parser()
    for argv in examples:
        assert argv[0] == "modinv", argv
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {' '.join(argv)}")


# One past Python's default int/str digit limit of 4300, set by the digit_limit
# fixture for the row that uses it.
DIGIT_LIMIT_ARGV = "inverse --e 3 --n " + "7" * 4301

# Recorded from the argparse parser that the option table replaced: argv (as
# shlex splits it), exit code, stdout with bench's mean_ns masked, and the last
# line of stderr. Help rows hold None for stdout: the table renders its own.
PARITY = [
    ("readme-inverse", "inverse --e 7 --n 60", 0,
     "sequential: d=43 k=5 iterations=43\n"
     "euclid: d=43 k=5 iterations=4\n"
     "stein: d=43 k=5 iterations=4\n"
     "gordon: d=43 k=5 iterations=5\n"
     "baghdad: d=43 k=5 iterations=5\n"
     "ffim_exact: d=43 k=5 iterations=3\n",
     ""),
    ("readme-inverse-stein", "inverse --e 7 --n 60 --alg stein", 0,
     "stein: d=43 k=5 iterations=4\n",
     ""),
    ("readme-trace-table", "trace --e 7 --n 60 --alg euclid", 0,
     " g  u    i    v  q    t\n"
     "60  7    0    1  0    0\n"
     " 7  4    1   -8  8   -8\n"
     " 4  3   -8    9  1    9\n"
     " 3  1    9  -17  1  -17\n"
     " 1  0  -17   60  3   60\n"
     "d = 43  k = 5  iterations = 4\n",
     ""),
    ("readme-trace-json", "trace --e 7 --n 60 --alg ffim_exact --format json", 0,
     '{"algorithm": "ffim_exact", "headers": ["i", "s_f", "d_f", "r"], "rows": [["1", "5/7", '
     '"4/7", "1/2"], ["2", "5/7", "4/7", "9/4"], ["3", "5/7", "4/7", "4"]], "d": "43", "k": "5", '
     '"iterations": 3}\n',
     ""),
    ("readme-validate", "validate --n-max 512", 0,
     "checked 79851 coprime pairs up to n = 512: no discrepancies\n",
     ""),
    ("readme-bench", "bench --bits 32 --samples 1000 --seed 7 --out report.csv", 0,
     "euclid: mean_iters=18.87 mean_divs=18.87 mean_ns=N\n"
     "stein: mean_iters=22.82 mean_divs=0.00 mean_ns=N\n"
     "gordon: mean_iters=36.67 mean_divs=0.00 mean_ns=N\n"
     "baghdad: mean_iters=776356063.03 mean_divs=776356063.03 mean_ns=N\n"
     "ffim_exact: mean_iters=270695730.95 mean_divs=270695730.95 mean_ns=N\n"
     "report written to report.csv\n",
     ""),
    ("readme-bench-fixed",
     "bench --bits 32 --samples 100 --seed 7 --e-fixed 3,5,17,257,65537 "
     "--algs baghdad,ffim_exact --out small_e.csv", 0,
     "baghdad: mean_iters=5039.37 mean_divs=5039.37 mean_ns=N\n"
     "ffim_exact: mean_iters=2744.29 mean_divs=2744.29 mean_ns=N\n"
     "report written to small_e.csv\n",
     ""),
    ("readme-scan-float", "scan-float --epsilon 1e-9 --out scan.json", 0,
     "agree: 9996\n"
     "early_termination: 0\n"
     "missed_termination: 0\n"
     "wrong_answer: 0\n"
     "report written to scan.json\n",
     ""),
    ("readme-keygen-demo", "keygen-demo --p 5 --q 11 --e 7", 0,
     "n=55 e=7 d=23\n",
     "warning: pedagogical demo only, not secure key generation"),
    ("equals-form", "inverse --e=7 --n=60 --alg=gordon", 0, "gordon: d=43 k=5 iterations=5\n", ""),
    ("unique-prefix", "bench --bits 10 --samples 5 --reps 1 --alg euclid --out r.csv", 0,
     "euclid: mean_iters=6.60 mean_divs=6.60 mean_ns=N\n"
     "report written to r.csv\n",
     ""),
    ("repeated-flag", "inverse --e 5 --n 60 --e 7 --alg euclid", 0,
     "euclid: d=43 k=5 iterations=4\n",
     ""),
    ("negative-value", "inverse --e -7 --n 60 --alg euclid", 0,
     "euclid: d=17 k=15 iterations=5\n",
     ""),
    ("hex-values", "inverse --e 0x7 --n 0x3C --alg baghdad", 0,
     "baghdad: d=43 k=5 iterations=5\n",
     ""),
    ("help", "-h", 0, None, ""),
    ("command-help", "inverse -h", 0, None, ""),
    ("version", "--version", 0, "0.1.0\n", ""),
    ("help-prefix", "--he", 0, None, ""),
    ("version-prefix", "--vers", 0, "0.1.0\n", ""),
    ("no-command", "", 2, "", "modinv: error: the following arguments are required: command"),
    ("required", "inverse --e 7", 2,
     "",
     "modinv inverse: error: the following arguments are required: --n"),
    ("expected-one-at-end", "inverse --n 60 --e", 2,
     "",
     "modinv inverse: error: argument --e: expected one argument"),
    ("expected-one", "inverse --e --n 60", 2,
     "",
     "modinv inverse: error: argument --e: expected one argument"),
    ("unrecognized", "inverse --e 7 --n 60 --bogus 1", 2,
     "",
     "modinv: error: unrecognized arguments: --bogus 1"),
    ("unrecognized-value", "validate --n-max 16 extra", 2,
     "",
     "modinv: error: unrecognized arguments: extra"),
    ("ambiguous", "scan-float --e 5 --epsilon 1e-9", 2,
     "",
     "modinv scan-float: error: ambiguous option: --e could match --e-min, --e-max, --epsilon"),
    ("ambiguous-two", "bench --bits 10 --s 5 --out r.csv", 2,
     "",
     "modinv bench: error: ambiguous option: --s could match --samples, --seed"),
    ("invalid-format", "trace --e 7 --n 60 --alg euclid --format xml", 2,
     "",
     "modinv trace: error: argument --format: invalid choice: 'xml' (choose from "
     "'table', 'json')"),
    ("invalid-bench-format", "bench --bits 10 --samples 5 --format xml --out r.csv", 2,
     "",
     "modinv bench: error: argument --format: invalid choice: 'xml' (choose from 'csv', 'json')"),
    ("invalid-command", "frob", 2,
     "",
     "modinv: error: argument command: invalid choice: 'frob' (choose from 'inverse', "
     "'trace', 'validate', 'bench', 'scan-float', 'keygen-demo')"),
    ("not-an-integer", "inverse --e x --n 60", 2,
     "",
     "modinv inverse: error: argument --e: not an integer: 'x'"),
    ("empty-equals", "inverse --e= --n 60", 2,
     "",
     "modinv inverse: error: argument --e: not an integer: ''"),
    ("not-an-algorithm", "bench --bits 10 --samples 5 --reps 1 --algs bogus --out r.csv", 2,
     "",
     "modinv bench: error: argument --algs: not an exact algorithm: 'bogus'"),
    ("bad-e-fixed", "bench --bits 10 --samples 5 --e-fixed 3,x --out r.csv", 2,
     "",
     "modinv bench: error: argument --e-fixed: not an integer: 'x'"),
    ("float-algorithm", "inverse --e 7 --n 60 --alg ffim_float", 2,
     "",
     "modinv inverse: error: argument --alg: not an exact algorithm: 'ffim_float'"),
    ("required-epsilon", "scan-float --e-max 40", 2,
     "",
     "modinv scan-float: error: the following arguments are required: --epsilon"),
    ("required-last", "keygen-demo --p 5 --q 11", 2,
     "",
     "modinv keygen-demo: error: the following arguments are required: --e"),
    ("version-after-command", "inverse --e 7 --n 60 --version", 2,
     "",
     "modinv: error: unrecognized arguments: --version"),
    ("error-before-help", "inverse --e x -h", 2,
     "",
     "modinv inverse: error: argument --e: not an integer: 'x'"),
    ("help-before-error", "inverse -h --e x", 0, None, ""),
    ("digit-limit", DIGIT_LIMIT_ARGV, 2,
     "",
     "modinv inverse: error: argument --n: more than 4300 decimal digits (PYTHONINTMAXSTRDIGITS)"),
    ("double-dash", "inverse --e 7 --n 60 -- 5", 2,
     "",
     "modinv: error: unrecognized arguments: -- 5"),
    ("short-unknown", "inverse --e 7 --n 60 -x", 2,
     "",
     "modinv: error: unrecognized arguments: -x"),
    ("signed-hex-after-flag", "inverse --e -0x7 --n 60", 2,
     "",
     "modinv inverse: error: argument --e: expected one argument"),
    ("signed-hex-equals", "inverse --e=-0x7 --n 60 --alg euclid", 0,
     "euclid: d=17 k=15 iterations=5\n",
     ""),
    ("negative-float", "scan-float --e-max 4 --n-bits 8 --epsilon -.5", 2,
     "",
     "error: epsilon must lie in (0, 1/2), got -0.5"),
    ("not-a-float", "scan-float --epsilon x", 2,
     "",
     "modinv scan-float: error: argument --epsilon: invalid float value: 'x'"),
    ("help-explicit-argument", "inverse --help=5", 2,
     "",
     "modinv inverse: error: argument -h/--help: ignored explicit argument '5'"),
    ("double-short-help", "inverse -hh", 0, None, ""),
    ("flag-before-command", "-x inverse --e 7 --n 60", 2,
     "",
     "modinv: error: unrecognized arguments: -x"),
    ("version-before-command", "--version inverse", 0, "0.1.0\n", ""),
    ("flag-after-double-dash", "inverse --e 7 --n 60 -- -h", 2,
     "",
     "modinv: error: unrecognized arguments: -- -h"),
    ("double-dash-command", "-- inverse", 2,
     "",
     "modinv: error: argument command: invalid choice: '--' (choose from 'inverse', "
     "'trace', 'validate', 'bench', 'scan-float', 'keygen-demo')"),
    ("ambiguous-anywhere", "inverse --e 7 --n 60 --=5", 2,
     "",
     "modinv: error: ambiguous option: --=5 could match --help, --version"),
    ("value-with-blank", "inverse --e '-7 ' --n 60", 0,
     "sequential: d=17 k=15 iterations=17\n"
     "euclid: d=17 k=15 iterations=5\n"
     "stein: d=17 k=15 iterations=6\n"
     "gordon: d=17 k=15 iterations=10\n"
     "baghdad: d=17 k=15 iterations=15\n"
     "ffim_exact: d=17 k=15 iterations=2\n",
     ""),
]


def test_parity_table_covers_readme_examples():
    assert {shlex.join(argv[1:]) for argv in readme_cli_examples()} <= {row[1] for row in PARITY}


@pytest.mark.parametrize("argv,code,stdout,last_err", [row[1:] for row in PARITY],
                         ids=[row[0] for row in PARITY])
def test_parity_with_argparse(capsys, monkeypatch, tmp_path, request, argv, code, stdout,
                              last_err):
    monkeypatch.chdir(tmp_path)  # the README examples write their reports here
    if argv == DIGIT_LIMIT_ARGV:
        request.getfixturevalue("digit_limit")
    got, out, err = run(capsys, *shlex.split(argv))
    assert got == code
    if stdout is None:
        assert out.startswith("usage: modinv")
    else:
        assert re.sub(r"mean_ns=\d+", "mean_ns=N", out) == stdout
    assert (err.splitlines() or [""])[-1] == last_err


FLAGS = [
    "--e", "--n", "--alg", "--format", "--n-max", "--bits", "--samples", "--seed", "--e-fixed",
    "--algs", "--reps", "--out", "--e-min", "--e-max", "--samples-per-e", "--n-bits",
    "--epsilon", "--p", "--q", "-h", "--help", "--version",
    # misspelt, prefixed and bare
    "--bogus", "--algz", "--e-", "--s", "--ep", "--he", "--vers", "--", "-", "-x", "-e",
]
VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.integers(-10**6, 10**6).map(hex),
    st.sampled_from(["", " ", " 7", "7 ", "+-3", "-0x", "x", "1e-9", "-.5", "nan", "all",
                     "euclid", "ffim_float", "table", "json", "csv", "3,5", "euclid,stein"]),
    st.text(max_size=4),
)
TOKENS = st.one_of(
    st.sampled_from(FLAGS),
    VALUES,
    st.tuples(st.sampled_from(FLAGS), VALUES).map("=".join),
)
COMMANDS = st.sampled_from(
    ["inverse", "trace", "validate", "bench", "scan-float", "keygen-demo", "frob", "-h"]
)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(TOKENS, max_size=8), COMMANDS, st.booleans())
def test_parser_contract(tokens, command, with_command):
    # parsing only, no command runs: a namespace, or a clean exit 0 or 2
    argv = [command, *tokens] if with_command else tokens
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            code = exc.code
        else:
            code = None
    if code is None:
        assert (args.command, out.getvalue(), err.getvalue()) == (argv[0], "", "")
    elif code == 0:
        assert out.getvalue() and not err.getvalue()
    else:
        assert code == 2
        assert out.getvalue() == ""
        assert ": error: " in err.getvalue().splitlines()[-1]


def test_readme_python_examples_run():
    # each ```python block runs as written, so it names no removed function
    blocks = [b.split("```", 1)[0] for b in README.read_text().split("```python\n")[1:]]
    assert len(blocks) == 1
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


# Runs in a fresh interpreter where any import of numpy fails: imports
# modinv and runs each command of argv[1], the scan-float command included.
STARTUP_CHILD = """
import json, sys
sys.modules["numpy"] = None
import modinv
from modinv.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
"""


class TestStartup:
    def test_only_scan_float_loads_numpy(self, tmp_path):
        # every command, scan-float included, runs with numpy blocked
        commands = [
            ["inverse", "--e", "7", "--n", "60"],
            ["inverse", "--e", "4094", "--n", "4095"],
            # d = 310127, k = 202922 and i = 107205: every scan passes 2^12
            ["inverse", "--e", "654321", "--n", "1000003"],
            ["trace", "--e", "7", "--n", "60", "--alg", "ffim_exact", "--format", "json"],
            ["bench", "--bits", "10", "--samples", "5", "--seed", "7", "--reps", "1",
             "--algs", "euclid", "--out", str(tmp_path / "r.csv")],
            ["validate", "--n-max", "16"],
            ["keygen-demo", "--p", "5", "--q", "11", "--e", "7"],
        ]
        scan = [
            "scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
            "--n-bits", "24", "--epsilon", "1e-9", "--seed", "2",
            "--out", str(tmp_path / "scan.json"),
        ]
        proc = subprocess.run(
            [sys.executable, "-c", STARTUP_CHILD, json.dumps(commands + [scan])],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads((tmp_path / "scan.json").read_text())["pairs"] > 0

    @pytest.mark.parametrize("argv,loaded", [
        ([], []),
        (["inverse", "--e", "7", "--n", "60"], ["modinv.core"]),
        (["validate", "--n-max", "16"], ["modinv.core"]),
        (["keygen-demo", "--p", "5", "--q", "11", "--e", "7"], ["modinv.core"]),
        (["trace", "--e", "7", "--n", "60", "--alg", "baghdad"],
         ["modinv.core", "modinv.instrumentation"]),
        (["bench", "--bits", "10", "--samples", "5", "--reps", "1", "--algs", "euclid"],
         ["modinv.benchmark", "modinv.core"]),
        (["scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
          "--n-bits", "24", "--epsilon", "1e-9"],
         ["modinv.core", "modinv.floatlab"]),
    ], ids=["import", "inverse", "validate", "keygen-demo", "trace", "bench", "scan-float"])
    def test_command_loads_only_its_modules(self, tmp_path, argv, loaded):
        if argv[:1] == ["bench"]:
            argv = argv + ["--out", str(tmp_path / "r.csv")]
        proc = subprocess.run(
            [sys.executable, "-c", MODULES_CHILD, *argv],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        modules = set(proc.stdout.splitlines()[-1].split())
        assert sorted(m for m in modules if m.split(".")[0] == "modinv") == ["modinv", *loaded]
        if loaded == ["modinv.core"]:
            assert not modules & {"fractions", "json", "csv", "statistics"}

    def test_float_candidates_skip_numpy(self):
        # the float scan is plain Python, at large and small b (here
        # b = n mod e = 7 for the last pair)
        pairs = [(100003, 2**47 + 5), (309686, 2535179246073379), (97, 10**12 - 43)]
        proc = subprocess.run(
            [sys.executable, "-c", FLOAT_CHILD, json.dumps(pairs)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


# Runs under `python -S`, since a site .pth file may import typing before any
# command: runs each command of argv[1] and checks, after each, that none of
# dataclasses, inspect and typing has been loaded.
LEAN_CHILD = """
import json, sys
from modinv.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    loaded = {"dataclasses", "inspect", "typing"} & set(sys.modules)
    assert not loaded, (argv, sorted(loaded))
"""


def test_commands_skip_dataclasses_inspect_and_typing(tmp_path):
    # the records answer dataclasses' introspection, but no command asks
    commands = [
        ["inverse", "--e", "7", "--n", "60"],
        ["validate", "--n-max", "16"],
        ["keygen-demo", "--p", "5", "--q", "11", "--e", "7"],
        ["trace", "--e", "7", "--n", "60", "--alg", "stein", "--format", "table"],
        ["trace", "--e", "7", "--n", "60", "--alg", "ffim_exact", "--format", "json"],
        ["bench", "--bits", "10", "--samples", "5", "--seed", "7", "--reps", "1",
         "--out", str(tmp_path / "r.csv")],
        ["bench", "--bits", "10", "--samples", "5", "--seed", "7", "--reps", "1",
         "--format", "json", "--out", str(tmp_path / "r.json")],
        ["scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
         "--n-bits", "24", "--epsilon", "1e-9"],
        ["scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
         "--n-bits", "24", "--epsilon", "1e-9", "--out", str(tmp_path / "scan.json")],
    ]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", LEAN_CHILD, json.dumps(commands)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads((tmp_path / "r.json").read_text())["rows"]
    assert json.loads((tmp_path / "scan.json").read_text())["pairs"] == 18


# Runs under `python -S`, like LEAN_CHILD: runs each (argv, exit code, module
# names) entry of the list literal in argv[1] and checks, after each, that none
# of those modules has been loaded. It reads its list without json, which one
# of the entries names.
SLIM_CHILD = """
import ast, sys
from modinv.cli import main
for argv, code, unwanted in ast.literal_eval(sys.argv[1]):
    assert main(argv) == code, argv
    loaded = set(unwanted) & set(sys.modules)
    assert not loaded, (argv, sorted(loaded))
"""


def test_commands_skip_argparse_and_statistics(tmp_path):
    # the option table parses without argparse, which loads gettext and then
    # locale; a CSV report needs no statistics (which loads fractions) and no json
    parser = ["argparse", "gettext", "locale"]
    bench = ["bench", "--bits", "10", "--samples", "5", "--seed", "7", "--reps", "1"]
    commands = [
        # first, since later commands load json, and a ffim_exact trace fractions
        [bench + ["--format", "csv", "--out", str(tmp_path / "r.csv")], 0,
         parser + ["statistics", "fractions", "json"]],
        [bench + ["--format", "json", "--out", str(tmp_path / "r.json")], 0,
         parser + ["statistics", "fractions"]],
        [["inverse", "--e", "7", "--n", "60"], 0, parser],
        [["validate", "--n-max", "16"], 0, parser],
        [["keygen-demo", "--p", "5", "--q", "11", "--e", "7"], 0, parser],
        [["trace", "--e", "7", "--n", "60", "--alg", "stein"], 0, parser],
        [["-h"], 0, parser],
        [["inverse", "-h"], 0, parser],
        [["--version"], 0, parser],
        [["inverse", "--e", "x", "--n", "60"], 2, parser],
        [["frob"], 2, parser],
        [["trace", "--e", "7", "--n", "60", "--alg", "ffim_exact", "--format", "json"], 0, parser],
        [["scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
          "--n-bits", "24", "--epsilon", "1e-9"], 0, parser],
    ]
    proc = subprocess.run(
        [sys.executable, "-S", "-c", SLIM_CHILD, repr(commands)],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_scan_float_skips_fractions():
    # only ulp_gap needs Fraction, and scan-float never calls it
    argv = ["scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
            "--n-bits", "24", "--epsilon", "1e-9"]
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_CHILD, *argv],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert "modinv.floatlab" in modules
    assert "fractions" not in modules


@pytest.mark.parametrize("argv,module", [
    (["scan-float", "--e-min", "3", "--e-max", "20", "--samples-per-e", "1",
      "--n-bits", "24", "--epsilon", "1e-9"], "modinv.floatlab"),
    (["trace", "--e", "7", "--n", "60", "--alg", "euclid", "--format", "table"],
     "modinv.instrumentation"),
], ids=["scan-float", "trace-table"])
def test_command_without_json_output_skips_json(argv, module):
    # only a JSON report or trace needs the json module
    proc = subprocess.run(
        [sys.executable, "-c", MODULES_CHILD, *argv],
        env=child_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    modules = set(proc.stdout.splitlines()[-1].split())
    assert module in modules
    assert not {"json", "json.decoder"} & modules


# Runs in a fresh interpreter where any import of numpy fails: probes each
# (e, n) pair of argv[1] at epsilon 1e-11 and runs the float scan.
FLOAT_CHILD = """
import json, sys
sys.modules["numpy"] = None
from modinv import ModPair, ffim_float_inverse, probe
from modinv.floatlab import FloatInverseFailure
for e, n in json.loads(sys.argv[1]):
    probe(ModPair(e, n), 1e-11)
    try:
        ffim_float_inverse(ModPair(e, n), 1e-11)
    except FloatInverseFailure:
        pass
"""


# Runs in a fresh interpreter where any import of numpy fails: imports modinv,
# or runs `python -m modinv.cli` with the arguments after -c, and prints the
# names of the loaded modules as its last line.
MODULES_CHILD = """
import runpy, sys
sys.modules["numpy"] = None
if len(sys.argv) > 1:
    try:
        runpy.run_module("modinv.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        assert not exc.code, exc.code
else:
    import modinv
print(" ".join(sorted(sys.modules)))
"""


def test_callers_take_the_sequential_budget_from_core(capsys, monkeypatch, tmp_path):
    # at budget 10, (7, 60) has d = 43: --alg all leaves sequential out with
    # a note, and bench refuses before its first timed call
    monkeypatch.setattr(core, "SEQUENTIAL_BUDGET", 10)
    code, out, err = run(capsys, "inverse", "--e", "7", "--n", "60")
    assert code == 0
    assert err == "note: sequential left out: sequential scan passed SEQUENTIAL_BUDGET = 10 steps\n"
    assert [line.split(":")[0] for line in out.splitlines()] == [
        "euclid", "stein", "gordon", "baghdad", "ffim_exact"
    ]
    assert all(" d=43 " in line for line in out.splitlines())
    calls = []
    monkeypatch.setattr(AlgorithmId.EUCLID, "func", calls.append)
    code, out, err = run(
        capsys, "bench", "--bits", "10", "--samples", "3", "--reps", "1",
        "--algs", "euclid,sequential", "--out", str(tmp_path / "r.csv"),
    )
    assert (code, out, calls) == (2, "", [])
    assert err == "error: sequential scan passed SEQUENTIAL_BUDGET = 10 steps\n"
    assert not (tmp_path / "r.csv").exists()
