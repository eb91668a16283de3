import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modinv
from modinv import floatlab
from modinv.cli import main, parse_int, rsa_toy_keygen, run_exhaustive_validation
from modinv.core import AlgorithmId, DomainError, InverseOutcome, NoInverseError, OpCounts, is_prime


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
        # --alg all starts with sequential, whose d here is near 2^128: it
        # refuses after SEQUENTIAL_BUDGET candidates instead of running on
        proc = subprocess.run(
            [sys.executable, "-m", "modinv.cli", "inverse", "--e", "65537",
             "--n", "0xfffffffffffffffffffffffffffffff1"],
            env=child_env(), capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "SEQUENTIAL_BUDGET = 16777216" in proc.stderr

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

    def test_keygen_guards(self):
        with pytest.raises(DomainError):
            rsa_toy_keygen(5, 5, 7)
        with pytest.raises(DomainError):
            rsa_toy_keygen(1 << 33, 11, 7)
        with pytest.raises(NoInverseError):
            rsa_toy_keygen(5, 11, 5)


class TestHelpers:
    def test_parse_int(self):
        assert parse_int("42") == 42
        assert parse_int("0x2a") == 42
        assert parse_int("-7") == -7

    def test_is_prime(self):
        assert [n for n in range(2, 30) if is_prime(n)] == [
            2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
        ]


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

    def test_float_candidates_skip_numpy(self):
        # both float paths are plain Python: the candidates and the loop over
        # every index (here b = n mod e = 7, below 4 * (2T + 1))
        pairs = [(100003, 2**47 + 5, False), (309686, 2535179246073379, False), (97, 10**12 - 43, True)]
        for e, n, fallback in pairs:
            b = n % e
            assert floatlab._falls_back(b, floatlab._threshold(e, b, b / e, 1e-11)) == fallback
        proc = subprocess.run(
            [sys.executable, "-c", FLOAT_CHILD, json.dumps(pairs)],
            env=child_env(), capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr


# Runs in a fresh interpreter where any import of numpy fails: probes each
# (e, n, fallback) pair of argv[1] at epsilon 1e-11 and runs the float scan.
FLOAT_CHILD = """
import json, sys
sys.modules["numpy"] = None
from modinv import ModPair, ffim_float_inverse, probe
from modinv.floatlab import FloatInverseFailure
for e, n, _ in json.loads(sys.argv[1]):
    probe(ModPair(e, n), 1e-11)
    try:
        ffim_float_inverse(ModPair(e, n), 1e-11)
    except FloatInverseFailure:
        pass
"""
