"""Count the lines of code in src/modinv, per module and in total.

A line counts when it is not blank and its first non-blank character is not
"#"; docstrings count. Run from anywhere: python tools/loc.py
"""

from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modinv"


def count(path: Path) -> int:
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main() -> None:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        lines = count(path)
        total += lines
        print(f"{path.name:20} {lines:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
