"""Print the lines and tokens of each src/orliczlab/*.py file and their total.

Tokens are counted with the standard tokenize module, leaving out the
tokens that carry no code: NL, NEWLINE, INDENT, DEDENT, COMMENT, ENCODING
and ENDMARKER.  Run from anywhere:

    python tools/src_size.py
"""

import pathlib
import tokenize

SKIP = {
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.COMMENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "orliczlab"


def size(path: pathlib.Path) -> tuple:
    """(lines, tokens) of one source file."""
    with path.open("rb") as fh:
        tokens = sum(tok.type not in SKIP for tok in tokenize.tokenize(fh.readline))
    return len(path.read_text().splitlines()), tokens


def main() -> None:
    total_lines = total_tokens = 0
    for path in sorted(SRC.glob("*.py")):
        lines, tokens = size(path)
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<16}{lines:>7}{tokens:>8}")
    print(f"{'total':<16}{total_lines:>7}{total_tokens:>8}")


if __name__ == "__main__":
    main()
