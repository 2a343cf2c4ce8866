"""Print the lines, tokens and __all__ names of each src/orliczlab/*.py file
and their totals.

Tokens are counted with the standard tokenize module, leaving out the
tokens that carry no code: NL, NEWLINE, INDENT, DEDENT, COMMENT, ENCODING
and ENDMARKER.  Names are the entries of the module's __all__ list (0 when
it has none).  Run from anywhere:

    python tools/src_size.py
"""

import ast
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
    """(lines, tokens, __all__ names) of one source file."""
    with path.open("rb") as fh:
        tokens = sum(tok.type not in SKIP for tok in tokenize.tokenize(fh.readline))
    text = path.read_text()
    names = sum(
        len(node.value.elts)
        for node in ast.parse(text).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
    )
    return len(text.splitlines()), tokens, names


def main() -> None:
    totals = [0, 0, 0]
    print(f"{'file':<16}{'lines':>7}{'tokens':>8}{'names':>7}")
    for path in sorted(SRC.glob("*.py")):
        counts = size(path)
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{path.name:<16}{counts[0]:>7}{counts[1]:>8}{counts[2]:>7}")
    print(f"{'total':<16}{totals[0]:>7}{totals[1]:>8}{totals[2]:>7}")


if __name__ == "__main__":
    main()
