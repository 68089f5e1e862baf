"""Print the code lines of each module of the package and their total.

A code line is a physical line that holds part of a statement. Blank
lines, comments and docstrings do not count; a docstring is any statement
that is only a string literal (a module's, a class's, a function's, or an
attribute's). A statement that spans lines counts each of them.

Usage: python3 scripts/code_lines.py   (counts src/it2frbc)

Standard library only (tokenize), so the counts quoted for a change can be
reproduced on any checkout.
"""
import pathlib
import sys
import tokenize

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "it2frbc"
# Tokens that carry no code: layout, comments and the stream's own markers.
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(readline) -> int:
    """The number of code lines in the source that ``readline`` gives."""
    lines, statement = set(), []
    for tok in tokenize.generate_tokens(readline):
        if tok.type in LAYOUT:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        if not all(t.type == tokenize.STRING for t in statement):  # not a docstring
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main() -> int:
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        with tokenize.open(path) as fh:
            counts[path.name] = code_lines(fh.readline)
    width = max(map(len, [*counts, "total"]))
    for name, count in [*counts.items(), ("total", sum(counts.values()))]:
        print(f"{name:<{width}}  {count:>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
