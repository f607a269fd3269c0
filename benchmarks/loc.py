"""Line counts per ``src/repro`` package: raw lines and code lines.

Code lines are the lines that hold at least one token other than a
comment, a string that stands alone as a statement (a docstring) or
the newline/indent bookkeeping; they are counted with :mod:`tokenize`,
so a line inside a multi-line string that is an expression (not a
docstring) still counts.  Run from the repository root::

    python benchmarks/loc.py            # or: make loc

Stdlib only; prints for information, gates nothing.
"""

import io
import pathlib
import token
import tokenize

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"

_LAYOUT = {token.NEWLINE, token.NL, token.INDENT, token.DEDENT,
           token.COMMENT, token.ENDMARKER, token.ENCODING}


def code_lines(source):
    """Numbers of the lines of ``source`` that carry code."""
    lines = set()
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for index, tok in enumerate(tokens):
        if tok.type in _LAYOUT:
            continue
        if tok.type == token.STRING and _is_docstring(tokens, index):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def _is_docstring(tokens, index):
    """A string token that is a whole statement on its own."""
    before = index - 1
    while before >= 0 and tokens[before].type in (token.NL, token.COMMENT):
        before -= 1
    after = index + 1
    while after < len(tokens) and tokens[after].type == token.COMMENT:
        after += 1
    starts = before < 0 or tokens[before].type in (
        token.NEWLINE, token.INDENT, token.DEDENT, token.ENCODING)
    ends = after >= len(tokens) or tokens[after].type in (
        token.NEWLINE, token.ENDMARKER)
    return starts and ends


def count(path):
    source = path.read_text()
    return len(source.splitlines()), len(code_lines(source))


def table():
    """``{package: (raw, code)}`` for every package directly under
    ``src/repro``, plus the top-level modules as ``(top)`` and
    ``total``."""
    rows = {}
    for path in sorted(SRC.rglob("*.py")):
        parts = path.relative_to(SRC).parts
        package = parts[0] if len(parts) > 1 else "(top)"
        raw, code = count(path)
        old = rows.get(package, (0, 0))
        rows[package] = (old[0] + raw, old[1] + code)
    rows["total"] = tuple(map(sum, zip(*rows.values())))
    return rows


def main():
    print("%-12s %7s %7s" % ("package", "raw", "code"))
    for package, (raw, code) in table().items():
        print("%-12s %7d %7d" % (package, raw, code))


if __name__ == "__main__":
    main()
