"""Parser-token count of each `src/blowup_lab` module, and the next power of two.

    python tools/token_counts.py [DIR]

CPython's parser grows its token array by doubling, so a module's compile
memory jumps when its token count crosses a power of two.  The count here
is that of `tokenize` without the COMMENT, NL and ENCODING tokens, the ones
the parser never sees.  DIR defaults to the package next to this script.
Standard library only.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
PACKAGE = Path(__file__).resolve().parent.parent / "src" / "blowup_lab"


def parser_tokens(source: str) -> int:
    """Tokens of a module's source that reach the parser."""
    toks = tokenize.generate_tokens(io.StringIO(source).readline)
    return sum(tok.type not in SKIPPED for tok in toks)


def next_power_of_two(count: int) -> int:
    """The least power of two at or above count."""
    return 1 << max(0, count - 1).bit_length()


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else PACKAGE
    for path in sorted(root.glob("*.py")):
        count = parser_tokens(path.read_text(encoding="utf-8"))
        print(f"{path.name:16s} {count:6d} {next_power_of_two(count):6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
