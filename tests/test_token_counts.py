"""tools/token_counts.py on a fixed source string and a temporary package.
The tool is loaded by path, as it is not part of the package."""

import importlib.util
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "token_counts.py"

SOURCE = '''# a comment line: COMMENT and NL only
x = 1  # NAME, OP, NUMBER, NEWLINE; the comment is not counted

def f(a):
    """One STRING token."""
    return a + 1
'''


@pytest.fixture(scope="module")
def token_counts():
    spec = importlib.util.spec_from_file_location("token_counts", TOOL)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


def test_parser_tokens_skip_comments_and_blank_lines(token_counts):
    # x = 1 NEWLINE (4); def f ( a ) : NEWLINE (7); INDENT STRING NEWLINE
    # (3); return a + 1 NEWLINE (5); DEDENT ENDMARKER (2)
    assert token_counts.parser_tokens(SOURCE) == 21
    padded = SOURCE.replace("\n\n", "\n\n# more comment\n\n\n")
    assert token_counts.parser_tokens(padded) == 21
    assert token_counts.parser_tokens(SOURCE + "y = x\n") == 25


@pytest.mark.parametrize("count,power", [(1, 1), (21, 32), (3945, 4096), (4096, 4096), (4097, 8192)])
def test_next_power_of_two(token_counts, count, power):
    assert token_counts.next_power_of_two(count) == power


def test_main_prints_each_module(token_counts, tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("z = 2\n")
    assert token_counts.main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert lines == [["a.py", "5", "8"], ["b.py", "21", "32"]]
