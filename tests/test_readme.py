"""README's library example runs as written and prints what its comments state, and every
command of its CLI block exits 0."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qmap import cli, cubic_cases
from qmap.opseq import chebyshev_recurrence

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_the_library_example_prints_what_its_comments_state(monkeypatch):
    # case 13 builds by the ascent (k = 3) and eta = x + 1 by the Chebyshev on u (k = 2)
    calls = []
    monkeypatch.setattr(cubic_cases, "chebyshev_recurrence", lambda u, N: calls.append(u) or chebyshev_recurrence(u, N))
    code = _library_example()
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), namespace)
    printed = out.getvalue().splitlines()
    stated = re.findall(r"^print\((.*)\)\s*# (.*)$", code, re.M)
    assert [comment for _, comment in stated] == ["2", "canonical Phi, monic", "(1/1)*x^3", "2 1", "(1/1)*x^2"]
    assert len(printed) == len(stated)
    for line, (expr, comment) in zip(printed, stated):
        if comment.endswith("monic"):
            assert eval(expr, namespace).lc == 1, expr
        else:
            assert line == comment, expr
    assert calls == [namespace["square"].u]


def _cli_commands() -> list[list[str]]:
    text = README.read_text()
    section = text[text.index("## CLI") :]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("qmap ")]


def test_the_cli_block_lists_every_command():
    assert [argv[0] for argv in _cli_commands()] == ["ops", "map", "classify", "tables", "measure", "descend"]


@pytest.mark.parametrize("argv", _cli_commands(), ids=lambda argv: argv[0])
def test_each_cli_example_exits_0(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, argv
    assert out.getvalue().startswith("{")
