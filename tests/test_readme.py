"""README's library example runs as written and prints what its comments state."""

import contextlib
import io
import re
from pathlib import Path

from qmap import cubic_cases
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
