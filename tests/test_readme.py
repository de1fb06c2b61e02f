"""The README's Quick start snippet runs and prints what the README says it prints."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_start_snippet() -> str:
    """The first ``python`` code block under the README's "Quick start" heading."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Quick start"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_prints_its_documented_estimate():
    snippet = quick_start_snippet()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {"__name__": "readme"})
    printed = out.getvalue().strip()
    assert printed == "E[cos x] ~ 0.88250 +- 0.00001"
    # the snippet's last line is the comment that shows its output
    assert snippet.strip().splitlines()[-1] == "# " + printed
