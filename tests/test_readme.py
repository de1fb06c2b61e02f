"""The README's Quick start snippet runs and prints what it says.

Its config keys are the CLI's, and its ``DesignConfig`` knobs are the dataclass's fields.
"""

import contextlib
import dataclasses
import io
import json
import re
from pathlib import Path

from gpexpect.cli import _RUN_KEYS
from gpexpect.design import DesignConfig

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


def test_optional_keys_paragraph_names_the_keys_the_cli_accepts():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("### `gpexpect run"):text.index("### `gpexpect benchmark")]
    # the example config holds the required keys and one mixture source
    example = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    sources = {"mixture", "samples_file", "n_gmm", "uniform_box"}
    assert sources <= set(_RUN_KEYS) and set(example) <= set(_RUN_KEYS)
    paragraph = re.search(r"Optional keys:(.*?):\n", section, re.S).group(1)
    # the keys outside parentheses are the top-level ones
    top_level = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", paragraph))
    assert sorted(top_level) == sorted(set(_RUN_KEYS) - set(example) - sources)


def test_design_config_knobs_are_the_fields_with_defaults():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("Useful `DesignConfig` knobs:"):text.index("## Library layout")]
    bullets = re.findall(r"^- `(\w+)`", section, re.M)
    defaulted = [f.name for f in dataclasses.fields(DesignConfig)
                 if f.default is not dataclasses.MISSING]
    assert sorted(bullets) == sorted(defaulted)
