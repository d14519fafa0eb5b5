"""The README's library example runs against the current API.

The fenced Python block under "Library example" is executed as written,
with its grid and step counts made small, so a change that breaks the
documented calls fails here.
"""

import re
from pathlib import Path

import pytest

README = Path(__file__).parents[1] / "README.md"

#: ``(as written, as run)``: the sizes shrunk for the test, each of which must
#: still appear in the example.
SMALL = [("257)", "33)"), ("substeps=1024", "substeps=64")]


def library_example():
    text = README.read_text(encoding="utf-8")
    match = re.search(r"^## Library example\n+```python\n(.*?)^```", text, re.M | re.S)
    assert match, "README.md has no python block under '## Library example'"
    return match.group(1)


def test_library_example_runs(capsys):
    code = library_example()
    for written, run in SMALL:
        assert code.count(written) == 1, written
        code = code.replace(written, run)
    exec(compile(code, str(README), "exec"), {})
    audit, drift = capsys.readouterr().out.splitlines()
    s1, s2, k2 = audit.split()
    assert float(s1) >= 1.0 and float(s2) > 0.0 and k2 in ("True", "False")
    assert float(drift) == pytest.approx(0.0, abs=1e-12)
