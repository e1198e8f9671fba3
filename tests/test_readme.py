"""The README's library quick start runs as written, with its sizes shrunk."""

from __future__ import annotations

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# Each size in the quick start and the smaller value the test runs it with.
SHRINK = {
    "max_steps=500": "max_steps=50",
    "steps=2000": "steps=200",
    "n_pairs=200": "n_pairs=40",
    "epochs=50": "epochs=2",
}


def test_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    code = blocks[0]
    for size, small in SHRINK.items():
        assert code.count(size) == 1, f"quick start no longer sets {size}"
        code = code.replace(size, small)
    namespace: dict = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["res"].f_best <= namespace["res"].trace[0]
    assert len(namespace["history"]) == 2
    assert len(capsys.readouterr().out.splitlines()) == 3
