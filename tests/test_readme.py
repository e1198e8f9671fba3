"""The README's library and CLI quick starts run as written, with their
sizes shrunk."""

from __future__ import annotations

import pathlib
import re
import shlex

from qubolab.cli import main

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


# Each size in the CLI quick start and the smaller value the test runs it with.
CLI_SHRINK = {"--n 500": "--n 100", "--epochs 50": "--epochs 2"}


def test_cli_quick_start_runs(tmp_path, monkeypatch, capsys):
    blocks = [block for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
              if "qubolab gen-instance" in block]
    assert len(blocks) == 1
    script = blocks[0].replace("\\\n", " ")
    for size, small in CLI_SHRINK.items():
        assert script.count(size) == 1, f"CLI quick start no longer sets {size}"
        script = script.replace(size, small)
    commands = [shlex.split(line) for line in script.splitlines() if line.strip()]
    assert [argv[:2] for argv in commands] == [
        ["qubolab", "gen-instance"], ["qubolab", "gen-data"], ["qubolab", "train"],
        ["qubolab", "eval"]]
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUBOLAB_OUTDIR", raising=False)
    for argv in commands:
        assert main(argv[1:]) == 0, capsys.readouterr().err
        out = pathlib.Path(argv[argv.index("--out") + 1])
        assert out.is_file()
        assert out.with_suffix(".config.json").is_file()
