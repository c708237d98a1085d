"""The README's examples run as shown: the library snippet and the CLI transcripts."""

import re
import shlex
from pathlib import Path

from spinqc.circuit import builtin_circuit, parse_circuit
from spinqc.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _transcripts():
    """(argv, expected stdout lines) for each ``$ spinqc ...`` line of the README."""
    examples = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        lines = block.replace("\\\n", " ").splitlines()
        for k, line in enumerate(lines):
            if not line.startswith("$ spinqc "):
                continue
            shown = []
            for out in lines[k + 1:]:
                if not out or out.startswith("$ "):
                    break
                shown.append(out)
            examples.append((shlex.split(line[2:])[1:], shown))
    return examples


def test_readme_library_example_runs(capsys):
    (code,) = re.findall(r"## Library example\s+```python\n(.*?)```", README, flags=re.S)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and float(printed[1]) > 0.99


def test_readme_cli_transcripts_match_byte_for_byte(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the transcripts name demo_system.cfg by a relative path
    examples = _transcripts()
    assert [argv[:3] for argv, shown in examples if shown] == [
        ["run", "--builtin", "ghz3"],
        ["spectrum", "--system", "demo_system.cfg"],
    ]
    for argv, shown in examples:
        assert main(argv) == 0, argv
        out = capsys.readouterr().out
        if shown:
            assert out == "\n".join(shown) + "\n"


def test_readme_circuit_file_example_is_the_ghz3_builtin():
    (block,) = re.findall(r"### Circuit files.*?```\n(.*?)```", README, flags=re.S)
    assert parse_circuit(block) == builtin_circuit("ghz3")
