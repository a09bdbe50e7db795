"""The README's code and the package's advertised names stay runnable."""

import re
import shlex
from pathlib import Path

import rank1spec
from rank1spec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                      flags=re.DOTALL | re.MULTILINE)


def test_readme_python_blocks_run():
    blocks = python_blocks()
    assert len(blocks) >= 2
    # later blocks reuse the names of earlier ones, as a reader would
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


def command_lines() -> list[str]:
    """Every `rank1spec ...` line of the plain code blocks, continuations joined."""
    # match every fenced block so that a closing fence never opens one
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(),
                        flags=re.DOTALL | re.MULTILINE)
    text = "\n".join(body for lang, body in blocks if not lang)
    lines = text.replace("\\\n", " ").splitlines()
    return [line for line in lines if line.startswith("rank1spec ")]


def test_readme_command_lines_parse():
    # parse only: a line naming a removed subcommand, mode or flag fails,
    # and so does a verify line passing a flag its check does not read
    lines = command_lines()
    assert len(lines) >= 10
    for line in lines:
        cli.build_parser().parse_args(shlex.split(line)[1:])


def test_all_names_resolve_once():
    names = rank1spec.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(rank1spec, n)]
    assert missing == []
