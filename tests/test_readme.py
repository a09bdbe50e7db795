"""The README's code and the package's advertised names stay runnable."""

import re
from pathlib import Path

import rank1spec

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


def test_all_names_resolve_once():
    names = rank1spec.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(rank1spec, n)]
    assert missing == []
