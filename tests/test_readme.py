"""The "Library tour" block of README.md runs, and its comments hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _tour_block() -> str:
    text = README.read_text()
    tour = text[text.index("## Library tour") :]
    return re.search(r"```python\n(.*?)```", tour, re.S).group(1)


def test_library_tour_runs_as_documented():
    block = _tour_block()
    ns: dict = {}
    exec(compile(block, str(README), "exec"), ns)
    assert "# 1 + t + ... + O(t^8)" in block
    assert repr(ns["u"].invert(8)) == "1 + t + t^2 + t^3 + t^4 + t^5 + t^6 + t^7 + O(t^8)"
    assert "# (1, -1)" in block
    assert ns["stratum"](ns["a"]).entries == (1, -1)
    assert "# (0, 0)" in block
    assert ns["splitting_type"](ns["d"]).a == (0, 0)


TYPES = {"loop", "datum", "scalar", "factorization", "function", "int", "boolean", "ring"}


def test_command_line_field_table_matches_the_cli():
    from loopgr.cli import _COMMANDS

    text = README.read_text()
    section = text[text.index("## Command line") : text.index("## Acceptance suite")]
    documented = {}
    for name, *cells in re.findall(r"^\| `([a-z0-9-]+)` \|(.*)\|(.*)\|$", section, re.M):
        fields = [re.findall(r"`(\w+)`: (\w+)", cell) for cell in cells]
        assert {kind for cell in fields for _, kind in cell} <= TYPES, name
        documented[name] = tuple(tuple(f for f, _ in cell) for cell in fields)
    assert documented == {name: (req, opt) for name, (_, req, opt) in _COMMANDS.items()}
