"""Start-up guard: what a fresh `loopgr` process imports.

Every `loopgr` command pays for the modules `loopgr.cli` pulls in, and
without a bytecode cache it compiles them on each start as well.  Each of
the modules named below cost about 5-15 ms of a ~120 ms start when measured,
so one stray import moves the start time of every command.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
HEAVY = {"typing", "hashlib", "subprocess", "threading", "asyncio"}


def test_cli_import_pulls_in_no_heavy_or_outside_module():
    # -S: no site hooks, so only what loopgr.cli itself imports is loaded
    code = "import sys, loopgr.cli; print(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(proc.stdout.split())
    assert "loopgr.cli" in loaded
    assert not HEAVY & loaded
    tops = {m.split(".")[0] for m in loaded} - {"__main__", "loopgr"}
    assert tops <= set(sys.stdlib_module_names), sorted(tops - set(sys.stdlib_module_names))
