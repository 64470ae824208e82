"""Golden digests of exact outputs, per workload, for two fixed seeds.

The digests were recorded from the library as it was when the benchmark was
defined, for the default seed and for one held-out seed, so a later change
that claims a speed-up must give bit-identical outputs on both.  Other seeds
have no goldens and rely on the independent checks alone.

Record again only when an output is meant to change:

    python3 perfbench/golden.py
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
PATH = HERE / "golden.json"
DEFAULT_SEED = 0
HELD_OUT_SEED = 9001


def digest(doc) -> str:
    """Short content hash of a JSON-able document."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def expected(workload: str, seed: int):
    """The recorded digests for this workload and seed, or None."""
    doc = json.loads(PATH.read_text())
    return doc["digests"].get(workload, {}).get(str(seed))


def _record() -> dict:
    from run import IN_PROCESS, run_cli_batch_once, worker

    digests: dict = {}
    for seed in (DEFAULT_SEED, HELD_OUT_SEED):
        for name in IN_PROCESS:
            out = worker("golden", "--workload", name, "--seed", str(seed))
            digests.setdefault(name, {})[str(seed)] = out["digests"]
        digests.setdefault("cli-batch", {})[str(seed)] = run_cli_batch_once(seed)
    return digests


def main() -> int:
    sys.path.insert(0, str(HERE))
    digests = _record()
    doc = {"seeds": {"default": DEFAULT_SEED, "held_out": HELD_OUT_SEED}, "digests": digests}
    PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {PATH.name}: " + ", ".join(f"{k} {len(v)} seeds" for k, v in digests.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
