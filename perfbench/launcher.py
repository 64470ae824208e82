"""Run ``loopgr.cli.main`` with every layer traced.

    python3 -u perfbench/launcher.py LAYERS_JSON batch FILE

Installs the benchmark's wrappers, counts the bytes the CLI hands to
``json.loads``, runs the CLI with the remaining arguments, and writes the
per-layer metrics to LAYERS_JSON (spans beside it) when the CLI returns.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from tracer import Tracer, install, layer_metrics  # noqa: E402


def main() -> int:
    out_path = Path(sys.argv[1])
    argv = sys.argv[2:]
    from loopgr import cli

    tracer = Tracer()
    restore = install(tracer)
    bytes_in = 0

    def loads(text, *args, **kwargs):
        nonlocal bytes_in
        bytes_in += len(text.encode()) if isinstance(text, str) else len(text)
        return json.loads(text, *args, **kwargs)

    real_json = cli.json
    cli.json = types.SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError
    )
    traced_main = tracer.wrap("cli.main", cli.main)
    run_one = tracer.wrap("cli.entry", cli._run_one)
    entries = 0

    def run_entry(*args):
        # spans of one batch entry share a trace id
        nonlocal entries
        tracer.start_job(entries)
        entries += 1
        return run_one(*args)

    cli._run_one = run_entry
    tracer.active = True
    try:
        code = traced_main(argv)
    finally:
        tracer.active = False
        cli.json = real_json
        cli._run_one = run_one.__wrapped__
        restore()
        sys.stdout.flush()
        metrics = layer_metrics(tracer)
        metrics["jsonio.bytes_in"] = bytes_in
        out_path.write_text(json.dumps(metrics))
        tracer.write_spans(out_path.with_suffix(".spans.jsonl"))
    return code


if __name__ == "__main__":
    sys.exit(main())
