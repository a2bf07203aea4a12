"""The CLI's bytes on every command of bench/cli_diff.py, against golden digests.

The commands run in-process through bench/cli_golden.py, which also writes
tests/cli_golden.json.  A change that alters the CLI's output on purpose
regenerates that file with `python bench/cli_golden.py --src src --out
tests/cli_golden.json` and names every changed command.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _cli_golden():
    spec = importlib.util.spec_from_file_location("cli_golden", ROOT / "bench" / "cli_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_bytes_match_the_golden_digests(tmp_path):
    want = json.loads((ROOT / "tests" / "cli_golden.json").read_text())["digests"]
    got = _cli_golden().run_all(str(tmp_path))
    assert [d["args"] for d in got] == [d["args"] for d in want], "the command list changed"
    differ = [f"{w['id']} (exit {w['exit']} -> {g['exit']}): {w['args']}"
              for w, g in zip(want, got) if w != g]
    assert not differ, f"{len(differ)} commands differ:\n" + "\n".join(differ)
