"""Record reference answers for one seed into reference/seed-<seed>.json.

Usage, from the repository root:

    python3 perfbench/make_reference.py --seed 1 [--workload dp-p3 ...]

The answers come from an engine other than the one under test where the
package has one (the dict-based reference DP); see each workload's
``reference_engine``.  Workloads not named keep their recorded answers.
dp-p3 is the slow one: the reference engine needs about half a minute per
instance.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402
from spans import NullTracer  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    names = args.workload or sorted(workloads.WORKLOADS)

    path = workloads.REFERENCE_DIR / f"seed-{args.seed}.json"
    for name in names:
        wl = workloads.WORKLOADS[name]
        t0 = time.perf_counter()
        answers = [wl.make_reference(inp) for inp in wl.inputs(args.seed, NullTracer())]
        elapsed = time.perf_counter() - t0
        # Re-read so that a concurrent run for another workload is kept.
        recorded = json.loads(path.read_text()) if path.exists() else {}
        recorded[name] = {
            "engine": wl.reference_engine,
            "command": f"python3 perfbench/make_reference.py --seed {args.seed} --workload {name}",
            "elapsed_s": round(elapsed, 1),
            "answers": answers,
        }
        print(f"{name}: {len(answers)} answers in {elapsed:.1f} s", flush=True)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(recorded, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
