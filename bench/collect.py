"""Merge the run files under ``.bench_out/`` into one baseline file.

    python3 bench/collect.py OUT.json

For each workload: the median and quartiles over runs of every end-to-end
metric (``--trace 0`` runs), and from the traced runs every per-layer
metric's median.  Per-layer counts and ratios of counts repeat exactly, so
each is listed once and the file records whether every traced run agreed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def is_timing(name: str) -> bool:
    return name.endswith("_s")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [json.loads(p.read_text()) for p in sorted((ROOT / ".bench_out").glob("*.json"))]
    out: dict = {"env": runs[0]["env"] if runs else None, "workloads": {}}
    for wl in sorted({r["workload"] for r in runs}):
        entry = out["workloads"].setdefault(wl, {})
        for trace in (0, 1):
            group = [r for r in runs if r["workload"] == wl and r["trace"] == trace]
            if not group:
                continue
            names = group[0]["metrics"]
            stats = {}
            for name in names:
                vals = [r["metrics"][name]["value"] for r in group]
                q = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
                stats[name] = {"median": statistics.median(vals), "q1": q[0], "q3": q[2],
                               "unit": names[name]["unit"]}
                if trace and not is_timing(name):
                    stats[name]["exact"] = len(set(vals)) == 1
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                "runs": len(group),
                "seeds": sorted(r["seed"] for r in group),
                "all_correct": all(r["correct"] for r in group),
                "metrics": stats,
            }
    Path(argv[0]).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
