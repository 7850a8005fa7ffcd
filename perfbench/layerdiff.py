"""Print where per-layer time moved between two sets of traced runs.

    python3 perfbench/layerdiff.py BEFORE AFTER

BEFORE and AFTER are directories holding one ``<workload>.json`` per
workload: the last stdout line of ``perfbench/run.py --trace 1``, e.g.

    for w in replay sweep serve; do
        python3 perfbench/run.py --workload $w --seed 7 --seconds 20 --trace 1 \\
            | tail -n 1 > before/$w.json
    done

One row per workload and per-layer metric that is non-zero on either
side, with both values, the difference and the relative change.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(directory: Path) -> dict[str, dict[str, dict]]:
    """workload -> metric name -> {"value", "unit"}."""
    return {
        path.stem: json.loads(path.read_text())["metrics"]
        for path in sorted(directory.glob("*.json"))
    }


def rows(before: dict, after: dict) -> list[tuple]:
    out = []
    for workload in sorted(set(before) & set(after)):
        old, new = before[workload], after[workload]
        for name in sorted(set(old) & set(new)):
            a, b = old[name]["value"], new[name]["value"]
            if a == 0 and b == 0:
                continue
            change = f"{(b - a) / a:+.1%}" if a else "new"
            out.append((workload, name, old[name]["unit"], a, b, b - a, change))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    args = parser.parse_args(argv)
    before, after = load(args.before), load(args.after)
    missing = sorted(set(before) ^ set(after))
    if missing:
        print(f"workloads on one side only: {', '.join(missing)}", file=sys.stderr)
    table = rows(before, after)
    w0 = max([len("workload")] + [len(r[0]) for r in table])
    w1 = max([len("metric")] + [len(r[1]) for r in table])
    print(f"{'workload':<{w0}}  {'metric':<{w1}}  {'unit':<6} "
          f"{'before':>12} {'after':>12} {'delta':>12} {'change':>8}")
    for workload, name, unit, a, b, delta, change in table:
        print(f"{workload:<{w0}}  {name:<{w1}}  {unit:<6} "
              f"{a:>12.6g} {b:>12.6g} {delta:>+12.6g} {change:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
