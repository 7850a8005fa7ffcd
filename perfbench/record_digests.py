"""Write perfbench/digests.json: the reference result digest of every
experiment, quick for the replay experiments and paper-scale for the rest.

    python3 perfbench/record_digests.py

Run it only at a commit whose results are known good: the benchmark
counts every later result that differs from these digests as failed.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, REPLAY_IDS
from worker import result_digest


def main() -> int:
    from repro import runtime
    from repro.experiments import registry

    ids = list(registry.all_experiments())
    doc = {}
    for scale, quick, chosen in (
        ("quick", True, list(REPLAY_IDS)),
        ("full", False, [i for i in ids if i not in REPLAY_IDS]),
    ):
        summary = runtime.run_batch(chosen, quick=quick, jobs=1, cache=None, retries=0)
        doc[scale] = {
            o.experiment_id: result_digest(o.result.as_dict())
            for o in summary.outcomes
        }
        if summary.failed:
            raise SystemExit(f"failed: {[o.experiment_id for o in summary.failed]}")
    DIGESTS.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
