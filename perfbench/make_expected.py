"""Regenerate perfbench/expected.json, the benchmark's stored references.

    python3 perfbench/make_expected.py

Per-length element counts come from the affine-permutation oracle
(`explore.oracle_counts`), which is independent of the diagram engine.
Census rows count as stable at the horizon when their left and right cell
counts equal those two lengths lower.  The stdout digests are those of the
current sources; regenerate only when a change is meant to alter output.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run
import workloads as w

sys.path.insert(0, str(run.SRC))
from afftl.cells import census  # noqa: E402
from afftl.config import GroupConfig  # noqa: E402
from afftl.explore import oracle_counts  # noqa: E402


def stable_labels(n: int, horizon: int) -> list[str]:
    def rows(max_len):
        return {
            w._label_key(r.two_sided.to_json()): (r.left_cells, r.right_cells)
            for r in census(GroupConfig(n), max_len)
        }

    lower, full = rows(horizon - 2), rows(horizon)
    return sorted(key for key, cells in full.items() if lower.get(key) == cells)


def main() -> int:
    expected = {
        "oracle_counts": {
            "enumerate": oracle_counts(GroupConfig(w.ENUMERATE_N), w.ENUMERATE_MAX_LEN),
            "census": oracle_counts(GroupConfig(w.CENSUS_N), w.CENSUS_MAX_LEN),
            "verify": oracle_counts(GroupConfig(w.VERIFY_N), w.VERIFY_MAX_LEN),
        },
        "census_stable": stable_labels(w.CENSUS_N, w.CENSUS_MAX_LEN),
        "sha256": {"products": {}},
    }
    run.WORK.mkdir(parents=True, exist_ok=True)
    jobs = [(name, w.DEFAULT_SEED) for name in ("enumerate", "census", "verify")]
    jobs += [("products", seed) for seed in (w.DEFAULT_SEED, w.HELD_OUT_SEED)]
    for name, seed in jobs:
        job = w.WORKLOADS[name](seed, run.WORK, {**expected, "sha256": {name: None, "products": {}}})
        proc = run.spawn(["-m", "afftl.cli", *job.argv])
        reason = run.failure(job, proc, None)
        if reason:
            raise SystemExit(f"{name} seed {seed}: {reason}")
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if name == "products":
            expected["sha256"]["products"][str(seed)] = digest
        else:
            expected["sha256"][name] = digest
        print(f"{name} seed {seed}: {digest}", flush=True)
    with open(w.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
