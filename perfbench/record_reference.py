"""Record the reference outputs the benchmark checks against.

Run from the repository root, at a commit whose outputs are trusted::

    python3 perfbench/record_reference.py fig4    # reference/fig4_small.json
    python3 perfbench/record_reference.py fuzz    # reference/fuzz_campaign.json

Re-record only for a change that is meant to alter simulated cycles or
campaign reports, and say so in that change: a host-speed change must
leave both files as they are.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import (FUZZ_N, FUZZ_SEEDS, REFERENCE_DIR, use_source_tree)


def _write(name: str, doc: dict) -> None:
    path = REFERENCE_DIR / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


def record_fig4() -> None:
    import fig4

    data = fig4.regenerate(None)
    if data.get("failures"):
        sys.exit(f"fig4 has failed cells: {data['failures']}")
    _write("fig4_small", {"cells": fig4.cell_table(data),
                          "geomean": data["geomean"]})


def record_fuzz() -> None:
    import fuzz

    doc = {}
    for size, n in (("tiny", fuzz.TINY_N), ("full", FUZZ_N)):
        digests = {}
        for seed in range(FUZZ_SEEDS):
            report = fuzz.campaign(n, seed)
            if not report.clean:
                sys.exit(f"fuzz seed {seed} n={n} is not clean")
            digests[str(seed)] = fuzz.report_digest(report)
            print(f"{size} seed {seed}: {digests[str(seed)][:16]}",
                  flush=True)
        doc[size] = {"n": n, "digests": digests}
    _write("fuzz_campaign", doc)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("what", choices=("fig4", "fuzz"))
    args = parser.parse_args()
    use_source_tree()
    {"fig4": record_fig4, "fuzz": record_fuzz}[args.what]()


if __name__ == "__main__":
    main()
