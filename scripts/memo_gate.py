#!/usr/bin/env python
"""Cold versus warm probe memo: one campaign, run N times in one process.

A campaign's model build reads its startup-probe outcomes through the
per-process memo (``repro.core.probes.probe_memo``), so every campaign
after the first in an interpreter builds its model without probing.
This driver runs the same 1 h dnsmasq/cmfuzz campaign ``--runs`` times
in one interpreter, checks that the in-process exports agree, and
writes the last one. Comparing a fresh interpreter's export with a
second campaign's pins that memo warmth never reaches an export::

    PYTHONPATH=src python scripts/memo_gate.py --runs 1 --out cold.json
    PYTHONPATH=src python scripts/memo_gate.py --runs 2 --out warm.json
    cmp cold.json warm.json

Exits non-zero with a ``FAIL:`` line if the in-process exports differ
or the memo stayed empty.
"""

import argparse
import sys

from repro.api import run_campaign
from repro.core.probes import probe_memo
from repro.harness.campaign import CampaignConfig
from repro.harness.export import results_to_json
from repro.targets import get_target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    config = CampaignConfig(n_instances=4, duration_hours=1.0, seed=7)
    memo = probe_memo(get_target("dnsmasq").target_cls)
    exports = []
    for run in range(args.runs):
        exports.append(results_to_json(
            [run_campaign("dnsmasq", mode="cmfuzz", config=config)]))
        print("run %d: memo holds %d outcomes"
              % (run + 1, len(memo.outcomes)), file=sys.stderr)
    if not memo.outcomes:
        print("FAIL: the campaign's model build left the memo empty")
        return 1
    if any(export != exports[0] for export in exports):
        print("FAIL: campaigns in one interpreter exported differently")
        return 1
    with open(args.out, "w") as handle:
        handle.write(exports[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
