"""Run ``repro serve`` with the benchmark's span recorders installed.

Usage: ``python traced_server.py OUT_BASE serve --pipe --model ...``

Only the traced serve-mix run starts the server this way.  On exit it
writes ``OUT_BASE.spans.jsonl`` and ``OUT_BASE.meta.json``: the conv
plan table and the summed capture counters of every network the server
bound, sampled at each ``stats`` request so the benchmark can take
deltas over its timed phase.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    out_base, rest = argv[0], argv[1:]
    import tracing
    from repro.cli import main as repro_main
    from repro.nn import dispatch
    from repro.serve.server import FillServer

    store = tracing.SpanStore(keep_networks=True)
    tracing.install(store)
    snapshots: list[dict] = []
    stats_snapshot = FillServer.stats_snapshot

    def recording_stats_snapshot(self):
        snapshots.append({"t": time.monotonic(),
                          **tracing.capture_totals(store.networks)})
        return stats_snapshot(self)
    FillServer.stats_snapshot = recording_stats_snapshot

    try:
        return repro_main(rest)
    finally:
        store.write(out_base + ".spans.jsonl")
        with open(out_base + ".meta.json", "w") as fh:
            json.dump({"plan_table": dispatch.plan_table(),
                       "capture_at_stats": snapshots}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
