"""Daemon process of one benchmark run.

Builds the workload's deployment through the public API, the way
``cirank serve`` does, serves it on an ephemeral port with every other
``ServingParams`` default, prints ``port <n>`` on stdout and serves
until ``POST /shutdown``.

    python3 perfbench/launcher.py --workload cold-imdb \
        --spawned-at <time.monotonic() of the parent at spawn> \
        [--spans <file>]

With ``--spans`` the launcher first wraps the layers listed in
:mod:`spans` and, after shutdown, writes the spans, the per-execution
search counts and the set-up spans to that file as JSON.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

import repro  # noqa: E402
import repro.config  # noqa: E402
import repro.obs  # noqa: E402
import repro.serving  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORTED_AT = time.monotonic()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--spans", default="")
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    recorder = None
    if args.spans:
        recorder = spans.SpanRecorder()
        recorder.install(spans.SETUP_LAYERS)
        recorder.install(spans.REQUEST_LAYERS)

    # cirank serve logs at INFO to stderr; the parent points stderr at a
    # file, so the daemon never blocks on a full pipe.
    repro.obs.configure_logging("info")
    system = workloads.build_system(repro, workload)
    params = repro.config.ServingParams(port=0)

    async def serve() -> None:
        server = repro.serving.ServingServer(
            repro.serving.CIRankDaemon(system, params)
        )
        await server.start()
        print(f"port {server.port}", flush=True)
        await server.serve_until_shutdown()

    asyncio.run(serve())
    if recorder is not None:
        document = recorder.dump()
        document["import_s"] = IMPORTED_AT - args.spawned_at
        tmp = args.spans + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        os.replace(tmp, args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
