"""Boot the fleetd daemon for the ``fleetd_ops`` workload.

    python3 perfbench/daemon.py --socket S --spool DIR --seed N \\
        --result OUT.json [--spans SPANS.npz]

Serves the stock :class:`repro.fleetd.server.FleetdServer` over the
socket until a ``stop`` request. Its wall-paced tick thread does not
tick, so simulated time advances only through ``run`` requests; it
times the reference kernel between requests instead. With
``--spans`` the engine's query and tick methods, the checkpoint spool
and the controller restore are wrapped before serving, each request's
spans are filed under the ``rid`` field the generator adds, and the
spans are written at exit. At exit the daemon writes ``OUT.json``: its
fleet digest, simulated totals, peak RSS, the engine tick at which the
kill switch was thrown (so a replay can throw it at the same tick) and
the reference kernel's samples with the time each was taken.
"""

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from fleetd_ops import (  # noqa: E402
    engine_config,
    fleet_totals,
    install_engine_tracing,
)
from report import Reference, peak_rss_mb  # noqa: E402
from spans import Tracer  # noqa: E402

from repro.fleetd.engine import FleetdEngine  # noqa: E402
from repro.fleetd.server import FleetdServer  # noqa: E402


#: The daemon times the reference kernel every 20 ms, between requests,
#: so its samples measure the daemon's own process.
DAEMON_REF_EVERY_S = 0.02


class IdleTickServer(FleetdServer):
    """The fleetd server with its wall-paced tick thread idle: in place
    of ticks it samples ``ref`` while holding the engine lock."""

    def __init__(
        self, engine: FleetdEngine, socket_path: str, ref: Reference,
    ) -> None:
        super().__init__(engine, socket_path, DAEMON_REF_EVERY_S)
        self.ref = ref

    def _tick_loop(self) -> None:
        while not self._stop.wait(self.tick_interval_s):
            with self._lock:
                self.ref.sample(mark=time.perf_counter())


def trace_requests(server: FleetdServer, tracer: Tracer) -> None:
    """Span each dispatched request and file its spans under its rid."""
    tracer.wrap(server, "_dispatch", "fleetd.dispatch")
    dispatch = server._dispatch

    def keyed(request):
        tracer.current_key = int(request.get("rid", -1))
        return dispatch(request)

    server._dispatch = keyed


def record_kill_tick(engine: FleetdEngine, report: dict) -> None:
    """File the engine tick of each kill switch under ``kill_tick``."""
    kill_switch = engine.kill_switch

    def recorded() -> int:
        report["kill_tick"] = engine.tick_index
        return kill_switch()

    engine.kill_switch = recorded


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--spool", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    # The kernel's table comes first, a fixed part of every RSS reading.
    ref = Reference()
    engine = FleetdEngine(engine_config(args.seed, args.spool))
    server = IdleTickServer(engine, args.socket, ref)
    report = {"kill_tick": None}
    record_kill_tick(engine, report)
    tracer = None
    if args.spans:
        tracer = Tracer()
        install_engine_tracing(engine, tracer)
        trace_requests(server, tracer)
    try:
        server.serve_forever()
    finally:
        report.update(
            fleet_digest=engine.fleet_digest(),
            totals=fleet_totals(engine),
            peak_rss_mb=peak_rss_mb() - ref.table_mib,
            ref_times=list(ref.times),
            ref_marks=list(ref.marks),
        )
        if tracer is not None:
            tracer.save(args.spans)
        with open(args.result, "w") as fh:
            json.dump(report, fh)
        engine.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
