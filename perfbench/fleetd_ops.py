"""The ``fleetd_ops`` workload: the fleetd daemon under an open loop.

The daemon (``perfbench/daemon.py``) serves six small hosts (``Feed``,
``Web`` and ``Cache A`` in round-robin, two regions) and spools each
host's snapshot every 30 simulated seconds. Its wall-paced tick thread
is idle, so simulated time advances only through ``run`` requests and
the run's simulated work is fixed by the request schedule. Set-up boots
the daemon, registers the hosts, runs the warm-up ticks and queues
three guarded rollouts: the auto-tuner, which passes; a bad policy whose
canary trips the health gate and is restored from its saved controller
checkpoint; and stock Senpai, which is still in flight when the kill
switch arrives.

One generator drives an open loop: requests are due at a fixed rate
whatever the daemon's speed, at most two are in flight, and each is
timed from when it was due to its parsed reply. Every sixteenth request
is a ``run`` of five ticks; the rest are dashboard and automation
reads. The kill switch is sent once, while a ``run`` is in flight,
as soon as the bad policy has been seen rolled back.

Afterwards four engine-only replays of the same ``run`` sequence, with
no queries and the kill switch at the daemon's tick, must end on the
daemon's fleet digest and kill the same rollouts (queried == quiet);
their timed engine ticks, pooled, give ``ticks_per_s`` and
``tick_p99_ms``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from report import (
    SETUP_SAMPLES, Outcome, Reference, median, setup_seconds,
    tail_percentile,
)
from spans import Tracer, layer_totals, load_spans, self_times

import repro.fleetd.engine as engine_module
import repro.fleetd.rollout as rollout_module
from repro.fleetd.client import FleetdClient, FleetdClientError
from repro.fleetd.engine import FleetdConfig, FleetdEngine
from repro.fleetd.policy import PolicySpec
from repro.fleetd.rollout import RolloutConfig
from repro.fleetd.rollup import parse_fleet_rollup, parse_top_report
from repro.sim.host import HostConfig

MIB = 1 << 20
HERE = os.path.dirname(os.path.abspath(__file__))

#: Requests per second, due on a fixed schedule: enough for a p99 with
#: ten samples beyond it in a 20 s window.
RATE = 50.0
MAX_IN_FLIGHT = 2
RUN_TICKS = 5
#: One cycle of the request mix. ``run`` is one in sixteen, so runs come
#: about three times a second and the engine is busy under a quarter of
#: the time: a slower machine does not tip the reads into a queue.
MIX = (
    "status", "metrics", "top", "rollout-status",
    "status", "metrics", "top", "rollout-status",
    "status", "metrics", "top", "rollout-status",
    "status", "metrics", "top", "run",
)
#: Engine-only replays of the daemon's run sequence, their ticks pooled
#: so that the tick tail lies among the spooling ticks.
REPLAYS = 4
#: Seconds a client waits for a reply before counting a failure.
CLIENT_TIMEOUT_S = 30.0
#: Requests still unsent this long after the window are failed unsent,
#: so a stalled daemon cannot hold the run past its time limit.
DRAIN_S = 30.0
#: Daemon boots per invocation; set-up time is their median.
SETUPS = 3
WARM_TICKS = 60
#: ``(host_id, app, region)`` of the registered hosts.
HOSTS = tuple(
    (f"h{i}", ("Feed", "Web", "Cache A")[i % 3], ("east", "west")[i % 2])
    for i in range(6)
)
SIZE_SCALE = 0.01
AUTOTUNE = {"kind": "autotune", "params": {}}
#: Unreachable pressure target with a huge reclaim step: the canary's
#: PSI and refaults blow past the health gate, which rolls it back.
BAD_POLICY = {
    "kind": "senpai",
    "params": {
        "psi_threshold": 10.0,
        "reclaim_ratio": 0.5,
        "max_step_frac": 0.5,
        "interval_s": 2.0,
    },
}
#: Stock Senpai: a rollout the kill switch finds in flight or queued.
STOCK = {"kind": "senpai", "params": {}}
ROLLOUTS = (AUTOTUNE, BAD_POLICY, STOCK)
#: Rollout id of the bad policy; the kill switch waits for its end.
BAD_ROLLOUT_ID = 2
TERMINAL = ("succeeded", "rolled_back", "killed")

#: Engine entry points traced in the daemon, by span layer name.
ENGINE_VERBS = {
    "status": "fleetd.status",
    "fleet_rollup": "fleetd.fleet_rollup",
    "top_hosts": "fleetd.top_hosts",
    "rollout_result": "fleetd.rollout_result",
    "run_ticks": "fleetd.run_ticks",
    "kill_switch": "fleetd.kill_switch",
}


def engine_config(seed: int, spool_dir: str) -> FleetdConfig:
    return FleetdConfig(
        seed=seed,
        base_config=HostConfig(ram_gb=0.5, page_size_bytes=1 * MIB, ncpu=4),
        rollout=RolloutConfig(
            canary_frac=0.34, wave_frac=1.0, baseline_s=20.0, soak_s=20.0,
        ),
        checkpoint_every_s=30.0,
        spool_dir=spool_dir,
    )


def fleet_totals(engine: FleetdEngine) -> Dict[str, int]:
    """Simulated totals summed over the fleet's hosts."""
    totals = dict.fromkeys(("ticks", "pgsteal", "refaults", "swapins"), 0)
    for entry in engine.registry.values():
        totals["ticks"] += entry.host.tick_count
        for cgroup in entry.host.mm.cgroups():
            totals["pgsteal"] += cgroup.vmstat.pgsteal
            totals["refaults"] += cgroup.vmstat.workingset_refault
            totals["swapins"] += cgroup.vmstat.pswpin
    return totals


def install_engine_tracing(engine: FleetdEngine, tracer: Tracer) -> None:
    """Wrap the engine's query and tick methods, the checkpoint spool
    and the controller restore (rollback) on the live engine."""
    for method, layer in ENGINE_VERBS.items():
        tracer.wrap(engine, method, layer)
    tracer.wrap(engine, "tick", "fleetd.tick")
    spool_bytes = tracer.samples.setdefault("spool_bytes", [])

    def spooled(result, host, path) -> None:
        spool_bytes.append(os.path.getsize(path))

    tracer.wrap(
        engine_module, "spool_snapshot", "checkpoint.spool",
        on_return=spooled,
    )
    tracer.wrap(rollout_module, "decode_controller", "checkpoint.restore")


# ----------------------------------------------------------------------
# the daemon and its set-up


class Daemon:
    """One daemon process, booted through ``perfbench/daemon.py``."""

    def __init__(
        self, workdir: str, name: str, seed: int, scale: float,
        spans_path: Optional[str] = None,
    ) -> None:
        base = os.path.join(workdir, name)
        os.makedirs(base)
        # Relative to the working directory: Unix socket paths are short.
        self.socket_path = os.path.relpath(os.path.join(base, "fd.sock"))
        self.result_path = os.path.join(base, "result.json")
        cmd = [
            sys.executable, os.path.join(HERE, "daemon.py"),
            "--socket", self.socket_path,
            "--spool", os.path.join(base, "spool"),
            "--seed", str(seed),
            "--result", self.result_path,
        ]
        if spans_path is not None:
            cmd += ["--spans", spans_path]
        self.proc = subprocess.Popen(cmd)
        self.client = FleetdClient(self.socket_path, CLIENT_TIMEOUT_S)
        self.scale = scale

    def wait_ready(self, timeout_s: float = 30.0) -> None:
        deadline = time.perf_counter() + timeout_s
        while True:
            try:
                self.client.request("ping")
                return
            except FleetdClientError:
                if self.proc.poll() is not None:
                    raise RuntimeError("fleetd daemon exited during boot")
                if time.perf_counter() > deadline:
                    raise RuntimeError("fleetd daemon did not come up")
                time.sleep(0.01)

    def set_up(self) -> None:
        """Register the hosts, warm the fleet, queue the rollouts."""
        self.wait_ready()
        for host_id, app, region in HOSTS:
            self.client.register(
                host_id, app, size_scale=SIZE_SCALE * self.scale,
                region=region,
            )
        self.client.run_ticks(WARM_TICKS)
        for policy in ROLLOUTS:
            self.client.rollout(policy)

    def stop(self) -> Dict[str, object]:
        """Stop the daemon, wait for it, and return its exit report."""
        try:
            self.client.stop()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        with open(self.result_path) as fh:
            return json.load(fh)


def quiet_engine(seed: int, spool_dir: str, scale: float) -> FleetdEngine:
    """The daemon's set-up, driven on the engine directly."""
    engine = FleetdEngine(engine_config(seed, spool_dir))
    for host_id, app, region in HOSTS:
        engine.register(
            host_id, app, size_scale=SIZE_SCALE * scale, region=region,
        )
    engine.run_ticks(WARM_TICKS)
    for policy in ROLLOUTS:
        engine.begin_rollout(PolicySpec.from_json(policy))
    return engine


# ----------------------------------------------------------------------
# the open-loop generator


@dataclass
class Sent:
    """One request as the generator saw it (perf_counter seconds)."""

    verb: str
    due: float
    sent: float = 0.0
    done: float = 0.0
    ok: bool = False
    error: str = ""


def request_params(index: int) -> Tuple[str, Dict[str, object]]:
    verb = MIX[index % len(MIX)]
    if verb == "metrics":
        return verb, {"window_s": 60.0}
    if verb == "top":
        return verb, {"signal": "psi_mem_some", "n": 3, "window_s": 60.0}
    if verb == "rollout-status":
        nth = MIX[:index % len(MIX)].count("rollout-status")
        return verb, {"rollout_id": 1 + nth % len(ROLLOUTS)}
    if verb == "run":
        return verb, {"ticks": RUN_TICKS}
    return verb, {}


def validate(verb: str, reply: Dict[str, object]) -> None:
    """Raise ValueError on a malformed reply payload."""
    if verb == "metrics":
        parse_fleet_rollup(reply["rollup"])
    elif verb == "top":
        parse_top_report(reply["top"])
    elif verb == "rollout-status":
        if reply["result"]["status"] not in TERMINAL + ("pending", "running"):
            raise ValueError(f"bad rollout status {reply['result']}")
    elif verb == "run" and not isinstance(reply["tick"], int):
        raise ValueError(f"bad run reply {reply}")


class Generator:
    """Open loop: request ``i`` is due at ``t0 + i / RATE``."""

    def __init__(self, client: FleetdClient, seconds: float) -> None:
        self.client = client
        self.count = max(len(MIX), int(round(seconds * RATE)))
        self.sent: List[Optional[Sent]] = [None] * self.count
        self.kill = Sent("kill-switch", 0.0)
        self.killed: Optional[int] = None
        self._next = 0
        self._lock = threading.Lock()
        self._rollout_status: Dict[int, str] = {}
        self._kill_claimed = False
        self._kill_thread: Optional[threading.Thread] = None

    def run(self) -> None:
        self.t0 = time.perf_counter() + 0.01
        threads = [
            threading.Thread(target=self._sender)
            for _ in range(MAX_IN_FLIGHT)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if self._kill_thread is not None:
            self._kill_thread.join()
        else:  # the bad policy never settled in-window: kill after it
            self._send_kill(0.0)

    def _sender(self) -> None:
        clock = time.perf_counter
        while True:
            with self._lock:
                index = self._next
                if index >= self.count:
                    return
                self._next += 1
            verb, params = request_params(index)
            record = Sent(verb, self.t0 + index / RATE)
            self.sent[index] = record
            if clock() > self.t0 + self.count / RATE + DRAIN_S:
                record.error = "not sent: the daemon fell too far behind"
                continue
            delay = record.due - clock()
            if delay > 0:
                time.sleep(delay)
            if verb == "run" and self._kill_due():
                self._kill_thread = threading.Thread(
                    target=self._send_kill, args=(0.002,)
                )
                self._kill_thread.start()
            record.sent = clock()
            try:
                reply = self.client.request(verb, rid=index, **params)
                record.done = clock()
                validate(verb, reply)
                record.ok = True
            except (FleetdClientError, ValueError, KeyError) as exc:
                record.done = record.done or clock()
                record.error = f"{type(exc).__name__}: {exc}"
                continue
            if verb == "rollout-status":
                self._rollout_status[params["rollout_id"]] = (
                    reply["result"]["status"]
                )

    def _kill_due(self) -> bool:
        """Once, after the bad policy has been seen settled, so the
        switch finds the stock Senpai rollout in flight or queued."""
        with self._lock:
            due = (
                not self._kill_claimed
                and self._rollout_status.get(BAD_ROLLOUT_ID) in TERMINAL
            )
            self._kill_claimed |= due
            return due

    def _send_kill(self, delay_s: float) -> None:
        time.sleep(delay_s)
        self.kill.sent = time.perf_counter()
        try:
            reply = self.client.request("kill-switch", rid=-2)
            self.killed = int(reply["killed"])
            self.kill.ok = True
        except (FleetdClientError, ValueError, KeyError) as exc:
            self.kill.error = f"{type(exc).__name__}: {exc}"
        self.kill.done = time.perf_counter()


# ----------------------------------------------------------------------
# the workload


def run(
    seed: int, seconds: float, traced: bool, import_s: float, scale: float,
    out: Outcome, spans_path: str, workdir: str,
) -> None:
    # -- set-up, repeated; every boot must reach the same fleet --------
    setup_times: List[float] = []
    ref = Reference()
    warm_reports = []
    daemon = None
    for k in range(SETUPS):
        last = k == SETUPS - 1
        ref.sample(SETUP_SAMPLES, mark=k)
        t0 = time.perf_counter()
        daemon = Daemon(
            workdir, f"d{k}", seed, scale,
            spans_path if traced and last else None,
        )
        try:
            daemon.set_up()
        except BaseException:
            daemon.proc.kill()
            daemon.proc.wait()
            raise
        setup_times.append(time.perf_counter() - t0)
        if not last:
            warm_reports.append(daemon.stop())
    ref.sample(SETUP_SAMPLES, mark=SETUPS)
    setup_s = setup_seconds(ref, import_s, setup_times)
    ref.clear()

    # -- the timed window ---------------------------------------------
    # The daemon times its own reference kernel between requests; this
    # process times it between the replay's runs.
    gen = Generator(daemon.client, seconds)
    try:
        gen.run()
    finally:
        final = daemon.stop()
    requests = [r for r in gen.sent if r is not None]
    failed = [r for r in requests if not r.ok]
    out.ops(len(requests) + 1, len(failed) + (0 if gen.kill.ok else 1))
    for record in failed[:5]:
        out.note(f"failed {record.verb}: {record.error}")
    if not gen.kill.ok:
        out.note(f"failed kill-switch: {gen.kill.error}")

    # Each latency is scaled by the daemon's reference samples around
    # the time the request was due.
    daemon_ref = Reference.of_samples(final["ref_times"], final["ref_marks"])
    latency_ms = np.array([
        1e3 * (r.done - r.due) if r.ok else 1e3 * CLIENT_TIMEOUT_S
        for r in requests
    ]) * daemon_ref.speed_at([r.due for r in requests])
    p99, q, n = tail_percentile(latency_ms)
    runs = sum(1 for r in requests if r.verb == "run" and r.ok)

    # -- the quiet replays: same run sequence, no queries --------------
    engines = [
        quiet_engine(seed, os.path.join(workdir, f"replay-{k}"), scale)
        for k in range(REPLAYS)
    ]
    try:
        warm = fleet_state(engines[0])
        tick_s, overhead_pct, killed = replay_ticks(
            engines, runs, traced, ref, final["kill_tick"],
        )
        quiet = [fleet_state(engine) for engine in engines]
    finally:
        for engine in engines:
            engine.close()

    for k, report in enumerate(warm_reports):
        out.check(
            f"boot {k} reaches the replay's warm fleet digest and totals",
            {key: report[key] for key in warm} == warm, f"{report}",
        )
    out.check(
        "queried daemon ends on the quiet replays' digest and totals",
        all({key: final[key] for key in warm} == q for q in quiet),
        f"daemon {final}, replays {quiet}",
    )
    out.check(
        "kill switch kills the same rollouts in daemon and replays",
        all(gen.killed == k for k in killed),
        f"daemon {gen.killed}, replays {killed}, at tick "
        f"{final['kill_tick']}",
    )

    # Every replay tick is kept: the spooling ticks are a fixed 3% of
    # them, the tail's ten samples fall among them.
    tick_ms = 1e3 * ref.scale(tick_s)
    tick_p99, tick_q, tick_n = tail_percentile(tick_ms)
    if not traced:
        out.metric("ticks_per_s", 1e3 * tick_n / float(tick_ms.sum()))
        out.metric("tick_p99_ms", tick_p99)
        out.metric("req_p50_ms", median(latency_ms))
        out.metric("req_p99_ms", p99)
        out.metric("setup_s", setup_s)
        out.metric("peak_rss_mb", final["peak_rss_mb"])
    out.note(
        f"window: {n} requests ({runs} runs of {RUN_TICKS} ticks), "
        f"{len(failed)} failed; request percentile p{q:.2f} over {n} "
        f"samples; replay tick percentile p{tick_q:.2f} over {tick_n} "
        "engine ticks"
    )
    out.note(
        f"median reference speed: daemon {daemon_ref.speed():.4f}, "
        f"replay {ref.speed():.4f}; unscaled: replay ticks/s "
        f"{tick_n / sum(tick_s):.6g}, request p50 "
        f"{median([1e3 * (r.done - r.due) for r in requests if r.ok]):.4g} ms"
        ", set-ups (s) " + ", ".join(f"{t:.4g}" for t in setup_times)
    )
    if traced:
        out.metric("trace.overhead_pct", overhead_pct)
        layer_metrics(
            out, load_spans(spans_path), requests, latency_ms, gen.kill, p99,
        )


def fleet_state(engine: FleetdEngine) -> Dict[str, object]:
    return {"fleet_digest": engine.fleet_digest(),
            "totals": fleet_totals(engine)}


def replay_ticks(
    engines: List[FleetdEngine], runs: int, traced: bool, ref: Reference,
    kill_tick: Optional[int],
) -> Tuple[List[float], float, List[Optional[int]]]:
    """Give each engine ``runs`` runs of ``RUN_TICKS`` ticks, in turns,
    timing each tick and sampling ``ref`` after each turn, and throw
    the kill switch, outside the tick times, when an engine reaches
    ``kill_tick``.

    Returns the tick times, the tracing overhead and, per engine, the
    number of rollouts the kill switch killed (None if it was never
    thrown). A traced run wraps the first engine for every other run;
    its overhead is on the median engine tick (medians, because spooling
    ticks fall on a fixed phase of the run sequence).
    """
    clock = time.perf_counter
    times: List[float] = []
    by_mode: Dict[bool, List[float]] = {False: [], True: []}
    killed: List[Optional[int]] = [None] * len(engines)
    tracer = Tracer()
    try:
        for k in range(runs):
            for e, engine in enumerate(engines):
                wrapped = traced and e == 0 and k % 2 == 1
                if wrapped:
                    install_engine_tracing(engine, tracer)
                for _ in range(RUN_TICKS):
                    if engine.tick_index == kill_tick:
                        killed[e] = engine.kill_switch()
                    t0 = clock()
                    engine.tick()
                    times.append(clock() - t0)
                    by_mode[wrapped].append(times[-1])
                tracer.unwrap_all()
                ref.sample(mark=len(times))
    finally:
        tracer.unwrap_all()
    for e, engine in enumerate(engines):
        if engine.tick_index == kill_tick:
            killed[e] = engine.kill_switch()
    overhead = 0.0
    if by_mode[True]:
        overhead = 100.0 * (median(by_mode[True]) / median(by_mode[False]) - 1)
    return times, overhead, killed


def layer_metrics(
    out: Outcome,
    spans: Dict,
    requests: List[Sent],
    latency_ms: np.ndarray,
    kill: Sent,
    req_p99_ms: float,
) -> None:
    """Per-layer metrics from the daemon's spans and the generator."""
    layers = [str(name) for name in spans["layers"]]
    layer_of = spans["layer"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]

    def of(layer: str) -> np.ndarray:
        if layer not in layers:
            return np.zeros(len(layer_of), dtype=bool)
        return layer_of == layers.index(layer)

    # Engine time per request: top-level engine spans under a dispatch.
    dispatch = of("fleetd.dispatch")
    top_level = (parent >= 0) & dispatch[parent.clip(min=0)]
    engine_by_key: Dict[int, float] = {}
    for key, seconds in zip(spans["key"][top_level], dur[top_level]):
        engine_by_key[int(key)] = engine_by_key.get(int(key), 0.0) + seconds
    for method, layer in ENGINE_VERBS.items():
        if method != "kill_switch":
            out.metric(
                f"fleetd.engine_ms.{method}",
                1e3 * median(list(dur[of(layer) & top_level])),
            )

    totals = layer_totals(spans)
    ticks = totals.get("fleetd.tick", {}).get("calls", 0)
    if ticks:
        out.metric(
            "fleetd.tick_self_ms",
            1e3 * totals["fleetd.tick"]["self_s"] / ticks,
        )
    spool_ms = [1e3 * d for d in dur[of("checkpoint.spool")]]
    out.metric("checkpoint.spool_p50_ms", median(spool_ms))
    out.metric("checkpoint.spool_p99_ms", tail_percentile(spool_ms)[0])
    out.metric("checkpoint.spools", len(spool_ms))
    if "sample:spool_bytes" in spans:
        out.metric(
            "checkpoint.spool_bytes",
            median(list(spans["sample:spool_bytes"])),
        )
    restore_ms = [1e3 * d for d in dur[of("checkpoint.restore")]]
    out.metric("checkpoint.restore_ms", sum(restore_ms))

    waits, late = [], []
    for index, record in enumerate(requests):
        if record.sent:
            late.append(1e3 * (record.sent - record.due))
        if record.ok:
            engine_s = engine_by_key.get(index, 0.0)
            waits.append(1e3 * (record.done - record.sent - engine_s))
    out.metric("fleetd.wait_p50_ms", median(waits))
    out.metric("fleetd.wait_p99_ms", tail_percentile(waits)[0])
    out.metric("fleetd.killswitch_ms", 1e3 * (kill.done - kill.sent))
    out.metric("gen.late_p99_ms", tail_percentile(late)[0])

    # Prediction: the latency tail is requests that overlapped a spool.
    spool_spans = list(zip(
        spans["start"][of("checkpoint.spool")],
        spans["end"][of("checkpoint.spool")],
    ))
    tail = [
        r for r, ms in zip(requests, latency_ms)
        if r.ok and ms >= req_p99_ms
    ]
    spooled = sum(
        1 for r in tail
        if any(s < r.done and e > r.due for s, e in spool_spans)
    )
    met = bool(tail) and spooled >= len(tail) / 2
    out.metric("trace.prediction_met", float(met))
    own = self_times(spans)
    out.note(
        f"trace: {spooled} of {len(tail)} requests at or above p99 "
        "overlapped a checkpoint spool (predicted: most): "
        + ("met" if met else "NOT MET")
    )
    out.note(
        "trace: engine self time by layer (ms): " + ", ".join(
            f"{name} {1e3 * own[of(name)].sum():.1f}" for name in layers
        )
    )
