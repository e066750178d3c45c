"""The ``host_*`` workloads: one simulated server under Senpai.

Each shape stresses a different layer of ``Host.step``:

* ``host_small``: ~1.6k resident pages, so the fixed per-tick costs
  (PSI feed and tick, metric recording, the controller) dominate.
* ``host_large``: the same host at 16 KiB pages, ~100k resident pages,
  so resident hits in ``MemoryManager.touch_batch`` dominate.
* ``host_thrash``: three containers overcommitting a 1.25 GB host on a
  zswap-over-SSD backend, so reclaim, the fault path and the backends
  dominate.

One invocation builds and warms the host several times (timing each as
set-up and comparing their digests), times ``Host.step`` for the
requested seconds on the last build, then checks a prefix run under the
simulator's invariant checker. The traced variant times the first half
of the window untraced and wraps every layer's entry points for the
second half.
"""

from __future__ import annotations

import gc
import time
from array import array
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from report import (
    SETUP_SAMPLES, Outcome, Reference, median, peak_rss_mb, setup_seconds,
    tail_percentile,
)
from spans import Tracer, layer_totals

from repro.core.senpai import Senpai, SenpaiConfig
from repro.psi.tracker import PsiTask
from repro.sim.host import Host, HostConfig
from repro.sim.invariants import InvariantChecker, InvariantViolation
from repro.sim.metrics import metrics_digest
from repro.workloads.apps import APP_CATALOG
from repro.workloads.base import Workload

KIB = 1 << 10
MIB = 1 << 20

#: Builds per invocation; set-up time is their median.
SETUPS = 3

#: Ticks in one request: one Senpai period (6 simulated seconds), so
#: each request holds the same mix of light ticks and the reclaim ticks
#: that alternate with them on ``host_thrash``.
REQUEST_TICKS = 6

#: Peak RSS is read after this many window ticks: fixed simulated work,
#: because a faster simulator runs more ticks in the window and keeps
#: more metric history, which must not read as a memory regression.
RSS_TICKS = 300

#: vmstat counters summed over every cgroup.
VMSTAT_FIELDS = (
    "pgscan", "pgsteal", "pswpin", "workingset_refault", "direct_reclaim",
)

#: Fault events counted at the ``MemoryManager.touch`` boundary.
FAULT_EVENTS = ("zswapin", "swapin", "refault", "file_read")

#: Layers grouped by the cost they model; each shape predicts which
#: group dominates its traced ``Host.step`` time.
LAYER_GROUPS: Dict[str, Tuple[str, ...]] = {
    "fixed": (
        "host.step", "metrics.record", "psi.tick", "psi.set_flags",
        "senpai.poll", "mm.on_tick",
    ),
    "page_hits": ("workloads.tick", "mm.touch_batch"),
    "fault_reclaim": (
        "mm.touch", "mm.memory_reclaim", "reclaim", "backends.store",
        "backends.load", "fs.load",
    ),
}


@dataclass(frozen=True)
class Shape:
    """One host configuration and the layer group it should stress.

    The reference kernel is timed after every ``ref_every`` ticks
    (every 15 to 90 ms).
    """

    ram_gb: float
    page_bytes: int
    backend: str
    apps: Tuple[Tuple[str, float], ...]
    warm_s: float
    predicted: str
    ref_every: int
    swap_gb: float = 32.0


SHAPES: Dict[str, Shape] = {
    "host_small": Shape(
        4.0, 1 * MIB, "zswap", (("Feed", 0.05),), 30.0, "fixed", 66,
    ),
    "host_large": Shape(
        4.0, 16 * KIB, "zswap", (("Feed", 0.05),), 30.0, "page_hits", 6,
    ),
    "host_thrash": Shape(
        1.25, 256 * KIB, "tiered",
        (("Feed", 0.02), ("Cache A", 0.02), ("Analytics", 0.02)),
        60.0, "fault_reclaim", 6, swap_gb=8.0,
    ),
}


def build_host(
    shape: Shape, seed: int, scale: float = 1.0,
    check_invariants: bool = False,
) -> Host:
    """Build the shape's host and run its warm-up."""
    host = Host(HostConfig(
        ram_gb=shape.ram_gb,
        ncpu=16,
        page_size_bytes=shape.page_bytes,
        seed=seed,
        backend=shape.backend,
        swap_gb=shape.swap_gb,
        check_invariants=check_invariants,
    ))
    for app, size_scale in shape.apps:
        host.add_workload(
            Workload, profile=APP_CATALOG[app], size_scale=size_scale * scale,
        )
    host.add_controller(Senpai(SenpaiConfig()))
    host.run(shape.warm_s)
    return host


def fingerprint(host: Host) -> Dict[str, object]:
    """Metric digest plus the simulated totals it summarises."""
    counts = counters(host)
    oom_quanta = 0
    for hosted in host.hosted():
        series = host.metrics.get(f"{hosted.cgroup_name}/oom")
        if series is not None:
            oom_quanta += int(sum(series.values))
    return {
        "digest": metrics_digest(host.metrics),
        "ticks": host.tick_count,
        "pgsteal": counts["pgsteal"],
        "refaults": counts["workingset_refault"],
        "swapins": counts["pswpin"],
        "oom_quanta": oom_quanta,
    }


def counters(host: Host) -> Dict[str, int]:
    """The simulator's own per-layer counters, summed over the host."""
    out = dict.fromkeys(VMSTAT_FIELDS, 0)
    for cgroup in host.mm.cgroups():
        for name in VMSTAT_FIELDS:
            out[name] += getattr(cgroup.vmstat, name)
    out["swap_op_count"] = host.mm.swap_op_count
    out["swap_fault_count"] = host.mm.swap_fault_count
    senpais = [c for c in host.controllers() if isinstance(c, Senpai)]
    out["senpai_requested"] = sum(s.total_requested for s in senpais)
    out["senpai_reclaimed"] = sum(s.total_reclaimed for s in senpais)
    out["resident_pages"] = sum(
        cgroup.resident_pages for cgroup in host.mm.cgroups()
        if not cgroup.children
    )
    return out


def install_tracing(
    host: Host, tracer: Tracer, faults: Dict[str, int]
) -> None:
    """Wrap each layer's public entry points on the live host.

    ``faults`` counts ``MemoryManager.touch`` results by event.
    """
    def count_fault(result, *args) -> None:
        faults[result.event] = faults.get(result.event, 0) + 1

    mm = host.mm
    tracer.wrap(host, "step", "host.step")
    for hosted in host.hosted():
        tracer.wrap(hosted.workload, "tick", "workloads.tick")
    # PsiTask uses __slots__, so its entry point is wrapped on the class
    # (this host is the only one alive while the tracer is installed).
    tracer.wrap(PsiTask, "set_flags", "psi.set_flags")
    tracer.wrap(mm, "touch_batch", "mm.touch_batch")
    tracer.wrap(mm, "touch", "mm.touch", on_return=count_fault)
    tracer.wrap(mm, "on_tick", "mm.on_tick")
    tracer.wrap(mm, "memory_reclaim", "mm.memory_reclaim")
    tracer.wrap(mm.reclaimer, "reclaim", "reclaim")
    if mm.swap_backend is not None:
        tracer.wrap(mm.swap_backend, "store", "backends.store")
        tracer.wrap(mm.swap_backend, "load", "backends.load")
    tracer.wrap(mm.fs, "load", "fs.load")
    tracer.wrap(host.psi, "tick", "psi.tick")
    for controller in host.controllers():
        tracer.wrap(controller, "poll", "senpai.poll")
    tracer.wrap(host.metrics, "record", "metrics.record")


def timed_steps(
    host: Host, deadline: float, times: array,
    ref: Optional[Reference] = None, ref_every: int = 1,
    tracer: Optional[Tracer] = None, max_steps: Optional[int] = None,
) -> None:
    """Step the host until the ``deadline`` (a ``perf_counter`` time),
    or until ``times`` holds ``max_steps``, appending each step's time.

    With ``ref``, the reference kernel is sampled after every
    ``ref_every`` steps, outside the step times, marked with the number
    of steps before it.
    """
    clock = time.perf_counter
    while True:
        if tracer is not None:
            tracer.current_key = host.tick_count
        t0 = clock()
        host.step()
        t1 = clock()
        times.append(t1 - t0)
        if ref is not None and len(times) % ref_every == 0:
            ref.sample(mark=len(times))
        if t1 >= deadline or len(times) == max_steps:
            return


def run(
    workload: str, seed: int, seconds: float, traced: bool,
    import_s: float, scale: float, out: Outcome, spans_path: str,
) -> None:
    shape = SHAPES[workload]
    # The reference's table is allocated before anything else, so that
    # it is a fixed part of every RSS reading (taken out below).
    ref = Reference()

    # -- set-up, repeated; every build must reach the same state ------
    setup_times: List[float] = []
    prints: List[Dict[str, object]] = []
    host = None
    for k in range(SETUPS):
        host = None
        gc.collect()
        ref.sample(SETUP_SAMPLES, mark=k)
        t0 = time.perf_counter()
        host = build_host(shape, seed, scale)
        setup_times.append(time.perf_counter() - t0)
        prints.append(fingerprint(host))
    ref.sample(SETUP_SAMPLES, mark=SETUPS)
    out.check(
        f"{SETUPS} builds reach the same digest and totals",
        all(p == prints[0] for p in prints[1:]),
        f"{prints[0]}",
    )

    # -- the timed window ---------------------------------------------
    if not traced:
        out.metric("setup_s", setup_seconds(ref, import_s, setup_times))
        ref.clear()
        deadline = time.perf_counter() + seconds
        times = array("d")
        timed_steps(
            host, deadline, times, ref, shape.ref_every, max_steps=RSS_TICKS,
        )
        out.metric("peak_rss_mb", peak_rss_mb() - ref.table_mib)
        timed_steps(host, deadline, times, ref, shape.ref_every)
        out.ops(len(times))
        scaled_ms = 1e3 * ref.scale(times)
        usable = len(scaled_ms) - len(scaled_ms) % REQUEST_TICKS
        requests = scaled_ms[:usable].reshape(-1, REQUEST_TICKS).sum(axis=1)
        tick_p99, tick_q, n = tail_percentile(scaled_ms)
        req_p99, req_q, n_req = tail_percentile(requests)
        out.metric("ticks_per_s", 1e3 * n / float(scaled_ms.sum()))
        out.metric("tick_p99_ms", tick_p99)
        out.metric("req_p50_ms", median(requests))
        out.metric("req_p99_ms", req_p99)
        out.note(
            f"window: {n} ticks in {sum(times):.3f} s, median reference "
            f"speed {ref.speed():.4f} over {len(ref.times)} samples; "
            f"tick tail at p{tick_q:.2f} of {n}; a request is "
            f"{REQUEST_TICKS} ticks, tail at p{req_q:.2f} of {n_req}; "
            f"unscaled ticks/s {n / sum(times):.6g}, set-ups (s) "
            + ", ".join(f"{t:.4g}" for t in setup_times)
        )
    else:
        half = time.perf_counter() + seconds / 2
        plain, traced_times = array("d"), array("d")
        ref.clear()
        timed_steps(host, half, plain, ref, shape.ref_every)
        plain_ms = 1e3 * ref.scale(plain)
        tracer = Tracer()
        faults: Dict[str, int] = {}
        install_tracing(host, tracer, faults)
        before = counters(host)
        ref.clear()
        timed_steps(
            host, half + seconds / 2, traced_times, ref, shape.ref_every,
            tracer=tracer,
        )
        traced_ms = 1e3 * ref.scale(traced_times)
        after = counters(host)
        tracer.unwrap_all()
        out.ops(len(plain) + len(traced_times))
        tracer.save(spans_path)
        totals = layer_totals(tracer.arrays())
        layer_metrics(
            out, shape, totals, len(traced_times), before, after, faults,
        )
        out.metric(
            "trace.overhead_pct",
            100.0 * (traced_ms.mean() / plain_ms.mean() - 1),
        )
        out.note(
            f"trace: {len(tracer)} spans over {len(traced_times)} ticks "
            f"written to {spans_path}"
        )

    # -- correctness, outside the timed window ------------------------
    try:
        InvariantChecker().check(host)
        out.check("timed host passes the invariant checker", True)
    except InvariantViolation as exc:
        out.check("timed host passes the invariant checker", False, str(exc))
    host = None
    gc.collect()
    try:
        checked = fingerprint(
            build_host(shape, seed, scale, check_invariants=True)
        )
        out.check(
            "warm-up prefix under check_invariants matches",
            checked == prints[0], f"{checked}",
        )
    except InvariantViolation as exc:
        out.check("warm-up prefix under check_invariants", False, str(exc))


def layer_metrics(
    out: Outcome,
    shape: Shape,
    totals: Dict[str, Dict[str, float]],
    ticks: int,
    before: Dict[str, int],
    after: Dict[str, int],
    faults: Dict[str, int],
) -> None:
    """Per-tick layer costs and the simulator's counter ratios."""
    def self_ms(*layers: str) -> float:
        return 1e3 * sum(
            totals.get(name, {}).get("self_s", 0.0) for name in layers
        ) / ticks

    def calls(layer: str) -> int:
        return totals.get(layer, {}).get("calls", 0)

    def delta(name: str) -> int:
        return after[name] - before[name]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    resident = (before["resident_pages"] + after["resident_pages"]) / 2
    step_ms = 1e3 * totals["host.step"]["total_s"] / ticks
    touch_calls = calls("mm.touch")

    out.metric("host.step_ms", step_ms)
    out.metric("host.step_self_ms", self_ms("host.step"))
    out.metric("workloads.tick_self_ms", self_ms("workloads.tick"))
    out.metric("mm.touch_batch_self_ms", self_ms("mm.touch_batch"))
    out.metric(
        "mm.hit_ns_per_resident_page",
        ratio(1e6 * self_ms("mm.touch_batch"), resident),
    )
    out.metric("mm.resident_pages", resident)
    out.metric(
        "mm.touch_self_us",
        ratio(1e6 * totals.get("mm.touch", {}).get("self_s", 0.0),
              touch_calls),
    )
    out.metric("mm.touch_calls_per_tick", touch_calls / ticks)
    for event in FAULT_EVENTS:
        out.metric(f"mm.faults_per_tick.{event}", faults.get(event, 0) / ticks)
    out.metric("mm.on_tick_self_ms", self_ms("mm.on_tick"))
    out.metric("mm.memory_reclaim_self_ms", self_ms("mm.memory_reclaim"))
    out.metric("reclaim.self_ms", self_ms("reclaim"))
    out.metric("reclaim.calls_per_tick", calls("reclaim") / ticks)
    out.metric(
        "reclaim.steal_per_scan", ratio(delta("pgsteal"), delta("pgscan"))
    )
    out.metric("reclaim.pgscan_per_tick", delta("pgscan") / ticks)
    out.metric("reclaim.direct_per_tick", delta("direct_reclaim") / ticks)
    out.metric("backends.store_calls_per_tick", calls("backends.store") / ticks)
    out.metric("backends.load_calls_per_tick", calls("backends.load") / ticks)
    out.metric("backends.self_ms", self_ms("backends.store", "backends.load"))
    out.metric(
        "backends.failed_per_op",
        ratio(delta("swap_fault_count"), delta("swap_op_count")),
    )
    out.metric("backends.swap_ops_per_tick", delta("swap_op_count") / ticks)
    out.metric("fs.load_self_ms", self_ms("fs.load"))
    out.metric("fs.load_calls_per_tick", calls("fs.load") / ticks)
    out.metric("vm.pswpin_per_tick", delta("pswpin") / ticks)
    out.metric("vm.refault_per_tick", delta("workingset_refault") / ticks)
    out.metric("metrics.record_calls_per_tick", calls("metrics.record") / ticks)
    out.metric("metrics.record_self_ms", self_ms("metrics.record"))
    out.metric("psi.tick_self_ms", self_ms("psi.tick"))
    out.metric("psi.set_flags_calls_per_tick", calls("psi.set_flags") / ticks)
    out.metric("psi.set_flags_self_ms", self_ms("psi.set_flags"))
    out.metric("senpai.poll_self_ms", self_ms("senpai.poll"))
    out.metric(
        "senpai.reclaimed_per_requested",
        ratio(delta("senpai_reclaimed"), delta("senpai_requested")),
    )
    out.metric(
        "senpai.requested_mb_per_tick", delta("senpai_requested") / MIB / ticks
    )

    # Self times partition the traced step time; report the split and
    # whether the predicted group dominates.
    accounted = sum(entry["self_s"] for entry in totals.values())
    shares = {
        group: self_ms(*layers) / step_ms
        for group, layers in LAYER_GROUPS.items()
    }
    dominant = max(shares, key=shares.get)
    out.metric("trace.prediction_met", float(dominant == shape.predicted))
    top = max(totals, key=lambda name: totals[name]["self_s"])
    out.note(
        "trace: self times sum to "
        f"{100 * accounted / totals['host.step']['total_s']:.2f}% of "
        "traced Host.step time; group shares "
        + ", ".join(f"{g} {100 * s:.1f}%" for g, s in shares.items())
        + f"; largest layer {top}"
    )
    out.note(
        f"trace: dominant group {dominant}, predicted {shape.predicted}: "
        + ("met" if dominant == shape.predicted else "NOT MET")
    )
    out.note(
        "counters over traced window: "
        + ", ".join(f"{k} {delta(k)}" for k in sorted(before))
    )
