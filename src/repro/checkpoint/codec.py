"""Field-level encoders/decoders for the full host state.

``encode_host_state`` walks every mutable structure of a
:class:`~repro.sim.host.Host` — clock, memory manager and its page
table, cgroups, LRU list lengths, shadow entries, PSI
groups/tasks/averages, device queues and fault seams, RNG streams,
workloads, controllers, metric series — into
plain JSON types (dicts with string keys, lists, numbers, strings,
booleans, None). ``build_host`` does the inverse: construct a fresh
``Host`` from the snapshotted config, then overwrite all mutable state
so the restored host is *bit-identical* to the snapshotted one — the
crash-equivalence guarantee the chaos harness verifies.

Encoding conventions:

* dicts with non-string keys (tuple-keyed PSI totals, int-keyed
  shadow entries) become lists of ``[key..., value]`` entries,
  preserving insertion order — Python dict order is semantic here
  (controller polling order, metric series order);
* the page table is encoded column by column, one list per numpy
  column; LRU order is its ``seq`` column;
* enums are encoded by ``.value`` and rebuilt by construction;
* NumPy generator state round-trips through
  ``Generator.bit_generator.state`` (a JSON-clean dict).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from repro.checkpoint.snapshot import PAYLOAD_KIND, SnapshotError
from repro.kernel.page import PageKind
from repro.psi.avgs import RunningAverages
from repro.psi.group import PsiGroup
from repro.psi.trigger import PsiTrigger, TriggerSpec
from repro.psi.types import RESOURCE_INDEX, RESOURCE_ORDER, Resource, TaskFlags
from repro.sim.metrics import Series
from repro.workloads.apps import AppProfile
from repro.workloads.base import Workload
from repro.workloads.diurnal import DiurnalWorkload
from repro.workloads.tax import TaxWorkload
from repro.workloads.web import WebConfig, WebWorkload
from repro.workloads.access import HeatBands

#: Workload classes the codec can round-trip. Trace-driven workloads
#: hold open recorders/replays and are refused at snapshot time.
WORKLOAD_TYPES = {
    "Workload": Workload,
    "WebWorkload": WebWorkload,
    "TaxWorkload": TaxWorkload,
    "DiurnalWorkload": DiurnalWorkload,
}


def _opt_float(value: Optional[float]) -> Optional[float]:
    return None if value is None else float(value)


def _opt_int(value: Optional[int]) -> Optional[int]:
    return None if value is None else int(value)


# ----------------------------------------------------------------------
# RNG streams


def encode_rng(rng: np.random.Generator) -> Dict[str, Any]:
    """A generator's exact position in its stream (JSON-clean dict)."""
    return rng.bit_generator.state


def apply_rng(rng: np.random.Generator, state: Dict[str, Any]) -> None:
    rng.bit_generator.state = state


# ----------------------------------------------------------------------
# device / backend substrate


def _encode_latencies(reservoir) -> Dict[str, Any]:
    return {
        "capacity_entries": int(reservoir.capacity_entries),
        "samples": [float(s) for s in reservoir.samples()],
        "next": int(reservoir._next),
    }


def _apply_latencies(reservoir, enc: Dict[str, Any]) -> None:
    reservoir.capacity_entries = int(enc["capacity_entries"])
    reservoir.set_samples(
        [float(s) for s in enc["samples"]], int(enc["next"])
    )


def _encode_stats(stats) -> Dict[str, Any]:
    return {
        "reads": int(stats.reads),
        "writes": int(stats.writes),
        "bytes_read": int(stats.bytes_read),
        "bytes_written": int(stats.bytes_written),
        "read_stall_seconds": float(stats.read_stall_seconds),
        "write_stall_seconds": float(stats.write_stall_seconds),
        "latencies": _encode_latencies(stats.latencies),
    }


def _apply_stats(stats, enc: Dict[str, Any]) -> None:
    stats.reads = int(enc["reads"])
    stats.writes = int(enc["writes"])
    stats.bytes_read = int(enc["bytes_read"])
    stats.bytes_written = int(enc["bytes_written"])
    stats.read_stall_seconds = float(enc["read_stall_seconds"])
    stats.write_stall_seconds = float(enc["write_stall_seconds"])
    _apply_latencies(stats.latencies, enc["latencies"])


def encode_device_faults(faults) -> Dict[str, Any]:
    return {
        "latency_multiplier": float(faults.latency_multiplier),
        "io_error_rate": float(faults.io_error_rate),
        "available": bool(faults.available),
    }


def apply_device_faults(faults, enc: Dict[str, Any]) -> None:
    faults.latency_multiplier = float(enc["latency_multiplier"])
    faults.io_error_rate = float(enc["io_error_rate"])
    faults.available = bool(enc["available"])


def _encode_device(device) -> Dict[str, Any]:
    return {
        "read_rate": float(device._read_rate),
        "write_rate": float(device._write_rate),
        "pending_reads": float(device._pending_reads),
        "pending_writes": float(device._pending_writes),
        "util_window_s": float(device._util_window),
        "faults": encode_device_faults(device.faults),
        "rng_state": encode_rng(device._rng),
    }


def _apply_device(device, enc: Dict[str, Any]) -> None:
    device._read_rate = float(enc["read_rate"])
    device._write_rate = float(enc["write_rate"])
    device._pending_reads = float(enc["pending_reads"])
    device._pending_writes = float(enc["pending_writes"])
    device._util_window = float(enc["util_window_s"])
    apply_device_faults(device.faults, enc["faults"])
    apply_rng(device._rng, enc["rng_state"])


def _encode_ssd(ssd) -> Dict[str, Any]:
    return {
        "stored_bytes": int(ssd._stored),
        "endurance_bytes_written": int(ssd.endurance_bytes_written),
        "stats": _encode_stats(ssd.stats),
    }


def _apply_ssd(ssd, enc: Dict[str, Any]) -> None:
    ssd._stored = int(enc["stored_bytes"])
    ssd.endurance_bytes_written = int(enc["endurance_bytes_written"])
    _apply_stats(ssd.stats, enc["stats"])


def _encode_zswap(zswap) -> Dict[str, Any]:
    return {
        "pool_bytes": int(zswap._pool_bytes),
        "logical_bytes": int(zswap._logical_bytes),
        "compress_cpu_seconds": float(zswap.compress_cpu_seconds),
        "decompress_cpu_seconds": float(zswap.decompress_cpu_seconds),
        "faults": encode_device_faults(zswap.faults),
        "rng_state": encode_rng(zswap._rng),
        "stats": _encode_stats(zswap.stats),
    }


def _apply_zswap(zswap, enc: Dict[str, Any]) -> None:
    zswap._pool_bytes = int(enc["pool_bytes"])
    zswap._logical_bytes = int(enc["logical_bytes"])
    zswap.compress_cpu_seconds = float(enc["compress_cpu_seconds"])
    zswap.decompress_cpu_seconds = float(enc["decompress_cpu_seconds"])
    apply_device_faults(zswap.faults, enc["faults"])
    apply_rng(zswap._rng, enc["rng_state"])
    _apply_stats(zswap.stats, enc["stats"])


def _encode_farmem(backend) -> Dict[str, Any]:
    return {
        "stored_bytes": int(backend._stored),
        "endurance_bytes_written": int(backend.endurance_bytes_written),
        "rng_state": encode_rng(backend._rng),
        "stats": _encode_stats(backend.stats),
    }


def _apply_farmem(backend, enc: Dict[str, Any]) -> None:
    backend._stored = int(enc["stored_bytes"])
    backend.endurance_bytes_written = int(enc["endurance_bytes_written"])
    apply_rng(backend._rng, enc["rng_state"])
    _apply_stats(backend.stats, enc["stats"])


def _encode_backends(host) -> Dict[str, Any]:
    enc: Dict[str, Any] = {
        "fs_stats": _encode_stats(host.fs.stats),
        "fs_device": _encode_device(host.fs.device),
    }
    backend = host.config.backend
    swap = host.swap_backend
    if backend == "ssd":
        # The swap SSD shares the filesystem's physical device; the
        # shared QueuedDevice is encoded once, under "fs_device".
        enc["swap"] = _encode_ssd(swap)
    elif backend == "zswap":
        enc["swap"] = _encode_zswap(swap)
    elif backend == "tiered":
        enc["swap"] = {
            "stats": _encode_stats(swap.stats),
            "placement": [
                [int(pid), tier] for pid, tier in swap._placement.items()
            ],
            "spilled_stores": int(swap.spilled_stores),
            "zswap": _encode_zswap(swap.zswap),
            "ssd": _encode_ssd(swap.ssd),
        }
    elif backend in ("nvm", "cxl"):
        enc["swap"] = _encode_farmem(swap)
    return enc


def _apply_backends(host, enc: Dict[str, Any]) -> None:
    _apply_stats(host.fs.stats, enc["fs_stats"])
    _apply_device(host.fs.device, enc["fs_device"])
    backend = host.config.backend
    swap = host.swap_backend
    if backend == "ssd":
        _apply_ssd(swap, enc["swap"])
    elif backend == "zswap":
        _apply_zswap(swap, enc["swap"])
    elif backend == "tiered":
        _apply_stats(swap.stats, enc["swap"]["stats"])
        swap._placement = {
            int(pid): tier for pid, tier in enc["swap"]["placement"]
        }
        swap.spilled_stores = int(enc["swap"]["spilled_stores"])
        _apply_zswap(swap.zswap, enc["swap"]["zswap"])
        _apply_ssd(swap.ssd, enc["swap"]["ssd"])
    elif backend in ("nvm", "cxl"):
        _apply_farmem(swap, enc["swap"])


# ----------------------------------------------------------------------
# memory manager: the page table, cgroups, shadow entries


def _encode_table(table) -> Dict[str, Any]:
    """The page table, one JSON list per column.

    LRU order needs no encoding of its own: it is ascending ``seq``
    within each list, so it round-trips with the ``seq`` column.
    """
    n = table.n_pages
    return {
        "n_pages": int(n),
        "next_seq": int(table.next_seq),
        "state": table.state[:n].tolist(),
        "kind": table.kind[:n].tolist(),
        "cgroup": table.cgroup[:n].tolist(),
        "active": table.active[:n].tolist(),
        "referenced": table.referenced[:n].tolist(),
        "dirty": table.dirty[:n].tolist(),
        "compressibility": table.compressibility[:n].tolist(),
        "last_access": table.last_access[:n].tolist(),
        "seq": table.seq[:n].tolist(),
    }


def _apply_table(table, enc: Dict[str, Any], remap: np.ndarray) -> None:
    """Overwrite ``table`` with an encoded one.

    ``remap`` maps the snapshot's cgroup indices to this host's (the
    last entry maps a released page's ``-1`` to itself).
    """
    n = int(enc["n_pages"])
    table.n_pages = 0
    table._reserve(n)
    table.n_pages = n
    table.next_seq = int(enc["next_seq"])
    table.state[:n] = enc["state"]
    table.kind[:n] = enc["kind"]
    table.cgroup[:n] = remap[np.asarray(enc["cgroup"], dtype=np.int64)]
    table.active[:n] = enc["active"]
    table.referenced[:n] = enc["referenced"]
    table.dirty[:n] = enc["dirty"]
    table.compressibility[:n] = enc["compressibility"]
    table.last_access[:n] = enc["last_access"]
    table.seq[:n] = enc["seq"]


def _encode_rate(rate) -> List[float]:
    return [float(rate.window_s), float(rate.rate), int(rate._last_count)]


def _apply_rate(rate, enc: List[float]) -> None:
    rate.window_s = float(enc[0])
    rate.rate = float(enc[1])
    rate._last_count = int(enc[2])


def _encode_cgroup(cg) -> Dict[str, Any]:
    vmstat = [
        int(getattr(cg.vmstat, f.name))
        for f in dataclasses.fields(cg.vmstat)
    ]
    return {
        "name": cg.name,
        "parent": cg.parent.name if cg.parent is not None else None,
        "compressibility": float(cg.compressibility),
        "memory_max": _opt_int(cg.memory_max),
        "memory_low": int(cg.memory_low),
        "swap_max": _opt_int(cg.swap_max),
        "anon_bytes": int(cg.anon_bytes),
        "file_bytes": int(cg.file_bytes),
        "swap_bytes": int(cg.swap_bytes),
        "zswap_bytes": int(cg.zswap_bytes),
        "vmstat": vmstat,
        "refault_rate": _encode_rate(cg.refault_rate),
        "swapin_rate": _encode_rate(cg.swapin_rate),
        "reuse_hist": [
            [int(b), int(n)] for b, n in cg.reuse_distance_hist.items()
        ],
        "shadow": {
            "clock": int(cg.shadow._clock),
            "capacity_entries": _opt_int(cg.shadow._capacity),
            "stamps": [
                [int(pid), int(stamp)]
                for pid, stamp in cg.shadow._stamps.items()
            ],
        },
        # LRU list lengths, [inactive, active] per kind (anon, file).
        "lru": [
            list(cg.lru[kind].nr) for kind in (PageKind.ANON, PageKind.FILE)
        ],
    }


def _apply_cgroup(cg, enc: Dict[str, Any]) -> None:
    cg.compressibility = float(enc["compressibility"])
    cg.memory_max = _opt_int(enc["memory_max"])
    cg.memory_low = int(enc["memory_low"])
    cg.swap_max = _opt_int(enc["swap_max"])
    cg.anon_bytes = int(enc["anon_bytes"])
    cg.file_bytes = int(enc["file_bytes"])
    cg.swap_bytes = int(enc["swap_bytes"])
    cg.zswap_bytes = int(enc["zswap_bytes"])
    for f, value in zip(dataclasses.fields(cg.vmstat), enc["vmstat"]):
        setattr(cg.vmstat, f.name, int(value))
    _apply_rate(cg.refault_rate, enc["refault_rate"])
    _apply_rate(cg.swapin_rate, enc["swapin_rate"])
    cg.reuse_distance_hist = {
        int(b): int(n) for b, n in enc["reuse_hist"]
    }
    cg.shadow._clock = int(enc["shadow"]["clock"])
    cg.shadow._capacity = _opt_int(enc["shadow"]["capacity_entries"])
    cg.shadow._stamps = {
        int(pid): int(stamp) for pid, stamp in enc["shadow"]["stamps"]
    }
    for kind, nr in zip((PageKind.ANON, PageKind.FILE), enc["lru"]):
        lru = cg.lru[kind]
        lru.nr = [int(nr[0]), int(nr[1])]
        lru.forget_cursors()


def _encode_mm(mm) -> Dict[str, Any]:
    return {
        "proactive_cpu_seconds": float(mm.proactive_cpu_seconds),
        "retry_stall_s": float(mm.retry_stall_s),
        "swap_op_count": int(mm.swap_op_count),
        "swap_fault_count": int(mm.swap_fault_count),
        "fs_op_count": int(mm.fs_op_count),
        "fs_fault_count": int(mm.fs_fault_count),
        "kswapd_low_frac": float(mm.kswapd_low_frac),
        "kswapd_high_frac": float(mm.kswapd_high_frac),
        "kswapd_reclaimed_bytes": int(mm.kswapd_reclaimed_bytes),
        "table": _encode_table(mm.table),
        "cgroups": [_encode_cgroup(cg) for cg in mm._cgroup_list],
    }


def _apply_mm(mm, enc: Dict[str, Any]) -> None:
    mm.proactive_cpu_seconds = float(enc["proactive_cpu_seconds"])
    mm.retry_stall_s = float(enc["retry_stall_s"])
    mm.swap_op_count = int(enc["swap_op_count"])
    mm.swap_fault_count = int(enc["swap_fault_count"])
    mm.fs_op_count = int(enc["fs_op_count"])
    mm.fs_fault_count = int(enc["fs_fault_count"])
    mm.kswapd_low_frac = float(enc["kswapd_low_frac"])
    mm.kswapd_high_frac = float(enc["kswapd_high_frac"])
    mm.kswapd_reclaimed_bytes = int(enc["kswapd_reclaimed_bytes"])

    for cg_enc in enc["cgroups"]:
        name = cg_enc["name"]
        if name not in mm._cgroups:
            mm.create_cgroup(
                name,
                parent=cg_enc["parent"] or "root",
                compressibility=float(cg_enc["compressibility"]),
            )
        _apply_cgroup(mm._cgroups[name], cg_enc)
    # Snapshot cgroup index -> this host's; index -1 (released) stays.
    remap = np.array(
        [mm._cgroups[cg_enc["name"]].index for cg_enc in enc["cgroups"]]
        + [-1],
        dtype=np.int64,
    )
    _apply_table(mm.table, enc["table"], remap)


# ----------------------------------------------------------------------
# PSI: groups, running averages, tasks, freeze state, triggers


def _encode_psi_group(group: PsiGroup) -> Dict[str, Any]:
    avgs = []
    for (resource, kind), running in group._avgs.items():
        avgs.append([
            resource.value,
            kind,
            [[float(w), float(v)] for w, v in running.avgs.items()],
            float(running.last_total),
        ])
    return {
        "name": group.name,
        "parent": group.parent.name if group.parent is not None else None,
        "nr_stalled": [
            [r.value, int(n)]
            for r, n in zip(RESOURCE_ORDER, group.nr_stalled)
        ],
        "nr_productive": [
            [r.value, int(n)]
            for r, n in zip(RESOURCE_ORDER, group.nr_productive)
        ],
        "nr_nonidle": int(group.nr_nonidle),
        "totals": [
            [r.value, kind, float(v)]
            for (r, kind), v in group.totals.items()
        ],
        "avgs": avgs,
        "last_change": float(group._last_change),
        "next_avg_update": float(group._next_avg_update),
    }


def _apply_psi_group(group: PsiGroup, enc: Dict[str, Any]) -> None:
    for r_value, n in enc["nr_stalled"]:
        group.nr_stalled[RESOURCE_INDEX[Resource(r_value)]] = int(n)
    for r_value, n in enc["nr_productive"]:
        group.nr_productive[RESOURCE_INDEX[Resource(r_value)]] = int(n)
    group.nr_nonidle = int(enc["nr_nonidle"])
    for r_value, kind, value in enc["totals"]:
        group.totals[(Resource(r_value), kind)] = float(value)
    for r_value, kind, windows, last_total in enc["avgs"]:
        running: RunningAverages = group._avgs[(Resource(r_value), kind)]
        running.avgs = {float(w): float(v) for w, v in windows}
        running.last_total = float(last_total)
    group._last_change = float(enc["last_change"])
    group._next_avg_update = float(enc["next_avg_update"])


def _encode_psi(psi) -> Dict[str, Any]:
    return {
        "groups": [_encode_psi_group(g) for g in psi._groups.values()],
        "tasks": [
            [task.name, task._groups[0].name, int(task.flags)]
            for task in psi._tasks.values()
        ],
        "frozen_at_s": _opt_float(psi._frozen_at_s),
        "frozen_totals": [
            [name, resource.value, float(v)]
            for (name, resource), v in psi._frozen_totals.items()
        ],
    }


def _apply_psi(psi, enc: Dict[str, Any]) -> None:
    for group_enc in enc["groups"]:
        name = group_enc["name"]
        if name not in psi._groups:
            psi.add_group(name, parent=group_enc["parent"])
        _apply_psi_group(psi._groups[name], group_enc)
    for name, group_name, flags in enc["tasks"]:
        task = psi.add_task(name, group_name)
        # Direct assignment: set_flags would re-apply counter deltas
        # the group encodings above already carry.
        task.flags = TaskFlags(int(flags))
    psi._frozen_at_s = _opt_float(enc["frozen_at_s"])
    psi._frozen_totals = {
        (name, Resource(r_value)): float(v)
        for name, r_value, v in enc["frozen_totals"]
    }


def _encode_controlfs(controlfs) -> Dict[str, Any]:
    faults = controlfs.faults
    triggers = []
    for (cgroup_name, filename), trig in controlfs._triggers.items():
        triggers.append([
            cgroup_name,
            filename,
            trig.spec.resource.value,
            trig.spec.kind,
            float(trig.spec.stall_threshold_s),
            float(trig.spec.window_s),
            float(trig._window_start),
            float(trig._start_total),
            _opt_float(trig._last_fire),
            int(trig.fire_count),
        ])
    return {
        "faults": {
            "frozen_pressure": bool(faults.frozen_pressure),
            "malformed_pressure": bool(faults.malformed_pressure),
            "error_on_read": bool(faults.error_on_read),
            "error_on_write": bool(faults.error_on_write),
        },
        "pressure_cache": [
            [cgroup_name, filename, text]
            for (cgroup_name, filename), text
            in controlfs._pressure_cache.items()
        ],
        "triggers": triggers,
    }


def _apply_controlfs(host, enc: Dict[str, Any]) -> None:
    controlfs = host.controlfs
    faults_enc = enc["faults"]
    controlfs.faults.frozen_pressure = bool(faults_enc["frozen_pressure"])
    controlfs.faults.malformed_pressure = bool(
        faults_enc["malformed_pressure"]
    )
    controlfs.faults.error_on_read = bool(faults_enc["error_on_read"])
    controlfs.faults.error_on_write = bool(faults_enc["error_on_write"])
    controlfs._pressure_cache = {
        (cgroup_name, filename): text
        for cgroup_name, filename, text in enc["pressure_cache"]
    }
    triggers = {}
    for (cgroup_name, filename, r_value, kind, stall_threshold_s,
         window_s, window_start, start_total, last_fire,
         fire_count) in enc["triggers"]:
        spec = TriggerSpec(
            resource=Resource(r_value),
            kind=kind,
            stall_threshold_s=float(stall_threshold_s),
            window_s=float(window_s),
        )
        trig = PsiTrigger(host.psi.group(cgroup_name), spec)
        trig._window_start = float(window_start)
        trig._start_total = float(start_total)
        trig._last_fire = _opt_float(last_fire)
        trig.fire_count = int(fire_count)
        triggers[(cgroup_name, filename)] = trig
    controlfs._triggers = triggers
    # Derived path memo (see ControlFs.__init__) must track _triggers.
    controlfs._trigger_paths = {
        (cgroup_name, filename): f"{cgroup_name}/{filename}"
        for cgroup_name, filename in triggers
    }


# ----------------------------------------------------------------------
# workloads


def encode_profile(profile: AppProfile) -> Dict[str, Any]:
    enc = {}
    for f in dataclasses.fields(profile):
        value = getattr(profile, f.name)
        if f.name == "bands":
            value = [
                float(value.used_1min),
                float(value.used_2min),
                float(value.used_5min),
            ]
        enc[f.name] = value
    return enc


def decode_profile(enc: Dict[str, Any]) -> AppProfile:
    kwargs = dict(enc)
    bands = kwargs.pop("bands")
    return AppProfile(
        bands=HeatBands(float(bands[0]), float(bands[1]), float(bands[2])),
        **kwargs,
    )


def _encode_workload(workload: Workload) -> Dict[str, Any]:
    type_name = type(workload).__name__
    if type_name not in WORKLOAD_TYPES:
        raise SnapshotError(
            f"cannot snapshot workload type {type_name!r}; supported "
            f"types: {sorted(WORKLOAD_TYPES)}",
            field="workloads",
        )
    enc: Dict[str, Any] = {
        "type": type_name,
        "cgroup": workload.cgroup_name,
        "profile": encode_profile(workload.profile),
        "pages": workload._pages.tolist(),
        "intervals": [float(v) for v in workload._intervals],
        "growth_carry": float(workload._growth_carry),
        "pending_spike_pages": int(workload._pending_spike_pages),
        "started": bool(workload.started),
        "initial_pages": _opt_int(getattr(workload, "_initial_pages", None)),
        "rng_state": encode_rng(workload._rng),
    }
    if type_name == "WebWorkload":
        enc["web_config"] = {
            f.name: getattr(workload.config, f.name)
            for f in dataclasses.fields(workload.config)
        }
        enc["rps"] = float(workload.rps)
    elif type_name == "TaxWorkload":
        enc["tax_kind"] = workload.kind
    elif type_name == "DiurnalWorkload":
        enc["diurnal"] = {
            "period_s": float(workload.period_s),
            "amplitude": float(workload.amplitude),
            "footprint_swing": float(workload.footprint_swing),
            "phase_s": float(workload.phase_s),
            "swing_pages": workload._swing_pages.tolist(),
            "current_intensity": _opt_float(
                getattr(workload, "_current_intensity", None)
            ),
        }
    return enc


def _decode_workload(host, enc: Dict[str, Any]) -> Workload:
    type_name = enc["type"]
    if type_name not in WORKLOAD_TYPES:
        raise SnapshotError(
            f"snapshot names unknown workload type {type_name!r}",
            field="workloads",
        )
    cgroup_name = enc["cgroup"]
    seed = host.config.seed
    profile = decode_profile(enc["profile"])
    if type_name == "Workload":
        workload: Workload = Workload(host.mm, profile, cgroup_name, seed)
    elif type_name == "WebWorkload":
        workload = WebWorkload(
            host.mm, cgroup_name=cgroup_name, seed=seed,
            config=WebConfig(**enc["web_config"]), profile=profile,
        )
        workload.rps = float(enc["rps"])
    elif type_name == "TaxWorkload":
        workload = TaxWorkload(
            host.mm, kind=enc["tax_kind"], cgroup_name=cgroup_name,
            seed=seed,
        )
    else:  # DiurnalWorkload
        diurnal = enc["diurnal"]
        workload = DiurnalWorkload(
            host.mm, profile, cgroup_name, seed,
            period_s=float(diurnal["period_s"]),
            amplitude=float(diurnal["amplitude"]),
            footprint_swing=float(diurnal["footprint_swing"]),
            phase_s=float(diurnal["phase_s"]),
        )
        workload._swing_pages = np.array(
            diurnal["swing_pages"], dtype=np.int64
        )
        if diurnal["current_intensity"] is not None:
            workload._current_intensity = float(
                diurnal["current_intensity"]
            )
    workload._pages = np.array(enc["pages"], dtype=np.int64)
    workload._intervals = np.array(enc["intervals"], dtype=np.float64)
    workload._growth_carry = float(enc["growth_carry"])
    workload._pending_spike_pages = int(enc["pending_spike_pages"])
    workload.started = bool(enc["started"])
    if enc["initial_pages"] is not None:
        workload._initial_pages = int(enc["initial_pages"])
    apply_rng(workload._rng, enc["rng_state"])
    return workload


# ----------------------------------------------------------------------
# the whole host


def encode_host_state(host) -> Dict[str, Any]:
    """Encode the full mutable state of a host as a JSON-clean payload."""
    from repro.checkpoint.controllers import encode_controller

    config_enc = {
        f.name: getattr(host.config, f.name)
        for f in dataclasses.fields(host.config)
    }
    hosted = []
    for name, entry in host._hosted.items():
        hosted.append({
            "cgroup": name,
            "workload": _encode_workload(entry.workload),
            "task_names": [t.name for t in entry.psi_tasks],
        })
    payload: Dict[str, Any] = {
        "kind": PAYLOAD_KIND,
        "config": config_enc,
        "clock_now_s": float(host.clock.now),
        "tick_index": int(host._tick_index),
        "prev_device_stats": [
            [label, int(r), int(w), int(b)]
            for label, (r, w, b) in host._prev_device_stats.items()
        ],
        "mm": _encode_mm(host.mm),
        "backends": _encode_backends(host),
        "psi": _encode_psi(host.psi),
        "controlfs": _encode_controlfs(host.controlfs),
        "hosted": hosted,
        "controllers": [
            encode_controller(c) for c in host._controllers
        ],
        "metrics": [
            [series.name,
             [float(t) for t in series.times],
             [float(v) for v in series.values]]
            for series in host.metrics._series.values()
        ],
        "invariants": (
            [
                [group, resource.value, kind, float(v)]
                for (group, resource, kind), v
                in host.invariants._psi_totals.items()
            ]
            if host.invariants is not None else None
        ),
    }
    return payload


def build_host(payload: Dict[str, Any]):
    """Construct a fresh host from a verified payload.

    The host is assembled completely before being returned; a failure
    anywhere raises and the partially-built object is discarded, so the
    caller never observes a half-restored host.
    """
    from repro.checkpoint.controllers import decode_controller
    from repro.sim.host import Host, HostConfig, HostedWorkload

    host = Host(HostConfig(**payload["config"]))
    host.clock.advance_to(float(payload["clock_now_s"]))
    host._tick_index = int(payload["tick_index"])
    host._prev_device_stats = {
        label: (int(r), int(w), int(b))
        for label, r, w, b in payload["prev_device_stats"]
    }
    _apply_mm(host.mm, payload["mm"])
    _apply_backends(host, payload["backends"])
    _apply_psi(host.psi, payload["psi"])
    _apply_controlfs(host, payload["controlfs"])
    for entry in payload["hosted"]:
        workload = _decode_workload(host, entry["workload"])
        host._hosted[entry["cgroup"]] = HostedWorkload(
            workload=workload,
            cgroup_name=entry["cgroup"],
            psi_tasks=[host.psi.task(n) for n in entry["task_names"]],
        )
    host._controllers = [
        decode_controller(enc) for enc in payload["controllers"]
    ]
    host.metrics._series = {
        name: Series(
            name=name,
            times=[float(t) for t in times],
            values=[float(v) for v in values],
        )
        for name, times, values in payload["metrics"]
    }
    if payload["invariants"] is not None and host.invariants is not None:
        host.invariants._psi_totals = {
            (group, Resource(r_value), kind): float(v)
            for group, r_value, kind, v in payload["invariants"]
        }
    return host
