"""Self-tests of the benchmark at toy scale.

    python3 -m pytest perfbench -q

Every workload must run and print every declared metric with its unit;
a tampered digest, or a replay that does not throw the kill switch where
the daemon did, must be reported as a failure; installing the trace
wrappers must leave the simulation's digests unchanged; and each time
must be scaled by the reference samples around it.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import fleetd_ops  # noqa: E402
import hosts  # noqa: E402
from report import Outcome, Reference  # noqa: E402
from spans import Tracer, layer_totals  # noqa: E402

#: Footprint multiplier that keeps every workload to a few seconds.
TOY = 0.1


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec[section]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["host_small", "host_large", "host_thrash", "fleetd_ops"]
)
def test_workload_prints_every_declared_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--scale", str(TOY)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = declared("per_layer" if trace else "end_to_end")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (tmp_path / "perfbench" / name).write_text(
                open(os.path.join(HERE, name)).read()
            )
    (tmp_path / "BENCHMARK.json").write_text(
        open(os.path.join(ROOT, "BENCHMARK.json")).read()
    )
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "host_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tampered_host_digest_is_a_failure(monkeypatch, tmp_path):
    real = hosts.fingerprint
    calls = []

    def tampered(host):
        print_ = real(host)
        calls.append(print_)
        if len(calls) == 2:
            print_ = dict(print_, digest="0" * 64)
        return print_

    monkeypatch.setattr(hosts, "fingerprint", tampered)
    out = Outcome()
    hosts.run(
        "host_small", 1, 0.2, False, 0.0, TOY, out,
        str(tmp_path / "spans.npz"),
    )
    assert out.failed == 1
    assert any("MISMATCH" in line for line in out.notes)


def test_tampered_fleet_digest_is_a_failure(monkeypatch, tmp_path):
    real = fleetd_ops.Daemon.stop

    def tampered(self):
        report = real(self)
        report["fleet_digest"] = "0" * 64
        return report

    monkeypatch.setattr(fleetd_ops.Daemon, "stop", tampered)
    out = Outcome()
    workdir = os.path.relpath(tmp_path)
    fleetd_ops.run(
        1, 0.5, False, 0.0, TOY, out, str(tmp_path / "spans.npz"), workdir,
    )
    # Both warm boots and the final daemon disagree with the replay.
    assert out.failed == fleetd_ops.SETUPS
    assert sum("MISMATCH" in line for line in out.notes) == fleetd_ops.SETUPS


def test_kill_switch_missing_from_the_replay_is_a_failure(
    monkeypatch, tmp_path,
):
    real = fleetd_ops.Daemon.stop

    def tampered(self):
        report = real(self)
        if report["kill_tick"] is not None:
            report["kill_tick"] = -1  # a tick the replay never reaches
        return report

    monkeypatch.setattr(fleetd_ops.Daemon, "stop", tampered)
    out = Outcome()
    workdir = os.path.relpath(tmp_path)
    fleetd_ops.run(
        1, 0.5, False, 0.0, TOY, out, str(tmp_path / "spans.npz"), workdir,
    )
    assert out.failed >= 1
    assert any(
        "kill switch" in line and "MISMATCH" in line for line in out.notes
    )


def test_host_tracing_leaves_the_digest_unchanged():
    shape = hosts.SHAPES["host_thrash"]
    plain = hosts.build_host(shape, 5, TOY)
    plain.run(20.0)
    traced = hosts.build_host(shape, 5, TOY)
    tracer = Tracer()
    faults = {}
    hosts.install_tracing(traced, tracer, faults)
    try:
        traced.run(20.0)
    finally:
        tracer.unwrap_all()
    assert hosts.fingerprint(traced) == hosts.fingerprint(plain)
    totals = layer_totals(tracer.arrays())
    assert totals["host.step"]["calls"] == 20
    own = sum(entry["self_s"] for entry in totals.values())
    assert own == pytest.approx(totals["host.step"]["total_s"])
    assert sum(faults.values()) == totals["mm.touch"]["calls"]


def test_engine_tracing_leaves_the_fleet_digest_unchanged(tmp_path):
    plain = fleetd_ops.quiet_engine(2, str(tmp_path / "a"), TOY)
    plain.run_ticks(40)
    traced = fleetd_ops.quiet_engine(2, str(tmp_path / "b"), TOY)
    tracer = Tracer()
    fleetd_ops.install_engine_tracing(traced, tracer)
    try:
        traced.run_ticks(40)
    finally:
        tracer.unwrap_all()
        plain.close()
        traced.close()
    assert traced.fleet_digest() == plain.fleet_digest()
    totals = layer_totals(tracer.arrays())
    assert totals["fleetd.tick"]["calls"] == 40
    assert totals["checkpoint.spool"]["calls"] == len(fleetd_ops.HOSTS)
    assert len(tracer.samples["spool_bytes"]) == len(fleetd_ops.HOSTS)


def test_each_time_is_scaled_by_the_reference_samples_around_it():
    # Sample k follows item k; the machine halves its speed at item 20.
    ref = Reference.of_samples([1e-3] * 20 + [2e-3] * 20, range(1, 41))
    scaled = ref.scale([1.0] * 40)
    assert scaled[0] == pytest.approx(ref.nominal_s / 1e-3)
    assert scaled[-1] == pytest.approx(ref.nominal_s / 2e-3)
    assert scaled[10] > scaled[30]
