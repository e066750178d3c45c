"""End-to-end tests of the state-contract analyses (TMO014-016).

The statepkg fixture package seeds known findings at pinned lines —
a checkpoint-coverage gap, a worker-reachable module global, and
misspelled metric names (directly, through a wrapper, and in both
f-string shapes). The repo-tree tests then assert ``src/repro`` is
clean and that the acceptance mutations (deleting a codec field,
adding a memoized global on the worker path) re-fail lint with the
right rule id.
"""

import json
import shutil
from pathlib import Path

from repro.lint import cli
from repro.lint.config import default_config
from repro.lint.engine import PARSE_ERROR_RULE
from repro.lint.flow import analyze_flow

STATEPKG = Path("tests/lint_fixtures/statepkg")
STATE_RULES = ["TMO014", "TMO015", "TMO016"]


def _config(**overrides):
    """The default config with TMO014-016 pointed at statepkg."""
    config = default_config()
    config.rule_options = dict(config.rule_options)
    config.rule_options["TMO014"] = {
        "codec_modules": ("statepkg.codec",),
        "state_roots": ("statepkg.state",),
        "exempt_class_suffixes": ("state.Ephemeral",),
        "transient_attrs": {},
        **overrides.get("TMO014", {}),
    }
    config.rule_options["TMO015"] = {
        "worker_entrypoints": ("statepkg.workers.run_host",),
    }
    config.rule_options["TMO016"] = {
        "record_sink_suffixes": ("statepkg.metrics.Recorder.record",),
        "record_method_names": ("record",),
        "read_sink_suffixes": ("statepkg.metrics.Recorder.series",),
        "read_method_names": ("series",),
    }
    return config


def _findings(paths, config=None, select=STATE_RULES, cache_path=None):
    result = analyze_flow(
        paths, config or _config(), select=select, cache_path=cache_path
    )
    return [
        (v.rule_id, v.path.rpartition("/")[2], v.line)
        for v in result.violations
    ]


# ----------------------------------------------------------------------
# the fixture package


def test_fixture_package_findings_exact():
    assert _findings([STATEPKG]) == [
        ("TMO016", "emit.py", 11),   # misspelled full name
        ("TMO016", "emit.py", 13),   # registered but never read
        ("TMO016", "emit.py", 15),   # typo through the _emit wrapper
        ("TMO016", "emit.py", 20),   # undeclared per-cgroup suffix
        ("TMO016", "emit.py", 22),   # undeclared dynamic namespace
        ("TMO014", "state.py", 21),  # mutable dict not in codec
        ("TMO014", "state.py", 24),  # evolves outside __init__
        ("TMO015", "workers.py", 15),  # read of mutated global
        ("TMO015", "workers.py", 26),  # write from worker path
    ]


def test_messages_name_the_contract_and_the_fix():
    result = analyze_flow([STATEPKG], _config(), select=STATE_RULES)
    by_key = {(v.rule_id, v.line): v.message for v in result.violations}
    assert "did you mean 'senpai/stale_skips'?" in by_key[("TMO016", 11)]
    assert "never read" in by_key[("TMO016", 13)]
    assert "did you mean 'reclaim'?" in by_key[("TMO016", 15)]
    assert "PER_CGROUP_METRICS" in by_key[("TMO016", 20)]
    assert "DYNAMIC_NAMESPACES" in by_key[("TMO016", 22)]
    assert "Leaky.backlog" in by_key[("TMO014", 21)]
    assert "tmo-lint: transient" in by_key[("TMO014", 21)]
    assert "run_host" in by_key[("TMO015", 26)]
    assert "_RESULTS" in by_key[("TMO015", 26)]


def test_transient_allowlist_suppresses_coverage_gaps():
    config = _config(TMO014={
        "transient_attrs": {"Leaky": ("backlog", "last_seen")},
    })
    rules = [rule for rule, _, _ in _findings([STATEPKG], config)]
    assert "TMO014" not in rules


def test_no_codec_in_analyzed_set_skips_coverage():
    # Coverage is undefined without the codec module, not violated.
    assert _findings([STATEPKG / "state.py"]) == []


def test_no_registry_in_analyzed_set_skips_metric_drift():
    paths = [
        STATEPKG / "emit.py",
        STATEPKG / "metrics.py",
        STATEPKG / "reader.py",
    ]
    assert _findings(paths) == []


# ----------------------------------------------------------------------
# cache invalidation: a codec edit re-triggers TMO014 on classes whose
# facts come straight from the cache


def test_codec_edit_retriggers_coverage_from_cache(tmp_path):
    pkg = tmp_path / "statepkg"
    shutil.copytree(STATEPKG, pkg)
    cache = tmp_path / "cache.json"

    warm = analyze_flow([pkg], _config(), select=["TMO014"],
                        cache_path=cache)
    assert [(v.line) for v in warm.violations] == [21, 24]
    assert warm.cache_misses == warm.files_checked

    # A same-line-count edit: only codec.py's own hash changes, so
    # every other fixture file is served straight from the cache.
    codec = pkg / "codec.py"
    text = codec.read_text()
    text = text.replace(
        '        "samples": list(tracker.samples),',
        '        "payload": list(tracker.history),',
    )
    text = text.replace(
        '    tracker.samples = list(enc["samples"])',
        '    tracker.history = list(enc["payload"])',
    )
    codec.write_text(text)

    rerun = analyze_flow([pkg], _config(), select=["TMO014"],
                         cache_path=cache)
    found = [
        (v.path.rpartition("/")[2], v.line) for v in rerun.violations
    ]
    # Tracker.samples (state.py:9) is newly uncovered even though
    # state.py itself was served from the cache.
    assert ("state.py", 9) in found
    assert rerun.cache_hits == rerun.files_checked - 1
    assert rerun.cache_misses == 1


# ----------------------------------------------------------------------
# acceptance mutations against the real tree


def _copy_src(tmp_path):
    target = tmp_path / "src"
    shutil.copytree("src", target)
    return target


def test_deleting_codec_field_fails_lint_with_tmo014(tmp_path):
    src = _copy_src(tmp_path)
    controllers = src / "repro" / "checkpoint" / "controllers.py"
    text = controllers.read_text()
    mutated = text.replace(
        '        "stale_skips": int(senpai.stale_skips),\n', ""
    ).replace(
        '    senpai.stale_skips = int(enc["stale_skips"])\n', ""
    )
    assert mutated != text
    controllers.write_text(mutated)

    result = analyze_flow([src], default_config(), select=["TMO014"])
    messages = [v.message for v in result.violations]
    assert any("Senpai.stale_skips" in m for m in messages)


def test_dropping_a_page_table_column_fails_lint_with_tmo014(tmp_path):
    """The page table's numpy columns are checkpoint state: a column
    the codec stops encoding is a coverage gap."""
    src = _copy_src(tmp_path)
    codec = src / "repro" / "checkpoint" / "codec.py"
    text = codec.read_text()
    mutated = text.replace(
        '        "last_access": table.last_access[:n].tolist(),\n', ""
    ).replace(
        '    table.last_access[:n] = enc["last_access"]\n', ""
    )
    assert mutated != text
    codec.write_text(mutated)

    result = analyze_flow([src], default_config(), select=["TMO014"])
    messages = [v.message for v in result.violations]
    assert any("PageTable.last_access" in m for m in messages)


def test_worker_path_global_fails_lint_with_tmo015(tmp_path):
    src = _copy_src(tmp_path)
    fleet = src / "repro" / "core" / "fleet.py"
    text = fleet.read_text()
    mutated = text.replace(
        "    profile = APP_CATALOG[plan.app]\n    backend = plan.backend",
        "    profile = _profile_cached(plan.app)\n    backend = plan.backend",
    )
    assert mutated != text
    mutated += (
        "\n\n_PROFILE_CACHE = {}\n\n\n"
        "def _profile_cached(app):\n"
        "    profile = _PROFILE_CACHE.get(app)\n"
        "    if profile is None:\n"
        "        profile = APP_CATALOG[app]\n"
        "        _PROFILE_CACHE[app] = profile\n"
        "    return profile\n"
    )
    fleet.write_text(mutated)

    result = analyze_flow([src], default_config(), select=["TMO015"])
    messages = [v.message for v in result.violations]
    assert any("_PROFILE_CACHE" in m for m in messages)
    assert any("mutates module-level state" in m for m in messages)


# ----------------------------------------------------------------------
# the repo tree itself


def test_repo_tree_is_clean_for_state_contracts(repo_tree_flow):
    violations = [
        v for v in repo_tree_flow.violations
        if v.rule_id in STATE_RULES or v.rule_id == PARSE_ERROR_RULE
    ]
    assert [v.format_text() for v in violations] == []


# ----------------------------------------------------------------------
# --stats


def test_stats_flag_writes_rule_hit_summary(tmp_path):
    stats = tmp_path / "stats.json"
    rc = cli.main([
        "tests/lint_fixtures/tmo001_bad.py",
        "--select", "TMO001", "--no-baseline", "--quiet",
        "--stats", str(stats),
    ])
    assert rc == 1
    payload = json.loads(stats.read_text())
    assert payload["violations_total"] >= 1
    assert payload["rule_hits"]["TMO001"] == payload["violations_total"]
    assert payload["flow"] is None


def test_stats_reports_flow_cache_hits_on_rerun(tmp_path):
    stats = tmp_path / "stats.json"
    cache = tmp_path / "cache.json"
    argv = [
        "tests/lint_fixtures/flowpkg",
        "--flow", "--cache", str(cache), "--no-baseline", "--quiet",
        "--stats", str(stats),
    ]
    cli.main(argv)
    first = json.loads(stats.read_text())
    assert first["flow"]["cache_misses"] == first["flow"]["files_checked"]

    cli.main(argv)
    second = json.loads(stats.read_text())
    assert second["flow"]["cache_hits"] == second["flow"]["files_checked"]
    assert second["rule_hits"] == first["rule_hits"]
