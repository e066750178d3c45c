"""Shared fixtures: small, fast substrate configurations for tests."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from tests.helpers import make_mm


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture
def mm():
    return make_mm()


@pytest.fixture
def mm_ssd():
    return make_mm(backend="ssd")


@pytest.fixture
def mm_file_only():
    return make_mm(backend=None)


@pytest.fixture(scope="session")
def repo_tree_flow():
    """One ``analyze_flow`` run over the repo tree, shared by the
    hot-path and state-contract self-checks. It selects the union of
    their rules (rule selection only filters what is reported, the
    analysis always runs in full), so each check keeps its own rules
    plus parse errors and reports exactly what a run selecting only
    its rules would."""
    from repro.lint.config import default_config
    from repro.lint.flow import analyze_flow
    from tests.test_lint_hotpath import HOT_RULES
    from tests.test_lint_statecontract import STATE_RULES

    paths = [
        Path("src"), Path("benchmarks"), Path("examples"), Path("tests")
    ]
    return analyze_flow(
        [p for p in paths if p.exists()],
        default_config(),
        select=HOT_RULES + STATE_RULES,
    )
