"""Tests name corpus and docs files relative to the repository root, so
every test runs there, wherever pytest was started."""

from __future__ import annotations

from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _at_repo_root(monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
