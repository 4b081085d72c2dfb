"""Smoke test: every narrative script under ``demos/`` runs to the end, so a
renamed or deleted public name cannot break one unnoticed; the radius
demo, which prints criterion 9's sweeps, prints a pinned output."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

# sha256 of each pinned demo's stdout
PINNED = {"statistical_radius": "ace419c3b35791080f43cf4594103655961bb401975a378ec198ab8ff1399231"}


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_main_runs(path, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.main() is None
    out = capsys.readouterr().out
    assert out.strip()
    if path.stem in PINNED:
        assert hashlib.sha256(out.encode()).hexdigest() == PINNED[path.stem]
