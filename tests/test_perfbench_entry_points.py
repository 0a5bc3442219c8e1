"""The names the benchmark of record depends on.

``perfbench/layers.py`` wraps program entry points by name
(``owner.__dict__[attr]``) and ``perfbench/suite.py`` runs every mode
in ``MODES``.  Both are read here without being changed, so a program
change that removes one of them fails in tier-1, not inside the
benchmark.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from repro.optimizer.parser import parse_plan
from tests.conftest import assert_equivalent

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _entry_points():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers.ENTRY_POINTS


def _suite_modes():
    tree = ast.parse((PERFBENCH / "suite.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "MODES"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/suite.py defines no MODES")


def test_every_wrapped_entry_point_exists():
    entry_points = _entry_points()
    assert entry_points
    for owner, attr, layer, _after in entry_points:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr} ({layer})"


@pytest.mark.parametrize("mode", _suite_modes())
def test_every_benchmarked_mode_runs(mode, hr_db):
    db = hr_db()
    plan = parse_plan("pi[1](employees - students)")
    assert_equivalent(
        plan, db.relations, db.run(plan, use_cache=False, mode=mode)
    )
