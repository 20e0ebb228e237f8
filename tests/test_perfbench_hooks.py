"""The benchmark's tracing hooks still find every entry point they wrap.

``perfbench/tracing.py`` replaces named attributes of package modules and
classes with span-recording wrappers, reading each one from its owner's own
``__dict__``.  A refactor that moves such a name (say, into a base class)
breaks traced benchmark runs; these tests catch that without running them.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import tripletboost
from tripletboost import TestTripletSet, generate_test_set, make_moons

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("owner_path, name", [
    (owner_path, name) for _, owner_path, names in tracing.ENTRY_POINTS for name in names])
def test_entry_point_is_its_owners_own_attribute(owner_path, name):
    owner = tracing._resolve(tripletboost, owner_path)
    assert name in owner.__dict__


def test_test_set_io_spans_do_not_nest_store_spans(tmp_path):
    """Test-set save and load each open one span of their own, at top level."""
    ds = make_moons(20, 0.1, 0)
    train, test = ds.take(range(15)), ds.take(range(15, 20))
    tset = generate_test_set(test, train, "euclidean", 0.5, 0.0, 1)
    tracer = tracing.Tracer("hooks")
    undo = tracing.install(tracer, tripletboost)
    try:
        tset.save(tmp_path / "t.trp")
        loaded = TestTripletSet.load(tmp_path / "t.trp")
    finally:
        tracing.uninstall(undo)
    assert loaded == tset
    assert tracer.names == ["triplets.TestTripletSet.save", "triplets.TestTripletSet.load"]
    assert tracer.parents == [-1, -1]


def test_evaluation_opens_only_its_own_span():
    """Evaluation resolves labels itself, without a nested ``resolve_all`` span."""
    labels = tripletboost.LabelDict(("a", "b"))
    preds = [tripletboost.Prediction(np.array([1.0, 0.0]), 0, 1, 1.0),
             tripletboost.Prediction(np.zeros(2), tripletboost.ABSTAIN, 0, 0.0)]
    tracer = tracing.Tracer("hooks")
    undo = tracing.install(tracer, tripletboost)
    try:
        tripletboost.metrics.evaluate_predictions(preds, [frozenset([0])] * 2, labels)
    finally:
        tracing.uninstall(undo)
    assert tracer.names == ["metrics.evaluate_predictions"]
    assert tracer.parents == [-1]
