"""Every name the benchmark harness rebinds in gcnpart exists, so a
refactor that drops one fails here, not only in the harness's own
self-test."""

import importlib.util
import sys
from pathlib import Path

EXPERIMENT = Path(__file__).resolve().parents[1] / "perfbench" / "experiment.py"


def load_experiment(monkeypatch):
    # experiment.py puts its own directory and src/ in front of sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_experiment", EXPERIMENT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves(monkeypatch):
    layers = load_experiment(monkeypatch).LAYERS
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _, _ in layers
        # a class attribute is looked up where the tracer looks: in its __dict__
        if not (attr in vars(owner) if isinstance(owner, type) else hasattr(owner, attr))
    ]
    assert layers and missing == []
