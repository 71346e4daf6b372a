"""The benchmark's tracer must see the loop's calls into other layers.

``bench/tracer.py`` replaces module attributes with spanned wrappers, so a
loop that bound ``maximize_ucb``, ``evaluate_objective`` or
``adaptation.solve_h`` to a local name would run unseen and the per-layer
metrics would read 0.
"""

import importlib.util
import os

import pytest

from abo import algorithms, cli
from abo.algorithms import AlgorithmConfig

_spec = importlib.util.spec_from_file_location(
    "bench_tracer",
    os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py"),
)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.fixture(scope="module")
def spans_by_variant(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("spans") / "spans.jsonl")
    t = tracer.Tracer(path)
    tracer.install(t)
    try:
        objective = cli.make_objective("example_rkhs", 0)
        for variant in algorithms.POLICIES:
            config = AlgorithmConfig(name=variant, variant=variant, iterations=3)
            algorithms.run(objective, config)
    finally:
        t.uninstall()
    # one chunk per run: the outermost span is algorithms.run
    return {chunk[0][4].split(":")[0]: chunk for chunk in tracer.load(path)}


@pytest.mark.parametrize("variant", sorted(algorithms.POLICIES))
def test_loop_calls_are_traced(spans_by_variant, variant):
    spans = spans_by_variant[variant]
    calls = {}
    for name, *_ in spans:
        calls[name] = calls.get(name, 0) + 1
    assert calls["algorithms.run"] == 1
    assert calls["algorithms.maximize_ucb"] >= 3
    assert calls["objectives.evaluate_objective"] == 2 + 3  # init rows + steps
    if variant == algorithms.AGP_UCB:
        assert calls["adaptation.solve_h"] == 3
