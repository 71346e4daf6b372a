"""Spans around calls into the package, recorded from outside it.

``install`` replaces the package's public functions (and the names other
modules import them under) with wrappers that record a span per call:
name, start, end, parent span and run id, plus a work count where the
layer has one. Spans stay in memory and are appended to one JSON-lines
file when the outermost span ends, that is at the end of each
optimization run. ``aggregate`` computes calls, inclusive and self time
and work per span name.
"""

from __future__ import annotations

import functools
import json
import time

# Layers are the package's modules; a span name is "<layer>.<function>".
LAYERS = ("kernels", "gp", "hyperparam", "adaptation", "algorithms", "objectives", "cli")

_NS = 1e-9


def _gram_work(args, out):
    """(pairs, computed bytes) of one cross_gram call, from array shapes."""
    n, m = out.shape
    d = args[0].dim
    # inputs n*d + m*d, difference tensor n*m*d, squared distance and result
    return n * m, 8 * (n * d + m * d + n * m * d + 2 * n * m)


def _points_work(args, out):
    return len(out[0]), 0


class Tracer:
    def __init__(self, path: str):
        self.path = path
        self.spans: list = []  # [name, start_ns, end_ns, parent, run, work, bytes]
        self.stack: list = []
        self.run_id = ""
        self._saved: list = []

    def wrap(self, owner, attr: str, name: str, work=None, run_of=None) -> None:
        """Replace ``owner.attr`` with a spanned wrapper. ``work(args, out)``
        returns (count, computed bytes); ``run_of(args)`` sets the run id."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if run_of is not None:
                tracer.run_id = run_of(args)
            stack = tracer.stack
            rec = [name, 0, 0, stack[-1] if stack else -1, tracer.run_id, 0, 0]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                out = original(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if work is not None:
                rec[5], rec[6] = work(args, out)
            if not stack:
                tracer.flush()
            return out

        self._saved.append((owner, attr, original))
        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.flush()

    def flush(self) -> None:
        if not self.spans:
            return
        with open(self.path, "a") as fh:
            fh.write(json.dumps(self.spans) + "\n")
        self.spans = []


def install(tracer: Tracer) -> None:
    """Wrap every public function the benchmark's per-layer metrics name."""
    from abo import adaptation, algorithms, cli, gp, hyperparam, kernels, objectives

    w = tracer.wrap
    w(kernels, "cross_gram", "kernels.cross_gram", work=_gram_work)
    GP = gp.GaussianProcess
    # every constructor call, including those inside add_observation and
    # set_kernel, factorizes K + sigma^2 I
    w(GP, "__init__", "gp.construct")
    w(GP, "set_kernel", "gp.set_kernel")
    w(GP, "add_observation", "gp.add_observation")
    w(GP, "posterior", "gp.posterior", work=_points_work)
    w(GP, "log_marginal_likelihood", "gp.log_marginal_likelihood")
    w(hyperparam, "map_estimate", "hyperparam.map_estimate")
    for fn in ("solve_h", "regret_bound_estimate", "one_step_estimate"):
        w(adaptation, fn, f"adaptation.{fn}")
    w(algorithms, "run", "algorithms.run", run_of=lambda args: f"{args[1].name}:{args[1].seed}")
    w(algorithms, "maximize_ucb", "algorithms.maximize_ucb")
    # names imported into other modules are looked up there, so wrap each
    for module in (objectives, cli):
        for fn in ("make_rkhs_function", "make_gp_sample_function", "bump_linear_preset"):
            w(module, fn, "objectives.make")
    for module in (objectives, algorithms):
        w(module, "evaluate_objective", "objectives.evaluate_objective")
    w(cli, "run_experiment", "cli.run_experiment")
    w(cli, "emit_trace", "cli.emit_trace")


def load(path: str) -> list:
    """The chunks of spans ``flush`` wrote, one list of spans each."""
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def aggregate(chunks: list) -> dict:
    """Per-name calls, inclusive and self seconds, work; per-layer self time.

    Self time is a span's duration minus its children's durations; children
    of a span run inside it in the same thread, so they never overlap.
    ``map_evals`` counts GP constructs inside a MAP search and ``ucb_points``
    the posterior points inside an acquisition maximization.
    """
    by_name: dict = {}
    map_evals = ucb_points = 0
    for spans in chunks:
        child_ns = [0] * len(spans)
        under_map = [False] * len(spans)
        under_ucb = [False] * len(spans)
        for i, (name, start, end, parent, _run, work, _b) in enumerate(spans):
            if parent >= 0:
                child_ns[parent] += end - start
                pname = spans[parent][0]
                under_map[i] = under_map[parent] or pname == "hyperparam.map_estimate"
                under_ucb[i] = under_ucb[parent] or pname == "algorithms.maximize_ucb"
        for i, (name, start, end, parent, _run, work, nbytes) in enumerate(spans):
            agg = by_name.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0, "work": 0, "bytes": 0})
            agg["calls"] += 1
            agg["ns"] += end - start
            agg["self_ns"] += end - start - child_ns[i]
            agg["work"] += work
            agg["bytes"] += nbytes
            if name == "gp.construct" and under_map[i]:
                map_evals += 1
            if name == "gp.posterior" and under_ucb[i]:
                ucb_points += work
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, agg in by_name.items():
        layer_self[name.split(".")[0]] += agg["self_ns"] * _NS
    return {
        "by_name": by_name,
        "layer_self_s": layer_self,
        "map_evals": map_evals,
        "ucb_points": ucb_points,
    }
