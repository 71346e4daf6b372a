import json
import os
import subprocess
import sys

import abo


def test_public_names_resolve():
    assert all(hasattr(abo, name) for name in abo.__all__)
    namespace = {}
    exec("from abo import *", namespace)
    del namespace["__builtins__"]
    # a name listed twice in __all__ would also fail here
    assert sorted(namespace) == sorted(abo.__all__)


_FOOTPRINT = """
import json, sys
import numpy as np
from abo import cli
from abo.adaptation import ScalingState, solve_h
from abo.objectives import sobol_points

for problem in ("example_rkhs", "synthetic_4d"):
    cli.make_objective(problem, 0)
sobol_points(4, 4352)
before = [m for m in ("scipy.stats", "scipy.optimize") if m in sys.modules]
# h^2 crosses p(10) = 10^0.9 between h = 1 and the cap: a bracketed solve
solve_h(ScalingState(lam=0.1, theta0=np.array([1.0]), b0=2.0), 10, lambda h: h**2)
print(json.dumps([before, "scipy.optimize" in sys.modules]))
"""


def test_import_leaves_out_scipy_stats_and_optimize():
    # a fresh interpreter, so no other test's imports count
    src = os.path.dirname(os.path.dirname(abo.__file__))
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    before, optimize_after_solve = json.loads(proc.stdout)
    assert before == []
    assert optimize_after_solve
