"""Short traces must match the checked-in goldens byte for byte.

A change that alters a trace on purpose regenerates the goldens with
``tests/golden/regenerate.py`` and says why.
"""

import importlib.util
import os

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regenerate",
    os.path.join(os.path.dirname(__file__), "golden", "regenerate.py"),
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_trace_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    golden.write_trace(name, str(path))
    with open(golden.golden_path(name), "rb") as fh:
        expected = fh.read()
    assert path.read_bytes() == expected
