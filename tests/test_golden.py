"""Short traces must match the checked-in goldens byte for byte.

A change that alters a trace on purpose regenerates the goldens with
``tests/golden/regenerate.py`` and says why. Each golden's first line names
the library versions that made it; the comparison skips it, and a failure
names those versions and the running ones.
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


def first_difference(got: bytes, expected: bytes) -> str:
    """The first differing row (1 = first line after the header), its iter,
    and column of two trace CSVs, with both cells."""
    got_rows = got.decode().splitlines()
    expected_rows = expected.decode().splitlines()
    header = expected_rows[0].split(",")
    for row, (a, b) in enumerate(zip(got_rows, expected_rows)):
        if a == b:
            continue
        cells_a, cells_b = a.split(","), b.split(",")
        for col, name in enumerate(header):
            cell_a = cells_a[col] if col < len(cells_a) else "<missing>"
            cell_b = cells_b[col] if col < len(cells_b) else "<missing>"
            if cell_a != cell_b:
                where = "header" if row == 0 else f"row {row} (iter {cells_b[0]})"
                return f"{where}, column {name}: got {cell_a}, expected {cell_b}"
        return f"row {row}: got {a!r}, expected {b!r}"
    if len(got_rows) == len(expected_rows):
        return "line endings"
    return f"got {len(got_rows)} lines, expected {len(expected_rows)}"


def test_first_difference_names_row_and_column():
    expected = b"iter,x_0,y\n-1,0.5,1\n1,0.25,2\n"
    assert first_difference(b"iter,x_0,y\n-1,0.5,1\n1,0.25,3\n", expected) == (
        "row 2 (iter 1), column y: got 3, expected 2"
    )
    assert first_difference(b"iter,x_0,y\n-1,0.5,1\n", expected) == (
        "got 2 lines, expected 3"
    )


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_trace_matches_golden(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    golden.write_trace(name, str(path))
    made_with, expected = golden.read_golden(name)
    got = path.read_bytes()
    if got != expected:
        pytest.fail(
            f"{name}.csv differs at {first_difference(got, expected)}; the golden "
            f"was made with {made_with}, this run has {golden.versions()}"
        )
