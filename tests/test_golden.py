"""Pinned values from tests/golden/values.json must reproduce.

Floats agree to rtol 1e-9 (BLAS thread counts move some of them by about
1e-11); integers such as event counts agree exactly.  The comparison
lives in the script that writes the values, ``make_values.moved``.
"""

import importlib.util
import json
import os

import pytest

_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_script():
    path = os.path.join(_GOLDEN_DIR, "make_values.py")
    spec = importlib.util.spec_from_file_location("golden_make_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def golden():
    script = _load_script()
    with open(script.VALUES_PATH) as fh:
        expected = json.load(fh)
    actual = json.loads(json.dumps(script.compute()))
    return script, expected, actual


def test_same_layout(golden):
    script, expected, actual = golden
    assert [p for p, _ in script.leaves(actual)] == [p for p, _ in script.leaves(expected)]


def test_values_match(golden):
    script, expected, actual = golden
    bad = [
        f"{path}: expected {want!r}, got {got!r}"
        for path, want, got in script.moved(expected, actual)
    ]
    assert not bad, "\n".join(bad)
