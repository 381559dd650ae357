"""Pinned values from tests/golden/values.json must reproduce.

Floats agree to rtol 1e-9 (BLAS thread counts move some of them by about
1e-11); integers such as event counts agree exactly.
"""

import importlib.util
import json
import math
import os

import pytest

_GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def _load_script():
    path = os.path.join(_GOLDEN_DIR, "make_values.py")
    spec = importlib.util.spec_from_file_location("golden_make_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _leaves(obj, prefix=""):
    if isinstance(obj, dict):
        for key in sorted(obj):
            yield from _leaves(obj[key], f"{prefix}/{key}")
    elif isinstance(obj, list):
        for i, item in enumerate(obj):
            yield from _leaves(item, f"{prefix}[{i}]")
    else:
        yield prefix, obj


@pytest.fixture(scope="module")
def golden():
    script = _load_script()
    with open(script.VALUES_PATH) as fh:
        expected = json.load(fh)
    actual = json.loads(json.dumps(script.compute()))
    return expected, actual


def test_same_layout(golden):
    expected, actual = golden
    assert [p for p, _ in _leaves(actual)] == [p for p, _ in _leaves(expected)]


def test_values_match(golden):
    expected, actual = golden
    bad = []
    for (path, want), (_, got) in zip(_leaves(expected), _leaves(actual)):
        if isinstance(want, float) or isinstance(got, float):
            ok = math.isclose(got, want, rel_tol=1e-9, abs_tol=0.0)
        else:
            ok = got == want
        if not ok:
            bad.append(f"{path}: expected {want!r}, got {got!r}")
    assert not bad, "\n".join(bad)
