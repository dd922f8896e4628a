"""The benchmark's tracer (bench/layers.py) names gf4msd functions and reads
some of their parameters by position and name; a rename in src/ would only
show in a traced benchmark run, so tier-1 checks those names here.  The
module is loaded by path and only read."""

import importlib
import importlib.util
import inspect
import pathlib

import pytest

LAYERS_PY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"

# leading parameters each observer reads, by position; None is not read
OBSERVED_PARAMS = {
    "gf4.weight_enumerator": ("code",),
    "gf4.rall_signs": ("code",),
    "roots.isolate_roots": ("p",),
    "roots.refine_root": ("p",),
    "roots.poly_nonneg_on": ("p",),
    "simplex.solve": ("c", "a_ub", "b_ub", "a_eq", "b_eq"),
    "bounds.lattice_search": ("n", "use_quantum"),
    "oracle.build_projector": (None, "n"),
}


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _function(name):
    mod, fn = name.rsplit(".", 1)
    return getattr(importlib.import_module("gf4msd." + mod), fn, None)


def test_every_traced_function_exists(layers):
    missing = [name for name in layers.FUNCTIONS if not callable(_function(name))]
    assert missing == []


def test_observed_parameters_keep_positions_and_names(layers):
    assert set(layers._OBSERVERS) == set(OBSERVED_PARAMS)
    for name, expected in OBSERVED_PARAMS.items():
        params = list(inspect.signature(_function(name)).parameters)[: len(expected)]
        assert len(params) == len(expected), name
        assert all(e is None or e == p for e, p in zip(expected, params)), (name, params)
