"""The export lists: every name a module lists exists, and the package
exports exactly the public names of its four library modules, as the same
objects.  No module holds a memo among its globals."""

import importlib
import pkgutil

import pytest

import noonloss

LIBRARY = ["analytics", "budget", "fock_oracle", "optimal_search"]


@pytest.mark.parametrize("name", ["noonloss"] + [f"noonloss.{m}" for m in LIBRARY + ["cli", "roots"]])
def test_every_listed_name_exists(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_the_union_of_the_library_modules():
    owners = {n: m for m in LIBRARY for n in importlib.import_module(f"noonloss.{m}").__all__}
    assert len(owners) == sum(len(importlib.import_module(f"noonloss.{m}").__all__) for m in LIBRARY)
    assert sorted(noonloss.__all__) == sorted(owners)
    for name, owner in owners.items():
        assert getattr(noonloss, name) is getattr(importlib.import_module(f"noonloss.{owner}"), name)


@pytest.mark.parametrize("name", ["snr_lossy", "SnrResult", "min_phase_at", "log_min_phase_at", "log_min_phase_opt"])
def test_renamed_point_queries_are_gone(name):
    # each was a renamed call of another name or a field of precision_report
    assert not hasattr(noonloss, name)
    assert not hasattr(noonloss.analytics, name)


def test_no_module_holds_a_memo():
    # a verify pass owns the oracle's reuse; no module keeps state between calls in a cache
    names = [info.name for info in pkgutil.iter_modules(noonloss.__path__, "noonloss.")]
    assert {"noonloss.cli", "noonloss.fock_oracle"} <= set(names)
    held = [(name, attr) for name in names for attr, obj in vars(importlib.import_module(name)).items()
            if hasattr(obj, "cache_info")]
    assert held == []
