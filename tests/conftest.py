"""Every test starts with the package's memo caches cold.

The package memoizes per-cutoff and per-alpha constants with
``functools.lru_cache`` (``fock.cat_basis``, ``fock.max_guarded_amplitude``,
``experiment.default_displacement_schedule`` and others).  A test that
counts calls or spies on a builder would otherwise pass or fail with the
order the tests run in, so each test gets every cache cleared first.
"""

import sys

import pytest

import catproj.cli  # noqa: F401  (imports every catproj module)


def package_caches() -> list:
    """Every ``lru_cache`` wrapper bound at the top level of a catproj
    module, each once."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "catproj" or name.startswith("catproj."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value
    return list(found.values())


@pytest.fixture(autouse=True)
def cold_caches():
    for cache in package_caches():
        cache.cache_clear()
