"""Every name a module lists in ``__all__`` exists, so ``import *`` works."""

import pytest

from catproj import fidelity, fock, povm, tomography


@pytest.mark.parametrize(
    "module, name",
    [(mod, name) for mod in (fock, povm, fidelity, tomography) for name in mod.__all__],
    ids=lambda v: v if isinstance(v, str) else v.__name__.rpartition(".")[2],
)
def test_all_entry_resolves(module, name):
    assert hasattr(module, name)
