"""Export guard: every advertised name exists, and the package re-exports
only names its modules list in ``__all__``."""

import inspect

import pytest

import carnotlw
from carnotlw import brascamp_lieb, density, group, harness, radon

MODULES = (brascamp_lieb, density, group, harness, radon)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_names_resolve(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"


def test_package_reexports_are_module_exports():
    strays = [
        name
        for name, obj in vars(carnotlw).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and not any(
            name in m.__all__ and getattr(m, name) is obj for m in MODULES
        )
    ]
    assert not strays, f"re-exported but in no module's __all__: {strays}"
