"""Every name a module of ``sthdg`` lists in ``__all__`` resolves.

A removed function or alias that stays listed would break ``import *``
and mislead readers of the module's public surface.
"""

import importlib
import pkgutil

import pytest

import sthdg

MODULES = ["sthdg"] + [f"sthdg.{info.name}"
                       for info in pkgutil.iter_modules(sthdg.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", [])
               if not hasattr(module, attr)]
    assert not missing, missing
