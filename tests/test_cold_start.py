"""Process-wide memo contract.

Benchmarks and long-lived processes start a measurement cold by
calling ``cache_clear()`` on every module-level object of the
``repro`` package that has one.  That only works if each such
``cache_clear`` takes no arguments: a class exposing an unbound
``cache_clear`` method, for example, would raise ``TypeError``.
"""

import importlib
import pkgutil
import sys

import repro
from repro.synth import cuts


def _repro_modules():
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "repro" or name.startswith("repro.")
    ]


def test_every_module_level_cache_clear_takes_no_arguments():
    cleared = []
    for module in _repro_modules():
        for attr, value in list(vars(module).items()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
                cleared.append(f"{module.__name__}.{attr}")
    assert "repro.synth.cuts.enumerate_structure" in cleared


def test_clearing_empties_the_cut_memo():
    from repro.benchgen import build_circuit

    cuts.enumerate_cuts(build_circuit("ctrl", "small"), k=4)
    assert cuts.enumerate_structure.cache_info().currsize >= 1
    for module in _repro_modules():
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    assert cuts.enumerate_structure.cache_info().currsize == 0
    assert cuts.enumerate_structure.cache_info().maxsize == 4
