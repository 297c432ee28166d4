"""Each public name is written once, in the ``__all__`` of the module that
defines it, and ``svls.__all__`` is the sorted union of those lists."""

import pytest

import svls
from svls import baselines, measurements, recovery, simulate

MODULES = (baselines, measurements, recovery, simulate)


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_module_lists_only_what_it_defines(module):
    for name in module.__all__:
        assert getattr(module, name).__module__ == module.__name__, name


def test_no_name_is_listed_by_two_modules():
    names = [name for module in MODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_package_exports_the_sorted_union():
    assert svls.__all__ == sorted(name for module in MODULES for name in module.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(svls, name) is getattr(module, name), name
