import sys

import pytest

from fmwb.core import Vocabulary


def _clear_fmwb_caches():
    for name, module in list(sys.modules.items()):
        if name == "fmwb" or name.startswith("fmwb."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()


@pytest.fixture
def fresh_caches():
    """Every fmwb module's memo caches emptied before and after the test,
    so that what it counts does not depend on the tests run before it."""
    _clear_fmwb_caches()
    yield
    _clear_fmwb_caches()


@pytest.fixture
def v_graph():
    return Vocabulary((("E", 2),))


@pytest.fixture
def v_mon():
    return Vocabulary((("R", 1),))


@pytest.fixture
def v_mon_ord():
    return Vocabulary((("R", 1),), has_order=True)
