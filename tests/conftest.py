import pytest

from hexext.modules import PresentedModule
from hexext.rings import ZZ, Zmod

R4 = Zmod(4)
R8 = Zmod(8)
R9 = Zmod(9)


@pytest.fixture
def z2_mod4():
    return PresentedModule.cyclic(R4, 2)


@pytest.fixture
def z4_mod4():
    return PresentedModule.free(R4, 1)


@pytest.fixture
def z_free():
    return PresentedModule.free(ZZ, 1)


def all_modules_over(ring, max_order):
    """Every iso type of order <= max_order over the ring, once each, in a
    diagonal presentation on prime-power cyclic factors."""
    from hexext.oracle import _product_types

    out = []
    n = 1
    while n <= max_order:
        for orders in _product_types(ring, n):
            out.append(PresentedModule.from_invariant_factors(ring, list(orders)))
        n += 1
    return out
