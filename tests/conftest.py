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
    """Every iso type of order <= max_order over the ring, in a canonical
    diagonal presentation.  Over Z/6 and Z/12 some types appear more than
    once, as isomorphic products of cyclic factors: (6,) and (3, 2), and
    over Z/12 also (12,) and (4, 3)."""
    from hexext.oracle import _product_types

    out = []
    n = 1
    while n <= max_order:
        for orders in _product_types(ring, n):
            out.append(PresentedModule.from_invariant_factors(ring, list(orders)))
        n += 1
    return out
