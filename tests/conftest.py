import pytest
from hypothesis import settings

from ztop.pivots import MultiplierChain, TwoPowerExponent, make_pivots

settings.register_profile("ci", derandomize=True, max_examples=150, deadline=None)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def linear():
    return make_pivots(TwoPowerExponent("linear"))


@pytest.fixture(scope="session")
def square():
    return make_pivots(TwoPowerExponent("square"))


@pytest.fixture(scope="session")
def factorial():
    return make_pivots(TwoPowerExponent("factorial"))


@pytest.fixture(scope="session")
def chain23():
    return make_pivots(MultiplierChain((2, 3)))


@pytest.fixture(scope="session")
def chain232():
    return make_pivots(MultiplierChain((2, 3, 2)))
