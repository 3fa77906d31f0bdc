import pytest

from catalog import catalog, fixtures


@pytest.fixture(scope="session")
def cat():
    """The five core catalog monoids with their standard two-letter maps."""
    return catalog()


@pytest.fixture(scope="session")
def fx():
    """All shipped fixtures, including the larger extras t2 and b21."""
    return fixtures()
