import pytest

from mmjones.verify import _Pipeline


@pytest.fixture(scope="session")
def pipeline():
    """Session-wide memoized knot pipeline shared across test modules."""
    return _Pipeline()
