import pytest

from cartier import make_field


@pytest.fixture(scope="session")
def F3():
    return make_field(3)


@pytest.fixture(scope="session")
def F5():
    return make_field(5)


@pytest.fixture(scope="session")
def F7():
    return make_field(7)


@pytest.fixture(scope="session")
def F9():
    return make_field(3, 2, [1, 0, 1])


@pytest.fixture(scope="session")
def F25():
    return make_field(5, 2)


@pytest.fixture(scope="session")
def F49():
    return make_field(7, 2)


@pytest.fixture
def pool_starts(monkeypatch):
    """The worker count of every fork pool started while the test runs;
    ``run_search`` imports ``ForkPool`` only when it starts one."""
    from cartier import _pool

    real = _pool.ForkPool
    starts = []

    class Recorded(real):
        def __init__(self, workers, *args, **kwargs):
            starts.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(_pool, "ForkPool", Recorded)
    return starts
