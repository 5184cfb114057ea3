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
    """The ``max_workers`` of every process pool started while the test runs;
    ``run_search`` imports ``ProcessPoolExecutor`` only when it starts one."""
    import concurrent.futures

    real = concurrent.futures.ProcessPoolExecutor
    starts = []

    class Recorded(real):
        def __init__(self, max_workers=None, *args, **kwargs):
            starts.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    return starts
