import pytest

from cliffsys import _wedge_py

from backends import compile_c_kernel


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run the long acceptance checks (rank-10 suite)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture(scope="session")
def _c_kernel(tmp_path_factory):
    return compile_c_kernel(tmp_path_factory.mktemp("wedge_c"))


@pytest.fixture(scope="session")
def wc(_c_kernel):
    """The C kernel module, compiled from source for this test run."""
    module, why = _c_kernel
    if module is None:
        pytest.skip(why)
    return module


@pytest.fixture(scope="session")
def kernel_backends(_c_kernel):
    """The pure kernel, and the C kernel when this machine can build it."""
    module, _ = _c_kernel
    return [_wedge_py] + ([module] if module is not None else [])
