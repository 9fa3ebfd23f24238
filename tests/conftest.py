import os
import shutil

# tamperscan before numpy, so the suite's BLAS runs the one thread the CLI's does
from tamperscan import CountyKey, Dataset, _kernels

import numpy as np
import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "kernel_loader: tests of _kernels.library() itself (its build, its cache, no compiler), "
        "which a library forced by TAMPERSCAN_TEST_KERNEL would defeat",
    )


@pytest.fixture(scope="session", autouse=True)
def _kernel_cache(tmp_path_factory):
    """Build the compiled kernels under the session's temporary directory, not
    the user's cache; CLI subprocesses inherit the same directory.

    With TAMPERSCAN_TEST_KERNEL naming a shared library built from
    `_kernels.c` (with sanitizers, say), every in-process call loads that
    one, through `_kernels._load`, in place of `library()`. Run with
    `-m "not kernel_loader"` then: those tests need the real loader."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        forced = os.environ.get("TAMPERSCAN_TEST_KERNEL")
        if forced:
            lib = _kernels._load(forced)
            mp.setattr(_kernels, "library", lambda: lib)
        yield


@pytest.fixture
def empty_kernel_cache(monkeypatch, tmp_path):
    """An empty kernel cache, with no kernel library loaded yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernels.library.cache_clear()
    yield tmp_path / "tamperscan"
    _kernels.library.cache_clear()


@pytest.fixture
def kernels():
    """The compiled kernel library; skips the test where it does not build."""
    lib = _kernels.library()
    if lib is None:
        pytest.skip("the compiled kernels did not build here")
    return lib


@pytest.fixture(params=["compiled", "python"])
def kernel_path(request, monkeypatch):
    """Runs a test with the compiled kernels (where they build) and again
    with `_kernels.library()` None, so only the Python references run."""
    if request.param == "python":
        monkeypatch.setattr(_kernels, "library", lambda: None)
    return request.param


def have_compiler():
    return shutil.which(_kernels.compiler()[0]) is not None


def make_dataset(counties, feature_names=("f_a", "f_b"), target_year=2020):
    """Hand-built dataset from (fips, state, name, features, (rep, dem)) rows."""
    fips, states, names, X, tallies = zip(*counties)
    rep, dem = zip(*tallies)
    return Dataset.build(
        keys=[CountyKey(*key) for key in zip(fips, states, names)],
        feature_names=feature_names,
        X=np.array(X, dtype=float),
        rep=rep,
        dem=dem,
        target_year=target_year,
    )


@pytest.fixture
def six_county_dataset():
    """Two states, three counties each, simple integer 2020 tallies; the
    2016 election enters as the share_2016 feature."""
    rows = [
        ("13001", "GA", "Appling", [1.0, 10.0, 0.6], (600, 400)),
        ("13003", "GA", "Atkinson", [2.0, 20.0, 0.5], (250, 250)),
        ("13005", "GA", "Bacon", [3.0, 15.0, 0.8], (700, 300)),
        ("42001", "PA", "Adams", [4.0, 30.0, 0.3], (2000, 3000)),
        ("42003", "PA", "Allegheny", [5.0, 25.0, 0.45], (4000, 6000)),
        ("42005", "PA", "Armstrong", [6.0, 35.0, 0.6], (5500, 4500)),
    ]
    return make_dataset(rows, feature_names=("f_a", "f_b", "share_2016"))


def counting(monkeypatch, module, name):
    """Replace module.name with a wrapper; returns the list of its call args."""
    calls = []
    real = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def replayed_objectives(Xs, y, penalty, sweeps, tol=1e-5):
    """The solver's penalized loss at its start and after each of its first
    `sweeps` sweeps (extrapolation included), and the extrapolations it
    accepted over them.

    The descent is deterministic, so rerunning it from the same start with
    max_iter = k replays the production trajectory up to sweep k. The replay
    stops early at the sweep where the solver converges.
    """
    from tamperscan.elastic_net import _bind_descent, _gram, objective

    def loss(beta):
        return objective(Xs, y, beta, float(np.mean(y - Xs @ beta)), penalty)

    G, c = _gram(Xs, y)
    losses, extrapolations = [loss(np.zeros(Xs.shape[1]))], 0
    for k in range(1, sweeps + 1):
        beta, q = np.zeros(Xs.shape[1]), np.zeros(Xs.shape[1])
        _, converged, extrapolations = _bind_descent(G, c, beta, q, tol, k)(penalty)
        losses.append(loss(beta))
        if converged:
            break
    return losses, extrapolations


def assert_monotone(losses, rel=1e-12):
    """No loss rises above the one before it by more than `rel` relative."""
    for k, (before, after) in enumerate(zip(losses, losses[1:]), start=1):
        assert after <= before + rel * max(1.0, abs(before)), (k, before, after)
