import numpy as np
import pytest

from tamperscan import CountyKey, Dataset


@pytest.fixture(scope="session", autouse=True)
def _sweep_cache(tmp_path_factory):
    """Build the compiled sweep under the session's temporary directory, not
    the user's cache; CLI subprocesses inherit the same directory."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("cache")))
        yield


def make_dataset(
    counties,
    feature_names=("f_a", "f_b"),
    years=(2016, 2020),
    target_year=2020,
):
    """Hand-built dataset from (fips, state, name, features, {year: (rep, dem)}) rows."""
    keys = []
    X = []
    rep = {y: [] for y in years}
    dem = {y: [] for y in years}
    for fips, state, name, feats, tallies in counties:
        keys.append(CountyKey(fips=fips, state=state, name=name))
        X.append(feats)
        for y in years:
            r, d = tallies[y]
            rep[y].append(r)
            dem[y].append(d)
    return Dataset.build(
        keys=keys,
        feature_names=feature_names,
        X=np.array(X, dtype=float),
        rep=rep,
        dem=dem,
        target_year=target_year,
    )


@pytest.fixture
def six_county_dataset():
    """Two states, three counties each, two years, simple integer tallies."""
    rows = [
        ("13001", "GA", "Appling", [1.0, 10.0], {2016: (300, 200), 2020: (600, 400)}),
        ("13003", "GA", "Atkinson", [2.0, 20.0], {2016: (100, 100), 2020: (250, 250)}),
        ("13005", "GA", "Bacon", [3.0, 15.0], {2016: (400, 100), 2020: (700, 300)}),
        ("42001", "PA", "Adams", [4.0, 30.0], {2016: (150, 350), 2020: (2000, 3000)}),
        ("42003", "PA", "Allegheny", [5.0, 25.0], {2016: (90, 110), 2020: (4000, 6000)}),
        ("42005", "PA", "Armstrong", [6.0, 35.0], {2016: (120, 80), 2020: (5500, 4500)}),
    ]
    return make_dataset(rows)


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

    _descend is deterministic, so rerunning it from the same start with
    max_iter = k replays the production trajectory up to sweep k. The replay
    stops early at the sweep where the solver converges.
    """
    from tamperscan.elastic_net import _descend, _gram, objective

    def loss(beta):
        return objective(Xs, y, beta, float(np.mean(y - Xs @ beta)), penalty)

    G, c = _gram(Xs, y)
    losses, extrapolations = [loss(np.zeros(Xs.shape[1]))], 0
    for k in range(1, sweeps + 1):
        beta = np.zeros(Xs.shape[1])
        _, converged, extrapolations = _descend(G, c, penalty, tol, k, beta)
        losses.append(loss(beta))
        if converged:
            break
    return losses, extrapolations


def assert_monotone(losses, rel=1e-12):
    """No loss rises above the one before it by more than `rel` relative."""
    for k, (before, after) in enumerate(zip(losses, losses[1:]), start=1):
        assert after <= before + rel * max(1.0, abs(before)), (k, before, after)
