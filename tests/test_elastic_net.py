import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from tamperscan import (
    ConfigError,
    ConvergenceWarning,
    DataError,
    PenaltyConfig,
    alpha_path,
    cross_validate,
    fit,
    objective,
    predict,
    standardize,
)
from tamperscan import _kernels, elastic_net
from tamperscan.data_model import substream
from tamperscan.elastic_net import (
    _extrapolate_py,
    cv_result_from_dict,
    cv_result_to_dict,
    model_from_dict,
    model_to_dict,
)

from conftest import assert_monotone, counting, have_compiler, replayed_objectives


def _standardized(X, names=None):
    names = names or [f"c{j}" for j in range(X.shape[1])]
    return standardize(X, names)


def _random_problem(seed, n=80, p=6, noise=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) @ (np.eye(p) + 0.3 * rng.normal(size=(p, p)))
    beta = rng.normal(size=p)
    y = 1.5 + X @ beta + noise * rng.normal(size=n)
    return X, y


def _collinear_problem(seed, n=120, p=30, factors=3):
    # every column a noisy mix of three factors, where extrapolation pays
    rng = np.random.default_rng(seed)
    F = rng.normal(size=(n, factors))
    X = F @ rng.normal(size=(factors, p)) + 0.05 * rng.normal(size=(n, p))
    y = 0.5 + F @ rng.normal(size=factors) + 0.1 * rng.normal(size=n)
    return X, y


def _residual_form_descend(Xs, y, penalty, tol, max_iter, beta):
    """Reference solver: plain residual-form coordinate descent, one O(n) pass
    per coordinate and no extrapolation. Same cyclic order and stop rule as
    the covariance kernel."""
    n, p = Xs.shape
    col_sq = np.einsum("ij,ij->j", Xs, Xs) / n
    denom = col_sq + penalty.alpha * (1.0 - penalty.l1_ratio)
    gamma = penalty.alpha * penalty.l1_ratio
    for sweep in range(max_iter):
        fitted = Xs @ beta
        r = y - float(np.mean(y - fitted)) - fitted
        max_delta = 0.0
        for j in range(p):
            if denom[j] == 0.0:
                continue
            xj = Xs[:, j]
            rho = (xj @ r) / n + col_sq[j] * beta[j]
            bj = np.sign(rho) * max(abs(rho) - gamma, 0.0) / denom[j]
            d = bj - beta[j]
            if d != 0.0:
                r -= d * xj
                beta[j] = bj
                max_delta = max(max_delta, abs(d))
        if max_delta < tol:
            return sweep + 1, True
    return max_iter, False


class TestOlsLimit:
    def test_exact_line(self):
        # y = 2x + 1 on x = 1,2,3; standardized slope is 2 * SD(x) = 2 sqrt(2/3)
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([3.0, 5.0, 7.0])
        Xs, params = _standardized(X)
        model = fit(Xs, y, PenaltyConfig(alpha=0.0, l1_ratio=1.0), params, tol=1e-12)
        assert model.intercept == pytest.approx(5.0, abs=1e-10)
        assert model.coefficients[0] == pytest.approx(2.0 * np.sqrt(2.0 / 3.0), rel=1e-10)

    def test_matches_least_squares(self):
        X, y = _random_problem(17, n=60, p=5)
        Xs, params = _standardized(X)
        model = fit(
            Xs, y, PenaltyConfig(alpha=0.0, l1_ratio=1.0), params,
            tol=1e-12, max_iter=100_000,
        )
        design = np.column_stack([np.ones(len(y)), Xs])
        direct, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert model.intercept == pytest.approx(direct[0], rel=1e-8)
        assert np.allclose(model.coefficients, direct[1:], rtol=1e-7, atol=1e-9)


class TestOneFeatureClosedForm:
    def test_partial_shrinkage(self):
        # rho = 0.5, alpha = 0.2, l1 = 0.5:  beta = (0.5 - 0.1) / 1.1 = 4/11
        X = np.array([[1.0], [2.0], [3.0]])
        Xs, params = _standardized(X)
        y = 2.0 + 0.5 * Xs[:, 0]
        penalty = PenaltyConfig(alpha=0.2, l1_ratio=0.5)
        model = fit(Xs, y, penalty, params, tol=1e-14)
        assert model.coefficients[0] == pytest.approx(0.4 / 1.1, rel=1e-12)
        assert model.intercept == pytest.approx(2.0, abs=1e-12)

    def test_agrees_with_brute_force_scan(self):
        X = np.array([[1.0], [2.0], [3.0]])
        Xs, params = _standardized(X)
        y = 2.0 + 0.5 * Xs[:, 0]
        penalty = PenaltyConfig(alpha=0.2, l1_ratio=0.5)
        model = fit(Xs, y, penalty, params, tol=1e-14)
        grid = np.arange(0.30, 0.42, 1e-5)
        objs = [
            objective(Xs, y, np.array([b]), float(np.mean(y - Xs[:, 0] * b)), penalty)
            for b in grid
        ]
        best = grid[int(np.argmin(objs))]
        assert model.coefficients[0] == pytest.approx(best, abs=2e-5)

    def test_full_shrinkage_to_zero(self):
        X = np.array([[1.0], [2.0], [3.0]])
        Xs, params = _standardized(X)
        y = 2.0 + 0.5 * Xs[:, 0]
        model = fit(Xs, y, PenaltyConfig(alpha=0.6, l1_ratio=1.0), params, tol=1e-14)
        assert model.coefficients[0] == 0.0
        assert model.nonzero_count == 0


class TestRidgeLimit:
    def test_matches_penalized_normal_equations(self):
        # l1_ratio = 0: solution of (X'X/n + alpha I) beta = X'(y - ybar)/n
        X, y = _random_problem(23, n=70, p=6)
        Xs, params = _standardized(X)
        alpha = 0.37
        model = fit(
            Xs, y, PenaltyConfig(alpha=alpha, l1_ratio=0.0), params,
            tol=1e-13, max_iter=200_000,
        )
        n, p = Xs.shape
        G = Xs.T @ Xs / n + alpha * np.eye(p)
        c = Xs.T @ (y - y.mean()) / n
        direct = np.linalg.solve(G, c)
        assert np.allclose(model.coefficients, direct, rtol=1e-8, atol=1e-10)


class TestKktConditions:
    @pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_stationarity_at_solution(self, seed, l1_ratio):
        X, y = _random_problem(seed, n=90, p=8, noise=0.5)
        Xs, params = _standardized(X)
        alpha = 0.05
        penalty = PenaltyConfig(alpha=alpha, l1_ratio=l1_ratio)
        model = fit(Xs, y, penalty, params, tol=1e-12, max_iter=200_000)
        beta = model.coefficients
        r = y - model.intercept - Xs @ beta
        grad = Xs.T @ r / len(y) - alpha * (1.0 - l1_ratio) * beta
        lam = alpha * l1_ratio
        for j in range(len(beta)):
            if beta[j] != 0.0:
                assert grad[j] == pytest.approx(lam * np.sign(beta[j]), abs=1e-9)
            else:
                assert abs(grad[j]) <= lam + 1e-9


class TestObjective:
    def test_monotone_under_check(self):
        # the production trajectory, replayed sweep by sweep up to convergence
        for seed in (5, 6, 7):
            X, y = _random_problem(seed, n=50, p=10, noise=1.0)
            Xs, params = _standardized(X)
            penalty = PenaltyConfig(alpha=0.02, l1_ratio=0.7)
            losses, _ = replayed_objectives(Xs, y, penalty, 50_000, tol=1e-11)
            assert_monotone(losses)
            model = fit(Xs, y, penalty, params, tol=1e-11, max_iter=50_000)
            assert len(losses) == model.training_meta["iterations"] + 1
            assert losses[-1] == model.training_meta["objective"]

    def test_check_holds_through_accepted_extrapolations(self):
        X, y = _collinear_problem(0)
        Xs, params = _standardized(X)
        penalty = PenaltyConfig(alpha=0.001, l1_ratio=0.5)
        model = fit(Xs, y, penalty, params, tol=1e-9, max_iter=100_000)
        assert model.training_meta["converged"]
        losses, extrapolations = replayed_objectives(Xs, y, penalty, 150, tol=1e-9)
        assert_monotone(losses)
        assert extrapolations >= 4

    def test_training_meta_records_final_objective(self):
        X, y = _random_problem(8)
        Xs, params = _standardized(X)
        penalty = PenaltyConfig(alpha=0.1, l1_ratio=1.0)
        model = fit(Xs, y, penalty, params)
        direct = objective(Xs, y, model.coefficients, model.intercept, penalty)
        assert model.training_meta["objective"] == direct


class TestAlphaPath:
    def test_geometric_endpoints(self):
        X, y = _random_problem(11)
        Xs, _ = _standardized(X)
        alphas = alpha_path(Xs, y, l1_ratio=1.0, n_alphas=30, eps=1e-3)
        assert len(alphas) == 30
        assert alphas[0] > alphas[-1]
        assert alphas[-1] == pytest.approx(1e-3 * alphas[0], rel=1e-12)
        ratios = alphas[:-1] / alphas[1:]
        assert np.allclose(ratios, ratios[0], rtol=1e-9)

    def test_first_alpha_kills_every_coefficient(self):
        X, y = _random_problem(12)
        Xs, params = _standardized(X)
        alphas = alpha_path(Xs, y, l1_ratio=1.0, n_alphas=10, eps=1e-2)
        model = fit(Xs, y, PenaltyConfig(alpha=float(alphas[0]), l1_ratio=1.0), params, tol=1e-12)
        # exact zero in exact arithmetic; float reductions can leave a few ULP
        assert np.max(np.abs(model.coefficients)) <= 1e-12

    def test_threshold_is_sharp(self):
        X, y = _random_problem(12)
        Xs, params = _standardized(X)
        a_max = float(alpha_path(Xs, y, l1_ratio=1.0, n_alphas=5, eps=1e-2)[0])
        above = fit(Xs, y, PenaltyConfig(alpha=1.0001 * a_max, l1_ratio=1.0), params, tol=1e-12)
        below = fit(Xs, y, PenaltyConfig(alpha=0.9 * a_max, l1_ratio=1.0), params, tol=1e-12)
        assert above.nonzero_count == 0
        assert below.nonzero_count > 0

    def test_matches_direct_formula(self):
        X, y = _random_problem(14)
        Xs, _ = _standardized(X)
        n = len(y)
        l1 = 0.5
        a_max = float(alpha_path(Xs, y, l1_ratio=l1, n_alphas=3, eps=0.1)[0])
        direct = float(np.max(np.abs(Xs.T @ (y - y.mean())))) / (n * l1)
        assert a_max == pytest.approx(direct, rel=1e-12)

    def test_rejects_pure_ridge(self):
        X, y = _random_problem(15)
        Xs, _ = _standardized(X)
        with pytest.raises(ConfigError):
            alpha_path(Xs, y, l1_ratio=0.0)


class TestNonFiniteInputsFailLoudly:
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -1.0])
    def test_penalty_needs_a_finite_alpha_at_least_0(self, alpha):
        with pytest.raises(ConfigError, match="alpha must be a finite number at least 0"):
            PenaltyConfig(alpha=alpha, l1_ratio=0.5)

    @pytest.mark.parametrize(
        "warm", [[float("nan")] * 6, [0.0] * 5 + [float("inf")], [0.0] * 5, [[0.0] * 6]],
        ids=["nan", "inf", "short", "2-D"],
    )
    def test_warm_start_must_be_p_finite_values(self, warm):
        X, y = _random_problem(19)
        Xs, params = _standardized(X)
        with pytest.raises(DataError, match="warm_start must be 6 finite values"):
            fit(Xs, y, PenaltyConfig(alpha=0.03, l1_ratio=0.9), params, warm_start=warm)

    @pytest.mark.parametrize(
        "alphas", [[], [float("nan")], [0.1, float("inf")], [0.1, 0.0], [-0.1], [[0.1, 0.01]]],
        ids=["empty", "nan", "inf", "zero", "negative", "2-D"],
    )
    def test_explicit_alphas_must_be_finite_and_above_0(self, alphas):
        X, y = _random_problem(19)
        with pytest.raises(ConfigError, match="alphas must be a non-empty list"):
            cross_validate(X, y, l1_grid=(1.0,), alphas=np.array(alphas))


class TestWarmStart:
    def test_same_solution_as_cold_start(self):
        X, y = _random_problem(19)
        Xs, params = _standardized(X)
        penalty = PenaltyConfig(alpha=0.03, l1_ratio=0.9)
        cold = fit(Xs, y, penalty, params, tol=1e-12)
        # warm start from a neighbouring penalty's solution
        neighbour = fit(Xs, y, PenaltyConfig(alpha=0.05, l1_ratio=0.9), params, tol=1e-12)
        warm = fit(Xs, y, penalty, params, tol=1e-12, warm_start=neighbour.coefficients)
        assert np.allclose(cold.coefficients, warm.coefficients, atol=1e-9)
        assert cold.intercept == pytest.approx(warm.intercept, abs=1e-10)


class TestConvergenceWarning:
    def test_emitted_when_budget_exhausted(self):
        X, y = _random_problem(21, n=40, p=12)
        Xs, params = _standardized(X)
        with pytest.warns(ConvergenceWarning):
            model = fit(Xs, y, PenaltyConfig(alpha=1e-6, l1_ratio=0.5), params,
                        tol=1e-14, max_iter=2)
        assert model.training_meta["converged"] is False


class TestKernelMatchesResidualForm:
    """With extrapolation switched off, the covariance-form sweep, which adds
    a full row of G to q = G.beta per move, is the plain cyclic update: same
    sweep count and coefficients as the residual-form reference, along cold
    and warm-started paths."""

    @pytest.mark.parametrize("l1_ratio", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_same_sweeps_and_coefficients(self, l1_ratio, warm, monkeypatch):
        # a window that never fills: no extrapolation is ever tried
        monkeypatch.setattr(elastic_net, "_ANDERSON_K", 10**9)
        X, y = _random_problem(45, n=90, p=10, noise=0.5)
        Xs, params = _standardized(X)
        ref = np.zeros(Xs.shape[1])
        coefs = None
        for alpha in np.geomspace(0.5, 0.002, 8):
            penalty = PenaltyConfig(alpha=float(alpha), l1_ratio=l1_ratio)
            if not warm:
                ref = np.zeros(Xs.shape[1])
                coefs = None
            sweeps, converged = _residual_form_descend(Xs, y, penalty, 1e-9, 10_000, ref)
            model = fit(Xs, y, penalty, params, tol=1e-9, warm_start=coefs)
            coefs = model.coefficients
            assert converged and model.training_meta["converged"]
            assert model.training_meta["extrapolations"] == 0
            assert model.training_meta["iterations"] == sweeps
            assert np.max(np.abs(coefs - ref)) <= 1e-12
            assert model.intercept == pytest.approx(float(np.mean(y - Xs @ ref)), abs=1e-12)


def _traced_descents(monkeypatch, G, c, paths, tol=1e-9, max_iter=100_000):
    """beta, q and the counts after every path point of `paths` (lists of
    penalties, each path started cold), plus the Python reference's window
    outcomes when it is the one that runs: (skipped, tried) extrapolations
    and the q remade after an accepted one."""
    extrapolate = elastic_net._extrapolate_py
    windows = []
    set_q = counting(monkeypatch, elastic_net, "_set_q")

    def traced(*args):
        step = extrapolate(*args)
        windows.append(step is None)
        return step

    monkeypatch.setattr(elastic_net, "_extrapolate_py", traced)
    p = c.shape[0]
    trace = []
    for path in paths:
        beta, q = np.zeros(p), np.zeros(p)
        descend = elastic_net._bind_descent(G, c, beta, q, tol, max_iter)
        for penalty in path:
            trace.append((descend(penalty), beta.tobytes(), q.tobytes()))
    remade = len(set_q) - sum(map(len, paths)) if set_q else 0
    return trace, (sum(windows), len(windows), remade)


class TestCompiledDescent:
    """The C descent against its Python reference, its build cache and its
    fallback."""

    @pytest.mark.parametrize("l1_ratio", [1.0, 0.5, 0.1])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_bit_identical_to_python_after_every_path_point(self, kernels, monkeypatch, l1_ratio, warm):
        X, y = _collinear_problem(0)
        Xs, _ = _standardized(X)
        G, c = elastic_net._gram(Xs, y)
        penalties = [PenaltyConfig(alpha=float(a), l1_ratio=l1_ratio) for a in np.geomspace(0.05, 0.0005, 4)]
        paths = [penalties] if warm else [[penalty] for penalty in penalties]
        compiled, _ = _traced_descents(monkeypatch, G, c, paths)
        monkeypatch.setattr(_kernels, "library", lambda: None)
        python, (skipped, tried, remade) = _traced_descents(monkeypatch, G, c, paths)
        assert compiled == python
        accepted = sum(counts[2] for counts, _, _ in python)
        assert all(counts[1] for counts, _, _ in python)
        # windows accepted, and rejected for not lowering the objective
        assert 0 < accepted < tried - skipped
        # accepted steps that keep the combined q, and ones that remake it
        assert 0 < remade < accepted

    def test_singular_window_is_skipped_alike(self, kernels, monkeypatch):
        # two coordinates with G_01 = 1/2 and dyadic data: every iterate is
        # exact, each sweep shrinks the last step by 4 exactly, so U U' has
        # rank one in floating point too, and the elimination meets a zero pivot
        G = np.array([[1.0, 0.5], [0.5, 1.0]])
        c = np.array([1.0, 0.0])
        paths = [[PenaltyConfig(alpha=0.0, l1_ratio=1.0)]]
        compiled, _ = _traced_descents(monkeypatch, G, c, paths)
        monkeypatch.setattr(_kernels, "library", lambda: None)
        python, (skipped, tried, _) = _traced_descents(monkeypatch, G, c, paths)
        assert compiled == python
        [((sweeps, converged, accepted), beta, _)] = python
        assert converged and sweeps > elastic_net._ANDERSON_K
        assert skipped == tried > 0 and accepted == 0
        assert np.allclose(np.frombuffer(beta), [4.0 / 3.0, -2.0 / 3.0], atol=1e-9)

    @pytest.mark.parametrize("bad", ["short_vector", "strided_G", "float32", "read_only_beta"])
    def test_bind_checks_every_array_before_any_call(self, monkeypatch, bad):
        calls = []

        class Fake:
            descend_work = staticmethod(lambda p, window: 1)
            descend = staticmethod(lambda *args: calls.append(args) or 1)

        monkeypatch.setattr(_kernels, "library", lambda: Fake)
        p = 4
        arrays = {"G": np.eye(p), "c": np.ones(p), "beta": np.zeros(p), "q": np.zeros(p)}
        elastic_net._bind_descent(**arrays, tol=1e-5, max_iter=10)(PenaltyConfig(0.5, 1.0))
        assert len(calls) == 1  # the unaltered arrays bind and call through
        if bad == "short_vector":
            arrays["q"] = np.ones(p - 1)
        elif bad == "strided_G":
            arrays["G"] = np.eye(2 * p)[::2, ::2]
        elif bad == "float32":
            arrays["c"] = arrays["c"].astype(np.float32)
        else:
            arrays["beta"].flags.writeable = False
        with pytest.raises(ValueError, match="descend: "):
            elastic_net._bind_descent(**arrays, tol=1e-5, max_iter=10)
        assert len(calls) == 1

    def test_fit_and_cv_bit_equal_without_a_compiler(self, empty_kernel_cache, monkeypatch):
        X, y = _collinear_problem(1)
        Xs, params = _standardized(X)

        def run():
            model = fit(Xs, y, PenaltyConfig(alpha=0.001, l1_ratio=0.5), params, tol=1e-9)
            return model, cross_validate(X, y, l1_grid=(0.5, 1.0), k=3, n_alphas=5)

        real_compiler = _kernels.compiler
        monkeypatch.setattr(_kernels, "compiler", lambda: ["tamperscan-no-such-cc"])
        py_model, py_cv = run()
        assert py_model.training_meta["sweep"] == "python"
        assert list(empty_kernel_cache.iterdir()) == []  # no temporary file left behind

        monkeypatch.setattr(_kernels, "compiler", real_compiler)
        _kernels.library.cache_clear()
        model, cv = run()
        expected = "compiled" if have_compiler() else "python"
        assert model.training_meta["sweep"] == expected
        assert model.coefficients.tobytes() == py_model.coefficients.tobytes()
        assert model.intercept == py_model.intercept
        assert {**model.training_meta, "sweep": "python"} == py_model.training_meta
        assert cv == py_cv

    def test_cache_is_reused_and_a_truncated_file_rebuilt(self, empty_kernel_cache, monkeypatch):
        if not have_compiler():
            pytest.skip("no C compiler on PATH")
        builds = counting(monkeypatch, _kernels, "compiler")
        assert _kernels.library() is not None
        [built] = empty_kernel_cache.iterdir()
        _kernels.library.cache_clear()
        assert _kernels.library() is not None
        assert len(builds) == 1

        # the first kilobyte of a good build under its name, in a second
        # cache: a file this process never loaded, so rewriting it is safe
        other = empty_kernel_cache.parent / "other"
        monkeypatch.setenv("XDG_CACHE_HOME", str(other))
        truncated = other / "tamperscan" / built.name
        truncated.parent.mkdir(parents=True)
        truncated.write_bytes(built.read_bytes()[:1024])
        _kernels.library.cache_clear()
        assert _kernels.library() is not None
        assert len(builds) == 2
        assert truncated.read_bytes() == built.read_bytes()

    def test_a_build_prunes_month_old_libraries_and_a_load_nothing(self, empty_kernel_cache):
        if not have_compiler():
            pytest.skip("no C compiler on PATH")
        empty_kernel_cache.mkdir(parents=True)
        stale = [
            empty_kernel_cache / "_kernels-0123456789abcdef-0123456789abcdef.so",
            empty_kernel_cache / "_sweep-0be965a73e490263-0123456789abcdef.cpython-311-x86_64-linux-gnu.so",
        ]
        survivors = [
            empty_kernel_cache / "_kernels-fedcba9876543210-fedcba9876543210.so",  # fresh
            empty_kernel_cache / "notes.txt",  # old, but not a kernel library
        ]
        month_ago = time.time() - 31 * 24 * 3600
        for path in stale + survivors:
            path.write_bytes(b"not a library")
        for path in [*stale, survivors[1]]:
            os.utime(path, (month_ago, month_ago))

        assert _kernels.library() is not None  # builds
        built = [p for p in empty_kernel_cache.glob("_kernels-*.so") if p not in survivors]
        assert len(built) == 1
        assert sorted(empty_kernel_cache.iterdir()) == sorted([*built, *survivors])

        # a load of the cached library deletes nothing, however old
        os.utime(survivors[0], (month_ago, month_ago))
        _kernels.library.cache_clear()
        assert _kernels.library() is not None
        assert sorted(empty_kernel_cache.iterdir()) == sorted([*built, *survivors])

    def test_loads_where_a_compiler_is_on_path(self):
        # a broken _kernels.c fails here instead of silently running Python
        if not have_compiler():
            pytest.skip("no C compiler on PATH")
        assert _kernels.library() is not None


class TestKernelCertifiedOracle:
    """The extrapolated kernel's solution against a duality-gap certificate
    and the residual-form reference, along cold and warm-started paths."""

    @staticmethod
    def _dual_gap(Xs, y, beta, penalty):
        # n-scaled primal against an independent dual point: the residual for
        # l2 > 0, where the dual is smooth; the box-scaled residual for a lasso
        n = y.shape[0]
        lam1 = n * penalty.alpha * penalty.l1_ratio
        lam2 = n * penalty.alpha * (1.0 - penalty.l1_ratio)
        yc = y - y.mean()
        r = yc - Xs @ beta
        v = Xs.T @ r
        primal = 0.5 * r @ r + lam1 * np.abs(beta).sum() + 0.5 * lam2 * beta @ beta
        if lam2 > 0:
            dual = yc @ r - 0.5 * r @ r - (np.clip(np.abs(v) - lam1, 0.0, None) ** 2).sum() / (2 * lam2)
        else:
            theta = r * min(1.0, lam1 / np.max(np.abs(v)))
            dual = yc @ theta - 0.5 * theta @ theta
        return (primal - dual) / primal

    @pytest.mark.parametrize("l1_ratio", [1.0, 0.5, 0.0])
    @pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
    def test_gap_certified_and_matches_residual_form(self, l1_ratio, warm):
        X, y = _random_problem(45, n=90, p=10, noise=0.5)
        Xs, params = _standardized(X)
        ref = np.zeros(Xs.shape[1])
        coefs = None
        for alpha in np.geomspace(0.5, 0.002, 8):
            penalty = PenaltyConfig(alpha=float(alpha), l1_ratio=l1_ratio)
            if not warm:
                ref = np.zeros(Xs.shape[1])
                coefs = None
            assert _residual_form_descend(Xs, y, penalty, 1e-12, 100_000, ref)[1]
            model = fit(Xs, y, penalty, params, tol=1e-12, max_iter=100_000, warm_start=coefs)
            coefs = model.coefficients
            assert model.training_meta["converged"]
            assert self._dual_gap(Xs, y, coefs, penalty) <= 1e-9
            assert model.training_meta["rel_gap"] <= 1e-9
            expected = objective(Xs, y, ref, float(np.mean(y - Xs @ ref)), penalty)
            assert model.training_meta["objective"] == pytest.approx(expected, rel=1e-12)


class TestExtrapolate:
    def test_beats_the_last_iterate_of_a_slow_linear_iteration(self):
        # x -> A x + b with three slow modes among fast ones, as coordinate
        # descent sees a few collinear directions; q = G x for a fixed G
        rng = np.random.default_rng(49)
        Q, _ = np.linalg.qr(rng.normal(size=(20, 20)))
        A = Q @ np.diag([0.9, 0.93, 0.95] + [0.05] * 17) @ Q.T
        b = rng.normal(size=20)
        G = np.eye(20) + 0.1 * np.ones((20, 20))
        fixed = np.linalg.solve(np.eye(20) - A, b)
        iterates = [np.zeros(20)]
        for _ in range(5):
            iterates.append(A @ iterates[-1] + b)
        iterates = np.array(iterates)
        candidate, gx, _ = _extrapolate_py(iterates, iterates[1:] @ G.T)
        last_error = np.linalg.norm(iterates[-1] - fixed)
        assert np.linalg.norm(candidate - fixed) < 0.01 * last_error
        assert np.allclose(gx, G @ candidate, rtol=0.0, atol=1e-10)

    def test_stalled_iterates_give_no_candidate(self):
        assert _extrapolate_py(np.ones((6, 4)), np.ones((5, 4))) is None

    def test_solve_matches_lapack(self):
        rng = np.random.default_rng(50)
        U = rng.normal(size=(5, 30))
        M = U @ U.T
        z = elastic_net._solve_ones(M.tolist())
        assert np.allclose(z, np.linalg.solve(M, np.ones(5)), rtol=1e-10)
        assert elastic_net._solve_ones([[1.0, 2.0], [2.0, 4.0]]) is None
        assert elastic_net._solve_ones([[float("nan"), 1.0], [1.0, 1.0]]) is None


class TestRelativeGap:
    @staticmethod
    def _augmented_lasso_gap(Xs, y, beta, penalty):
        # elastic net as a lasso on [Xs; sqrt(n*l2) I], scaled by n; the
        # dual point is the augmented residual shrunk into the feasible box
        n, p = Xs.shape
        lam1 = n * penalty.alpha * penalty.l1_ratio
        lam2 = n * penalty.alpha * (1.0 - penalty.l1_ratio)
        Xa = np.vstack([Xs, np.sqrt(lam2) * np.eye(p)])
        ya = np.concatenate([y - y.mean(), np.zeros(p)])
        ra = ya - Xa @ beta
        theta = ra * min(1.0, lam1 / np.max(np.abs(Xa.T @ ra)))
        primal = 0.5 * ra @ ra + lam1 * np.abs(beta).sum()
        dual = 0.5 * ya @ ya - 0.5 * (ya - theta) @ (ya - theta)
        return (primal - dual) / primal

    @pytest.mark.parametrize("l1_ratio", [1.0, 0.5])
    def test_matches_augmented_lasso_dual(self, l1_ratio):
        X, y = _random_problem(47, n=90, p=8, noise=0.5)
        Xs, params = _standardized(X)
        penalty = PenaltyConfig(alpha=0.05, l1_ratio=l1_ratio)
        model = fit(Xs, y, penalty, params, tol=1e-2)
        expected = self._augmented_lasso_gap(Xs, y, model.coefficients, penalty)
        assert expected > 1e-6
        assert model.training_meta["rel_gap"] == pytest.approx(expected, rel=1e-8)

    def test_small_at_tight_tolerance(self):
        X, y = _random_problem(47, n=90, p=8, noise=0.5)
        Xs, params = _standardized(X)
        model = fit(
            Xs, y, PenaltyConfig(alpha=0.05, l1_ratio=0.5), params, tol=1e-12, max_iter=200_000
        )
        assert 0.0 <= model.training_meta["rel_gap"] <= 1e-8


class TestPermutationInvariance:
    def test_named_coefficients_survive_column_shuffle(self):
        X, y = _random_problem(25, n=100, p=7)
        names = [f"f{j}" for j in range(7)]
        Xs, params = standardize(X, names)
        penalty = PenaltyConfig(alpha=0.02, l1_ratio=0.8)
        base = fit(Xs, y, penalty, params, tol=1e-13, max_iter=100_000)
        by_name = dict(zip(params.names, base.coefficients))

        perm = [3, 0, 6, 2, 5, 1, 4]
        Xp = X[:, perm]
        names_p = [names[j] for j in perm]
        Xps, params_p = standardize(Xp, names_p)
        shuffled = fit(Xps, y, penalty, params_p, tol=1e-13, max_iter=100_000)
        by_name_p = dict(zip(params_p.names, shuffled.coefficients))

        # permuting columns permutes the sweep order, so agreement is at
        # solver accuracy, not bit level
        assert set(by_name) == set(by_name_p)
        for name in by_name:
            assert by_name_p[name] == pytest.approx(by_name[name], abs=1e-10)
        assert base.intercept == pytest.approx(shuffled.intercept, abs=1e-10)


class TestPredict:
    def test_round_trips_training_rows(self):
        X, y = _random_problem(27)
        names = [f"f{j}" for j in range(X.shape[1])]
        Xs, params = standardize(X, names)
        model = fit(Xs, y, PenaltyConfig(alpha=0.01, l1_ratio=1.0), params)
        preds = predict(model, X, names)
        direct = model.intercept + Xs @ model.coefficients
        assert np.allclose(preds, direct, atol=1e-12)

    def test_single_row(self):
        X, y = _random_problem(27)
        names = [f"f{j}" for j in range(X.shape[1])]
        Xs, params = standardize(X, names)
        model = fit(Xs, y, PenaltyConfig(alpha=0.01, l1_ratio=1.0), params)
        one = predict(model, X[0], names)
        assert np.isscalar(one) or np.ndim(one) == 0
        assert float(one) == pytest.approx(predict(model, X, names)[0])


class TestCrossValidate:
    def test_matches_independent_replay(self):
        # replay the exact fold protocol with plain loops and compare
        X, y = _random_problem(31, n=60, p=4, noise=0.3)
        l1_grid = (0.5, 1.0)
        alphas = np.geomspace(0.5, 0.005, 8)
        result = cross_validate(X, y, l1_grid=l1_grid, k=5, seed=2020, alphas=alphas)

        names = [f"c{j}" for j in range(X.shape[1])]
        order = substream(2020, 0).permutation(len(y))
        folds = np.array_split(order, 5)
        expected = {}
        for l1 in l1_grid:
            mses = np.zeros((5, len(alphas)))
            for fi, val_idx in enumerate(folds):
                # sorted training rows, as cross_validate takes them, so each
                # fold's G and c and the kernel's trajectory match bit for bit
                train_idx = np.setdiff1d(order, val_idx)
                Xs_tr, p_tr = standardize(X[train_idx], names)
                warm = None
                for ai, alpha in enumerate(alphas):
                    m = fit(
                        Xs_tr, y[train_idx],
                        PenaltyConfig(alpha=float(alpha), l1_ratio=l1),
                        p_tr, warm_start=warm,
                    )
                    warm = m.coefficients
                    pred = predict(m, X[val_idx], names)
                    mses[fi, ai] = float(np.mean((y[val_idx] - pred) ** 2))
            for ai, alpha in enumerate(alphas):
                expected[(l1, float(alpha))] = mses[:, ai].mean()

        assert len(result.grid) == len(expected)
        for point in result.grid:
            assert point.mean_mse == pytest.approx(
                expected[(point.l1_ratio, point.alpha)], rel=1e-12
            )
        best_key = min(expected, key=lambda k: (expected[k], -k[1], -k[0]))
        assert (result.selected.l1_ratio, result.selected.alpha) == (
            best_key[0], best_key[1],
        )

    def test_reports_unconverged_points_once(self):
        X, y = _random_problem(33, n=80, p=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            cross_validate(
                X, y, l1_grid=(0.3, 1.0), k=5, seed=2020, n_alphas=10, tol=1e-14, max_iter=2
            )
        found = [w for w in caught if issubclass(w.category, ConvergenceWarning)]
        assert len(found) == 1
        assert "of 100 CV (l1_ratio, fold, alpha) points hit max_iter=2" in str(found[0].message)

    def test_selection_prefers_sparser_on_ties(self):
        # constant target: every penalty gives identical MSE, so the largest
        # alpha (and then largest l1_ratio) must win
        rng = np.random.default_rng(35)
        X = rng.normal(size=(40, 3))
        y = np.full(40, 0.4)
        result = cross_validate(
            X, y, l1_grid=(0.5, 1.0), k=5, seed=2020,
            alphas=np.array([0.5, 0.1, 0.02]),
        )
        assert all(p.mean_mse == 0.0 for p in result.grid)
        assert result.selected.alpha == 0.5
        assert result.selected.l1_ratio == 1.0

    def test_rejects_bad_fold_count(self):
        X, y = _random_problem(37, n=10, p=2)
        with pytest.raises(ConfigError):
            cross_validate(X, y, k=1)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("eps", 0.0),
            ("eps", 1.5),
            ("eps", -0.1),
            ("tol", 0.0),
            ("tol", -1.0),
            ("tol", float("nan")),
            ("max_iter", 0),
            ("n_alphas", 0),
            ("l1_grid", ()),
            ("l1_grid", (0.0, 1.0)),
            ("l1_grid", (1.5,)),
            ("l1_grid", (float("nan"),)),
        ],
    )
    def test_rejects_out_of_range_settings(self, name, value):
        # the rule CvSettings applies, also when the library is called directly
        X, y = _random_problem(39, n=40, p=3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=name):
                cross_validate(X, y, **{"l1_grid": (1.0,), "n_alphas": 5, name: value})
            if name == "eps":
                with pytest.raises(ConfigError, match="eps"):
                    alpha_path(_standardized(X)[0], y, 1.0, n_alphas=5, eps=value)


    @pytest.mark.parametrize("k", range(2, 11))
    def test_training_rows_are_every_row_outside_the_fold_sorted(self, k, monkeypatch):
        X, y = _random_problem(37, n=53, p=2)
        seen = counting(monkeypatch, elastic_net, "_score_fold")
        cross_validate(X, y, l1_grid=(1.0,), k=k, n_alphas=2)
        perm = substream(2020, 0).permutation(len(y))
        folds = np.array_split(perm, k)
        assert len(seen) == k
        for (_, _, train_idx, val_idx, *_), fold in zip(seen, folds):
            assert np.array_equal(val_idx, fold)
            assert np.array_equal(train_idx, np.setdiff1d(perm, fold))

    def test_imports_no_numpy_ma(self):
        # np.setdiff1d's unique imports numpy.ma, 10-30 ms per process
        code = (
            "import sys, numpy as np; from tamperscan import cross_validate; "
            "rng = np.random.default_rng(0); X = rng.normal(size=(60, 4)); "
            "cross_validate(X, X[:, 0] + rng.normal(size=60), l1_grid=(1.0,), n_alphas=5); "
            "sys.exit('numpy.ma' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0

    def test_rejects_repeated_l1_ratio(self):
        X, y = _random_problem(39, n=40, p=3)
        with pytest.raises(ConfigError, match="^l1_grid repeats 1.0$"):
            cross_validate(X, y, l1_grid=(0.5, 1.0, 1.0), n_alphas=5)
        with pytest.raises(ConfigError, match="^l1_grid repeats 1.0$"):
            elastic_net.CvSettings(l1_grid=(1.0, 1.0))

    def test_peak_memory_is_a_few_design_copies(self):
        # a fold's arrays die before the next fold is built, and the full
        # standardized design only lives while the alpha grids are made
        # (a loose tol: tracemalloc slows the kernel's float arithmetic ~10x)
        X, y = _collinear_problem(43, n=1500, p=120)
        cross_validate(X[:60], y[:60], l1_grid=(1.0,), k=3, n_alphas=5)  # warm-up
        tracemalloc.start()
        try:
            cross_validate(X, y, l1_grid=(1.0,), k=3, n_alphas=5, tol=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * X.nbytes


class TestSerialization:
    def test_model_round_trip_is_exact(self, tmp_path):
        X, y = _random_problem(41)
        names = [f"f{j}" for j in range(X.shape[1])]
        Xs, params = standardize(X, names)
        model = fit(Xs, y, PenaltyConfig(alpha=0.015, l1_ratio=0.9), params)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_to_dict(model)))
        loaded = model_from_dict(json.loads(path.read_text()))
        assert np.array_equal(loaded.coefficients, model.coefficients)
        assert loaded.intercept == model.intercept
        assert loaded.standardization.names == model.standardization.names
        assert np.array_equal(loaded.standardization.mean, model.standardization.mean)
        assert np.array_equal(predict(loaded, X, names), predict(model, X, names))
        assert model.training_meta["extrapolations"] > 0
        built = _kernels.library() is not None
        assert model.training_meta["sweep"] == ("compiled" if built else "python")
        assert loaded.training_meta == model.training_meta

    def test_model_dict_rejects_wrong_format(self):
        X, y = _random_problem(41)
        Xs, params = _standardized(X)
        model = fit(Xs, y, PenaltyConfig(alpha=0.1, l1_ratio=1.0), params)
        doc = model_to_dict(model)
        doc["format"] = "something-else"
        from tamperscan import SchemaError
        with pytest.raises(SchemaError):
            model_from_dict(doc)

    def test_cv_result_round_trip(self):
        X, y = _random_problem(43, n=50, p=3)
        result = cross_validate(X, y, l1_grid=(1.0,), k=5, seed=2020, n_alphas=5)
        doc = cv_result_to_dict(result)
        back = cv_result_from_dict(doc)
        assert back.selected == result.selected
        assert back.grid == result.grid
        assert back.seed == result.seed
        assert back.folds == result.folds
