"""Elastic Net linear regression, written from scratch.

Minimizes

    L(beta, b0) = (1/2n) sum_i (y_i - b0 - x_i . beta)^2
                  + alpha * l1_ratio * ||beta||_1
                  + (alpha/2) * (1 - l1_ratio) * ||beta||_2^2

by cyclic coordinate descent with exact univariate updates. The intercept is
never penalized and the target is never standardized. Regularization paths
are geometric in alpha with warm starts, and model selection is 5-fold
cross-validation over an (l1_ratio, alpha) grid.

`fit` and `cross_validate` share one covariance-form kernel (Friedman, Hastie
& Tibshirani, J. Stat. Softw. 33(1), 2010): G = Xs'Xs/n and c = Xs'(y - ybar)/n
are formed once per fit or CV fold, so a coordinate update is scalar
arithmetic, and q = G.beta is kept by adding d G[j] to it whenever
coefficient j moves by d.

On collinear designs cyclic descent crawls, so every _ANDERSON_K sweeps the
kernel tries one Anderson extrapolation of its recent iterates (Bertrand &
Massias, "Anderson acceleration of coordinate descent", AISTATS 2021) and
keeps it only if it lowers the objective. The window keeps each iterate's
q, so a candidate's q is the same combination of them, and both objectives
are O(p): 1/2 beta.q - c.beta + gamma |beta|_1 + ridge/2 |beta|^2. The stop
rule is a full sweep that moves no coefficient by `tol` or more.

The whole descent of one path point (sweeps, window, the small solve,
objectives and stop rule) is one call of `descend` in C (`_kernels.c`,
compiled into the user's cache on first use, called through ctypes) or,
where that cannot be built or loaded, of `_descend_py`, which does the same
IEEE operations in the same order: every sum left to right, and the small
system solved by the same fixed elimination on both sides. No output
depends on which one ran, and `training_meta["sweep"]` records it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import _kernels
from .data_model import StandardizationParams, apply_standardization, standardize, substream
from .errors import ConfigError, ConvergenceWarning, DataError, NumericalError, SchemaError

DEFAULT_TOL = 1e-5
DEFAULT_MAX_ITER = 10_000
DEFAULT_N_ALPHAS = 100
DEFAULT_PATH_EPS = 1e-4
DEFAULT_L1_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.0)
CV_SEED = 2020

# Sweeps between Anderson extrapolation steps of the kernel.
_ANDERSON_K = 5
# An accepted Anderson step whose weights have sum(|w|) above this remakes q
# from beta (`_set_q`), as EXACT_Q_ABOVE in `_kernels.c` does.
_EXACT_Q_ABOVE = 1e3

MODEL_FORMAT = "tamperscan-model"
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CvSettings:
    """Everything cross_validate needs beyond the data itself.

    Construction applies the one range rule for each setting, so a manifest,
    `cross_validate` and `alpha_path` reject the same values.
    """

    l1_grid: tuple[float, ...] = DEFAULT_L1_GRID
    n_alphas: int = DEFAULT_N_ALPHAS
    eps: float = DEFAULT_PATH_EPS
    folds: int = 5
    seed: int = CV_SEED
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not self.l1_grid:
            raise ConfigError("l1_grid is empty")
        for i, l1 in enumerate(self.l1_grid):
            if not 0.0 < l1 <= 1.0:
                raise ConfigError(f"l1_grid values must be in (0, 1], got {l1}")
            if l1 in self.l1_grid[:i]:
                raise ConfigError(f"l1_grid repeats {l1!r}")
        if self.n_alphas < 1:
            raise ConfigError(f"n_alphas must be at least 1, got {self.n_alphas}")
        if self.folds < 2:
            raise ConfigError(f"folds must be at least 2, got {self.folds}")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError(f"eps must be in (0, 1), got {self.eps}")
        if not 0.0 < self.tol < math.inf:
            raise ConfigError(f"tol must be a finite number above 0, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class PenaltyConfig:
    """Overall strength `alpha` and l1/l2 mixing `l1_ratio` (1 = pure lasso)."""

    alpha: float
    l1_ratio: float

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise ConfigError(f"alpha must be a finite number at least 0, got {self.alpha}")
        if not 0.0 <= self.l1_ratio <= 1.0:
            raise ConfigError(f"l1_ratio must be in [0, 1], got {self.l1_ratio}")


@dataclass(frozen=True)
class FitModel:
    """A fitted model: coefficients over the retained features plus intercept.

    `standardization` records the training-set transform, so prediction on
    raw feature vectors reproduces exactly what the solver saw.
    """

    coefficients: np.ndarray
    intercept: float
    penalty: PenaltyConfig
    standardization: StandardizationParams
    training_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.coefficients.shape != (len(self.standardization.names),):
            raise DataError(
                f"{self.coefficients.shape[0]} coefficients for "
                f"{len(self.standardization.names)} retained features"
            )

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.coefficients))


@dataclass(frozen=True)
class CvPoint:
    l1_ratio: float
    alpha: float
    mean_mse: float
    fold_mses: tuple[float, ...]


@dataclass(frozen=True)
class CvResult:
    """Cross-validation grid with the selected penalty.

    `selected` minimizes mean validation MSE; exact ties break toward larger
    alpha, then larger l1_ratio. The shuffle seed and fold count are recorded
    so the split is reproducible.
    """

    grid: tuple[CvPoint, ...]
    selected: PenaltyConfig
    seed: int
    folds: int


def objective(Xs, y, beta, intercept, penalty: PenaltyConfig) -> float:
    """Penalized loss L at the given point."""
    r = y - intercept - Xs @ beta
    loss = 0.5 * float(r @ r) / y.shape[0]
    loss += penalty.alpha * penalty.l1_ratio * float(np.abs(beta).sum())
    loss += 0.5 * penalty.alpha * (1.0 - penalty.l1_ratio) * float(beta @ beta)
    return loss


def _gram(Xs, y):
    """Covariance-form statistics G = Xs'Xs/n and c = Xs'(y - mean(y))/n.

    Both are BLAS products on the calling thread, so their bits depend on
    the BLAS kernel for the CPU type but not on the CPU count, unless the
    caller set a BLAS thread count of their own or imported numpy before
    tamperscan.
    """
    n = y.shape[0]
    return Xs.T @ Xs / n, Xs.T @ (y - y.mean()) / n


def _bind_descent(G, c, beta, q, tol, max_iter):
    """The descent of one path point on these arrays, as a function of the
    penalty returning (sweeps, converged, extrapolations): the compiled
    `descend` of `_kernels.c` with its pointers bound once, or `_descend_py`
    where the kernel library cannot be built or loaded. Both update beta in
    place, set q to G.beta from it and keep it so, and give bit-identical
    results.

    The C code trusts its pointers, so every array must be float64 and
    C-contiguous, G p x p and the rest p long, and beta and q writable;
    anything else is a ValueError here. The pointers are read once, so the
    caller updates beta and q in place and never rebinds them. A window of
    _ANDERSON_K sweeps that max_iter cannot fill never extrapolates, and is
    passed as 0 (off).
    """
    arrays = {"G": G, "c": c, "beta": beta, "q": q}
    p = len(c)
    for name, a in arrays.items():
        shape = (p, p) if name == "G" else (p,)
        if a.dtype != np.float64 or a.shape != shape or not a.flags.c_contiguous:
            raise ValueError(f"descend: {name} must be a C-contiguous float64 array of shape {shape}")
    if not (beta.flags.writeable and q.flags.writeable):
        raise ValueError("descend: beta and q must be writable")
    window = _ANDERSON_K if _ANDERSON_K <= max_iter else 0
    lib = _kernels.library()
    if lib is None:
        def run(penalty):
            gamma, ridge = _penalty_terms(penalty)
            return _descend_py(G, c, beta, q, window, gamma, ridge, tol, max_iter)

        return run
    work = np.empty(lib.descend_work(p, window))
    counts = np.zeros(2, dtype=np.intp)
    pointers = [a.ctypes.data for a in (G, c, beta, q, work)]

    def run(penalty, arrays=(arrays, work, counts)):  # the default holds what the pointers point into
        gamma, ridge = _penalty_terms(penalty)
        converged = lib.descend(*pointers, p, window, gamma, ridge, tol, max_iter, counts.ctypes.data)
        return int(counts[0]), bool(converged), int(counts[1])

    return run


def _penalty_terms(penalty):
    """(gamma, ridge): the l1 and l2 weights alpha l1_ratio and alpha (1 - l1_ratio)."""
    return penalty.alpha * penalty.l1_ratio, penalty.alpha * (1.0 - penalty.l1_ratio)


def _descend_py(G, c, beta, q, window, gamma, ridge, tol, max_iter):
    """The reference for `descend` in `_kernels.c`: its IEEE operations in
    its order, so beta, q and both counts come out bit-identical.

    q starts as `_set_q` makes it, so a warm start depends on beta alone.
    Each sweep visits the coordinates in order: coordinate j's update
    soft-thresholds rho = c_j - q_j + G_jj beta_j by gamma and divides by
    denom_j = G_jj + ridge; a coordinate with denom_j 0 never moves, and one
    at zero whose |c_j - q_j| is within gamma is skipped. A move of d adds
    d G[j] to q, as a product rounded and then a sum rounded, the C code's
    order without contraction. The descent stops after a sweep that moves
    no coefficient by `tol` or more, or after `max_iter` sweeps.

    Every `window` sweeps (0: never), the last window + 1 iterates give an
    Anderson candidate (`_extrapolate_py`), whose q is the same combination
    of the iterates' q, so both objectives (`_objective_py`) cost O(Kp). The
    candidate replaces beta and q only if its objective is lower; where its
    weights are large, `_set_q` then remakes q from beta, free of the
    rounding they scale up. The window restarts either way. Extrapolation
    is not a sweep and never ends the descent.
    """
    diag = G.diagonal()
    coordinates = list(enumerate(zip(c.tolist(), diag.tolist(), (diag + ridge).tolist())))
    tmp = np.empty(c.shape[0])
    _set_q(G, beta, q, tmp)
    iterates, qs = [beta.copy()], []
    extrapolations = 0
    for sweeps in range(1, max_iter + 1):
        b = beta.tolist()
        max_delta = 0.0
        for j, (cj, gjj, dj) in coordinates:
            if dj == 0.0:
                continue
            old = b[j]
            if old == 0.0:
                rho = cj - q.item(j)
                if -gamma <= rho <= gamma:
                    continue
            else:
                rho = cj - q.item(j) + gjj * old
            if rho > gamma:
                new = (rho - gamma) / dj
            elif rho < -gamma:
                new = (rho + gamma) / dj
            else:
                new = 0.0
            d = new - old
            if d != 0.0:
                np.multiply(G[j], d, out=tmp)
                np.add(q, tmp, out=q)
                beta[j] = new
                if abs(d) > max_delta:
                    max_delta = abs(d)
        if max_delta < tol:
            return sweeps, True, extrapolations
        if window == 0:
            continue
        iterates.append(beta.copy())
        qs.append(q.copy())
        if len(qs) < window:
            continue
        step = _extrapolate_py(np.array(iterates), np.array(qs))
        if step is not None and (
            _objective_py(*step[:2], c, gamma, ridge) < _objective_py(beta, q, c, gamma, ridge)
        ):
            beta[:], q[:] = step[:2]
            if step[2] > _EXACT_Q_ABOVE:
                _set_q(G, beta, q, tmp)
            extrapolations += 1
        iterates, qs = [beta.copy()], []
    return max_iter, False, extrapolations


def _set_q(G, beta, q, tmp):
    """q = G.beta as the sum of beta_j G[j] over the nonzero beta_j in j
    order, from zero, each added as a move of beta_j is: `set_q` in C."""
    q[:] = 0.0
    for j in np.flatnonzero(beta).tolist():
        np.multiply(G[j], beta.item(j), out=tmp)
        np.add(q, tmp, out=q)


def _dot(a, b):
    """a . b as a left-to-right sum of rounded products, as `dot` in C."""
    return float(np.add.accumulate(a * b)[-1])


def _objective_py(x, gx, c, gamma, ridge):
    """1/2 x.Gx - c.x + gamma |x|_1 + ridge/2 |x|^2 in O(p), from gx = G.x."""
    l1 = float(np.add.accumulate(np.abs(x))[-1])
    return 0.5 * _dot(x, gx) - _dot(c, x) + gamma * l1 + 0.5 * ridge * _dot(x, x)


def _extrapolate_py(iterates, qs):
    """Anderson candidate (x, q, sum(|w|)) from the rows x_0..x_K and the q
    of x_1..x_K, or None if the system is singular or anything non-finite.

    With U the rows x_{a+1} - x_a, (U U')z = 1 is solved (`_solve_ones`) and
    x_1..x_K and their q are weighted by w = z/sum(z), summed over the rows
    in order; + 0.0 keeps a coefficient at zero in every iterate +0.0.
    """
    U = np.diff(iterates, axis=0)
    M = np.add.accumulate(U[:, None, :] * U[None, :, :], axis=2)[:, :, -1]
    z = _solve_ones(M.tolist())
    if z is None:
        return None
    total = z[0]
    for v in z[1:]:
        total = total + v
    if not (all(map(math.isfinite, z)) and total != 0.0 and math.isfinite(total)):
        return None
    weights = [v / total for v in z]
    spread = abs(weights[0])
    for v in weights[1:]:
        spread = spread + abs(v)
    w = np.array(weights)[:, None]
    x = np.add.accumulate(w * iterates[1:], axis=0)[-1] + 0.0
    gx = np.add.accumulate(w * qs, axis=0)[-1]
    return (x, gx, spread) if np.all(np.isfinite(x)) and np.all(np.isfinite(gx)) else None


def _solve_ones(M):
    """z with M z = (1, ..., 1), for M a list of k rows (overwritten), by
    Gaussian elimination with partial pivoting (the first largest |entry|
    of a column) and back substitution, as `solve_ones` in C; None at a
    zero or non-finite pivot."""
    k = len(M)
    z = [1.0] * k
    for col in range(k):
        piv = col
        for r in range(col + 1, k):
            if abs(M[r][col]) > abs(M[piv][col]):
                piv = r
        pivot = M[piv][col]
        if pivot == 0.0 or not math.isfinite(pivot):
            return None
        M[col], M[piv] = M[piv], M[col]
        z[col], z[piv] = z[piv], z[col]
        for r in range(col + 1, k):
            f = M[r][col] / pivot
            row, top = M[r], M[col]
            for j in range(col + 1, k):
                row[j] = row[j] - f * top[j]
            z[r] = z[r] - f * z[col]
    for i in range(k - 1, -1, -1):
        s = z[i]
        for j in range(i + 1, k):
            s = s - M[i][j] * z[j]
        z[i] = s / M[i][i]
    return z


def _relative_gap(Xs, y, beta, intercept, penalty, objective_value) -> float:
    """Duality gap over the primal objective at a solution, from its residual.

    The n-scaled elastic net is read as a lasso on the design augmented with
    sqrt(l2) I, and the augmented residual is scaled into the dual-feasible
    box. That box has no room at l1_ratio 0, so a ridge penalty uses its
    smooth dual at the residual, yc.r - |r|^2/2 - |Xs'r|^2/(2 l2), instead.
    """
    n = y.shape[0]
    l1, l2 = n * penalty.alpha * penalty.l1_ratio, n * penalty.alpha * (1.0 - penalty.l1_ratio)
    r = y - intercept - Xs @ beta
    primal = n * objective_value
    if l1 == 0.0 and l2 > 0.0:
        v = Xs.T @ r
        gap = primal - float(r @ (y - y.mean())) + 0.5 * float(r @ r) + float(v @ v) / (2.0 * l2)
    else:
        dual_norm = float(np.max(np.abs(Xs.T @ r - l2 * beta), initial=0.0))
        scale = min(1.0, l1 / dual_norm) if dual_norm > 0 else 1.0
        gap = primal - scale * float(r @ (y - y.mean()))
        gap += 0.5 * scale**2 * (float(r @ r) + l2 * float(beta @ beta))
    return gap / primal if primal > 0 else 0.0


def fit(
    Xs: np.ndarray,
    y: np.ndarray,
    penalty: PenaltyConfig,
    standardization: StandardizationParams,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    warm_start: np.ndarray | None = None,
) -> FitModel:
    """Fit on an already-standardized design matrix.

    `Xs` must be the output of `standardize` (or `apply_standardization`)
    under `standardization`; passing raw features silently changes the
    penalty's meaning. Hitting `max_iter` before the tolerance emits a
    non-fatal ConvergenceWarning and is recorded in training_meta, as are
    the sweeps (`iterations`), the accepted extrapolations (`extrapolations`),
    the solution's relative duality gap (`rel_gap`, reported, not a stop
    rule) and the descent implementation that ran (`sweep`: "compiled" or
    "python"). `tol` and `max_iter` follow CvSettings' range rule, and a
    `warm_start` must be p finite values, or a DataError.
    """
    Xs = np.asarray(Xs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if Xs.ndim != 2 or Xs.shape[0] != y.shape[0]:
        raise DataError(f"design {Xs.shape} does not align with target {y.shape}")
    if Xs.shape[0] < 2:
        raise DataError("need at least 2 rows to fit")
    if Xs.shape[1] != len(standardization.names):
        raise SchemaError(
            f"design has {Xs.shape[1]} columns but standardization retains "
            f"{len(standardization.names)}"
        )
    if not (np.all(np.isfinite(Xs)) and np.all(np.isfinite(y))):
        raise NumericalError("non-finite values in design matrix or target")

    CvSettings(tol=tol, max_iter=max_iter)
    p = Xs.shape[1]
    if warm_start is None:
        beta = np.zeros(p)
    else:
        beta = np.array(warm_start, dtype=np.float64)
        if beta.shape != (p,) or not np.all(np.isfinite(beta)):
            raise DataError(f"warm_start must be {p} finite values, got shape {beta.shape}")
    G, c = _gram(Xs, y)
    q = np.empty(p)
    sweeps, converged, extrapolations = _bind_descent(G, c, beta, q, tol, max_iter)(penalty)
    intercept = float(np.mean(y - Xs @ beta))
    if not converged:
        warnings.warn(
            f"coordinate descent hit max_iter={max_iter} before tol={tol}",
            ConvergenceWarning,
        )
    beta.flags.writeable = False
    obj = objective(Xs, y, beta, intercept, penalty)
    return FitModel(
        coefficients=beta,
        intercept=intercept,
        penalty=penalty,
        standardization=standardization,
        training_meta={
            "iterations": sweeps,
            "extrapolations": extrapolations,
            "converged": converged,
            "objective": obj,
            "rel_gap": _relative_gap(Xs, y, beta, intercept, penalty, obj),
            "tol": tol,
            "sweep": "python" if _kernels.library() is None else "compiled",
        },
    )


def alpha_path(
    Xs: np.ndarray,
    y: np.ndarray,
    l1_ratio: float,
    n_alphas: int = DEFAULT_N_ALPHAS,
    eps: float = DEFAULT_PATH_EPS,
) -> np.ndarray:
    """Geometric alpha grid from alpha_max down to eps*alpha_max.

    alpha_max is the smallest penalty at which every coefficient is exactly
    zero: max_j |x_j . (y - mean(y))| / (n * l1_ratio). `l1_ratio`,
    `n_alphas` and `eps` follow CvSettings' range rule.
    """
    CvSettings(l1_grid=(l1_ratio,), n_alphas=n_alphas, eps=eps)
    Xs = np.asarray(Xs, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    alpha_max = float(np.max(np.abs(Xs.T @ (y - y.mean())))) / (n * l1_ratio)
    if alpha_max <= 0:
        raise NumericalError("target is orthogonal to every feature; no path exists")
    return np.geomspace(alpha_max, eps * alpha_max, num=n_alphas)


def _score_fold(X, y, train_idx, val_idx, names, grids, tol, max_iter):
    """Validation MSE of one CV fold along each l1_ratio's alpha grid.

    Returns one row of MSEs per l1_ratio, in the order of `grids`, and the
    count of path points that hit `max_iter`. Each path point is one
    descent, warm-started from the point before it. A point's training
    intercept is mean(y_tr) - m.beta, with m the column means of the
    standardized training rows, in O(p); an l1_ratio's predictions are made
    in one product once its path is done. Every array the fold builds dies
    when it returns.
    """
    Xs_tr, params = standardize(X[train_idx], names)
    Xs_val = apply_standardization(params, names, X[val_idx])
    y_tr, y_val = y[train_idx], y[val_idx]
    G, c = _gram(Xs_tr, y_tr)
    col_means = Xs_tr.mean(axis=0)
    y_mean = float(y_tr.mean())
    del Xs_tr  # n x p, and no longer needed: the descents use G, c and m
    p = G.shape[0]
    beta, q = np.empty(p), np.empty(p)
    descend = _bind_descent(G, c, beta, q, tol, max_iter)
    rows = []
    unconverged = 0
    for l1, alphas in grids.items():
        beta[:] = 0.0
        path = np.empty((alphas.shape[0], p))
        for a_i, alpha in enumerate(alphas):
            unconverged += not descend(PenaltyConfig(alpha=float(alpha), l1_ratio=l1))[1]
            path[a_i] = beta
        err = y_val[:, None] - ((y_mean - path @ col_means) + Xs_val @ path.T)
        rows.append((err * err).sum(axis=0) / y_val.shape[0])
    return rows, unconverged


def cross_validate(
    X: np.ndarray,
    y: np.ndarray,
    l1_grid=DEFAULT_L1_GRID,
    k: int = 5,
    seed: int = CV_SEED,
    alphas: np.ndarray | None = None,
    n_alphas: int = DEFAULT_N_ALPHAS,
    eps: float = DEFAULT_PATH_EPS,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    threads: int = 1,
) -> CvResult:
    """k-fold CV over the (l1_ratio, alpha) grid on RAW features.

    Rows are shuffled by a seeded permutation and split into k near-equal
    folds. Alpha paths are computed once per l1_ratio on the full
    standardized data, which is dropped once the grids exist. Each fold is
    scored by _score_fold: its training rows (every row outside the fold,
    in sorted order) are re-standardized from themselves, so no information
    leaks from held-out counties, and its G and c serve every l1_ratio's
    warm-started path. A fold's arrays live only while it is scored, and
    its MSE rows are assembled in fold order.
    Path points that hit `max_iter` are counted and reported in one
    ConvergenceWarning. The settings follow CvSettings' range rule, so an
    out-of-range or repeated value is a ConfigError.

    Pass `alphas` to use one explicit grid for every l1_ratio: a non-empty
    1-D array of finite values above 0, or a ConfigError. `threads` is
    accepted and ignored: CV runs on one thread, and so do its BLAS
    products wherever `import tamperscan` set numpy's BLAS thread count
    (see the package's __init__). The compiled descent of a path point
    releases the GIL, Anderson steps included; only the Python between
    path points (and each path's predictions) holds it.
    """
    CvSettings(tuple(l1_grid), n_alphas, eps, k, seed, tol, max_iter)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if n < k:
        raise DataError(f"cannot split {n} rows into {k} folds")

    names = tuple(f"c{j}" for j in range(X.shape[1]))
    perm = substream(seed, 0).permutation(n)
    folds = np.array_split(perm, k)

    if alphas is not None:
        alphas = np.asarray(alphas, dtype=np.float64)
        if alphas.ndim != 1 or alphas.size == 0 or not np.all((alphas > 0) & (alphas < math.inf)):
            raise ConfigError(f"alphas must be a non-empty list of finite values above 0, got {alphas}")
        grids = {l1: alphas for l1 in l1_grid}
    else:
        Xs_full, _ = standardize(X, names)
        grids = {l1: alpha_path(Xs_full, y, l1, n_alphas, eps) for l1 in l1_grid}
        del Xs_full

    mse = {l1: np.empty((k, grids[l1].shape[0])) for l1 in l1_grid}
    unconverged = 0
    for fold_i, val_idx in enumerate(folds):
        # every row not in this fold, sorted: perm is a permutation
        train_idx = np.sort(np.concatenate(folds[:fold_i] + folds[fold_i + 1:]))
        rows, fold_unconverged = _score_fold(
            X, y, train_idx, val_idx, names, grids, tol, max_iter
        )
        for l1, row in zip(l1_grid, rows):
            mse[l1][fold_i] = row
        unconverged += fold_unconverged
    if unconverged:
        total = k * sum(grids[l1].shape[0] for l1 in l1_grid)
        warnings.warn(
            f"{unconverged} of {total} CV (l1_ratio, fold, alpha) points hit "
            f"max_iter={max_iter} before tol={tol}",
            ConvergenceWarning,
        )

    means = {l1: mse[l1].mean(axis=0) for l1 in l1_grid}
    points = [
        CvPoint(
            l1_ratio=float(l1),
            alpha=float(alpha),
            mean_mse=float(means[l1][a_i]),
            fold_mses=tuple(float(v) for v in mse[l1][:, a_i]),
        )
        for l1 in l1_grid
        for a_i, alpha in enumerate(grids[l1])
    ]
    best = min(points, key=lambda pt: (pt.mean_mse, -pt.alpha, -pt.l1_ratio))
    return CvResult(
        grid=tuple(points),
        selected=PenaltyConfig(alpha=best.alpha, l1_ratio=best.l1_ratio),
        seed=seed,
        folds=k,
    )


def fit_cv(
    X: np.ndarray, y: np.ndarray, feature_names, settings: CvSettings
) -> tuple[CvResult, FitModel]:
    """Cross-validate on RAW features under `settings`, then fit the selected
    penalty on every row, standardized from all of them."""
    cv = cross_validate(
        X,
        y,
        l1_grid=settings.l1_grid,
        k=settings.folds,
        seed=settings.seed,
        n_alphas=settings.n_alphas,
        eps=settings.eps,
        tol=settings.tol,
        max_iter=settings.max_iter,
    )
    Xs, params = standardize(X, feature_names)
    return cv, fit(Xs, y, cv.selected, params, tol=settings.tol, max_iter=settings.max_iter)


def predict(model: FitModel, X: np.ndarray, feature_names) -> np.ndarray | float:
    """Predict shares for raw feature rows (columns ordered by feature_names).

    Output is the unclamped affine value b0 + standardized(x) . beta; callers
    decide whether out-of-[0,1] predictions matter.
    """
    Xs = apply_standardization(model.standardization, feature_names, X)
    out = model.intercept + Xs @ model.coefficients
    return float(out) if np.ndim(out) == 0 else out


# --- JSON round-trip -------------------------------------------------------

def model_to_dict(model: FitModel) -> dict:
    s = model.standardization
    return {
        "format": MODEL_FORMAT,
        "version": MODEL_FORMAT_VERSION,
        "intercept": model.intercept,
        "coefficients": {n: float(c) for n, c in zip(s.names, model.coefficients)},
        "penalty": asdict(model.penalty),
        "standardization": {
            "names": list(s.names),
            "mean": [float(v) for v in s.mean],
            "scale": [float(v) for v in s.scale],
            "dropped": list(s.dropped),
        },
        "training_meta": dict(model.training_meta),
    }


def model_from_dict(doc: dict) -> FitModel:
    if doc.get("format") != MODEL_FORMAT:
        raise SchemaError(f"not a model document: format={doc.get('format')!r}")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unsupported model version {doc.get('version')!r}")
    s = doc["standardization"]
    params = StandardizationParams(
        names=tuple(s["names"]),
        mean=np.asarray(s["mean"], dtype=np.float64),
        scale=np.asarray(s["scale"], dtype=np.float64),
        dropped=tuple(s.get("dropped", ())),
    )
    coefs = np.array([doc["coefficients"][n] for n in params.names], dtype=np.float64)
    coefs.flags.writeable = False
    return FitModel(
        coefficients=coefs,
        intercept=float(doc["intercept"]),
        penalty=PenaltyConfig(**doc["penalty"]),
        standardization=params,
        training_meta=dict(doc.get("training_meta", {})),
    )


def cv_result_to_dict(result: CvResult) -> dict:
    return {
        "format": "tamperscan-cv",
        "version": MODEL_FORMAT_VERSION,
        "seed": result.seed,
        "folds": result.folds,
        "selected": asdict(result.selected),
        "grid": [asdict(pt) for pt in result.grid],
    }


def cv_result_from_dict(doc: dict) -> CvResult:
    if doc.get("format") != "tamperscan-cv":
        raise SchemaError(f"not a cv document: format={doc.get('format')!r}")
    return CvResult(
        grid=tuple(
            CvPoint(
                l1_ratio=float(p["l1_ratio"]),
                alpha=float(p["alpha"]),
                mean_mse=float(p["mean_mse"]),
                fold_mses=tuple(float(v) for v in p["fold_mses"]),
            )
            for p in doc["grid"]
        ),
        selected=PenaltyConfig(**doc["selected"]),
        seed=int(doc["seed"]),
        folds=int(doc["folds"]),
    )
