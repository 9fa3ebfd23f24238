"""Screening county-level election results for localized tampering.

The workflow: regress county demographics onto two-party Republican vote
share with a cross-validated elastic net, then ask whether any county's
residual is too large to be chance once you account for having searched
every county (the look-elsewhere effect). Includes vote-flip injection
for sensitivity analysis and a manifest-driven CLI for reproducible runs.
"""

import os as _os

# numpy's OpenBLAS starts a worker thread per extra CPU as numpy loads, and
# reads these variables only then. On a 2-CPU host that idle worker at times
# slowed a fresh `import tamperscan.cli` (0.23 s against 0.15 s), stalled most
# blinded-fold Gram products (median 23 ms against 3 ms), added 1.8 MB to
# `fit`'s peak RSS, and made the output bytes depend on the CPU count. So
# every BLAS product runs on the calling thread, unless the caller set a count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, "1")

from .anomaly import (
    AnomalyScore,
    McConfig,
    McGlobalSignificance,
    McNull,
    ResidualSet,
    Scoring,
    WidthFit,
    analytic_sigma_curve,
    fit_width,
    global_significance_mc,
    mc_extremes,
    rank_anomalies,
    residuals,
    score_counties,
    size_correlation,
    two_sided_p,
    write_ranking_csv,
    write_scores_json,
)
from .data_model import (
    CountyKey,
    Dataset,
    StandardizationParams,
    SyntheticSpec,
    apply_standardization,
    generate_synthetic,
    standardize,
)
from .elastic_net import (
    CvResult,
    CvSettings,
    FitModel,
    PenaltyConfig,
    alpha_path,
    cross_validate,
    fit,
    fit_cv,
    objective,
    predict,
)
from .errors import (
    ConfigError,
    ConvergenceWarning,
    DataError,
    NumericalError,
    SchemaError,
    TamperscanError,
)
from .ingest import (
    assemble_dataset,
    clean_features,
    load_dataset,
    parse_election,
    parse_table,
    save_dataset,
)
from .manifest import RunManifest, load_manifest, manifest_hash
from .scenarios import (
    BlindSpec,
    Direction,
    InjectionSpec,
    SweepCurve,
    counterfactual_winner,
    inject_flips,
    prepare_blind_context,
    score_eval_set,
    state_summary,
    sweep,
    unconstrained_counties,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
