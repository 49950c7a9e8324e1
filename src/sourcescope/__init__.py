"""sourcescope: reliability scoring for news websites.

Screens a URL against known-outlet imitation, reduces the site to five
binary features (TLS padlock, contact, telephone, about, terms sections)
and scores the probability that it is a fake-news source with a logit
model; also fits such models on labeled data and reproduces the standard
association and fit diagnostics for binary predictors.
"""

__version__ = "0.1.0"

from .diagnostics import (
    ConfusionMatrix,
    FitDiagnostics,
    aic,
    confusion_matrix,
    lr_test,
    mcfadden,
    mcfadden_adjusted,
    null_log_likelihood,
    vif,
    wald_tests,
)
from .errors import SourceScopeError
from .features import (
    FeatureVector,
    FetchPolicy,
    KeywordLexicon,
    SiteSnapshot,
    default_lexicon,
    extract_features,
    fetch_site,
    load_lexicon,
)
from .model import (
    MODEL_I,
    MODEL_II,
    FitOptions,
    LabeledDataset,
    LogitModel,
    fit_logit,
    load_model,
    load_model_file,
    log_likelihood,
    marginal_effects,
    predict_probability,
    save_model,
    save_model_file,
)
from .pipeline import (
    AnalysisReport,
    ScoreReport,
    ScoreRequest,
    analyze,
    load_dataset,
    score_url,
    train,
)
from .screener import (
    KnownDomainDB,
    MimicryVerdict,
    default_known_domains,
    load_known_domains,
    mimicry_check,
    normalize_domain,
)
from .stats import (
    ChiSquareResult,
    ContingencyTable2x2,
    TetrachoricEstimate,
    bivariate_normal_cdf,
    chi_square_test,
    crosstab,
    normal_cdf,
    normal_quantile,
    tetrachoric,
    tetrachoric_matrix,
)

__all__ = [
    "__version__",
    "SourceScopeError",
    "FeatureVector", "FetchPolicy", "KeywordLexicon", "SiteSnapshot",
    "default_lexicon", "extract_features", "fetch_site", "load_lexicon",
    "KnownDomainDB", "MimicryVerdict", "default_known_domains",
    "load_known_domains", "mimicry_check", "normalize_domain",
    "MODEL_I", "MODEL_II", "FitOptions", "LabeledDataset", "LogitModel",
    "fit_logit", "load_model", "load_model_file", "log_likelihood",
    "marginal_effects", "predict_probability", "save_model", "save_model_file",
    "ConfusionMatrix", "FitDiagnostics", "aic", "confusion_matrix",
    "lr_test", "mcfadden", "mcfadden_adjusted", "null_log_likelihood",
    "vif", "wald_tests",
    "ChiSquareResult", "ContingencyTable2x2", "TetrachoricEstimate",
    "bivariate_normal_cdf", "chi_square_test", "crosstab", "normal_cdf",
    "normal_quantile", "tetrachoric", "tetrachoric_matrix",
    "AnalysisReport", "ScoreReport", "ScoreRequest", "analyze",
    "load_dataset", "score_url", "train",
]
