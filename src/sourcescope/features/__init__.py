"""Website feature extraction: fetch a site, reduce it to five binary bits."""

from .detectors import (
    FEATURE_NAMES,
    FeatureVector,
    extract_features,
    features_from_snapshot,
)
from .html_text import PageText, normalize_text, parse_page
from .lexicon import SECTION_KINDS, KeywordLexicon, default_lexicon, load_lexicon
from .snapshot import (
    FetchCounters,
    FetchPolicy,
    SiteSnapshot,
    fetch_site,
    get_fetch_counters,
    reset_fetch_counters,
)

__all__ = [
    "FEATURE_NAMES",
    "FeatureVector",
    "extract_features",
    "features_from_snapshot",
    "PageText",
    "normalize_text",
    "parse_page",
    "SECTION_KINDS",
    "KeywordLexicon",
    "default_lexicon",
    "load_lexicon",
    "FetchCounters",
    "FetchPolicy",
    "SiteSnapshot",
    "fetch_site",
    "get_fetch_counters",
    "reset_fetch_counters",
]
