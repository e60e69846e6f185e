"""Feature catalog and extraction."""

from .catalog import (
    ALL_SPECS,
    CLASS_A,
    CLASS_A_SPECS,
    CLASS_B,
    CLASS_B_SPECS,
    CLASS_C,
    CLASS_C_SPECS,
    COST_ORDER,
    STRINGHINI_SET,
    YANG_SET,
    FeatureSpec,
    by_name,
    catalog,
    feature_set,
    specs_by_names,
)
from ..rules.context import NeighborStats, neighbor_stats
from .extract import (
    FeatureMatrix,
    api_tweet_similarity,
    bidirectional_link_ratio,
    extract,
    message_similarity,
)

__all__ = [
    "ALL_SPECS",
    "CLASS_A",
    "CLASS_A_SPECS",
    "CLASS_B",
    "CLASS_B_SPECS",
    "CLASS_C",
    "CLASS_C_SPECS",
    "COST_ORDER",
    "FeatureMatrix",
    "FeatureSpec",
    "NeighborStats",
    "STRINGHINI_SET",
    "YANG_SET",
    "api_tweet_similarity",
    "bidirectional_link_ratio",
    "by_name",
    "catalog",
    "extract",
    "feature_set",
    "message_similarity",
    "neighbor_stats",
    "specs_by_names",
]
