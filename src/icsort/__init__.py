"""icsort: classify ICA-decomposed EEG components into source categories.

The toolkit covers the full pipeline: per-component feature extraction
(scalp topography, median-Welch power spectrum, autocorrelation), a
from-scratch convolutional classifier with symmetry-averaged inference,
crowd-label aggregation by collapsed Gibbs sampling, soft and hard
evaluation metrics, and a deterministic command-line interface with
binary bundle formats.
"""

from .categories import (
    CATEGORIES,
    CATEGORY_INDEX,
    N_CATEGORIES,
    N_RESPONSES,
    RESPONSES,
    argmax_category,
    as_label_vector,
)
from .errors import ConfigError, DataError, IcsortError, NumericError
from .features import (
    FeatureStack,
    Recording,
    autocorrelation,
    common_average_reference,
    extract_component_features,
    extract_recording,
    median_welch_psd,
    normalize_features,
    scalp_topography,
)

__version__ = "0.1.0"

__all__ = [
    "CATEGORIES",
    "CATEGORY_INDEX",
    "ConfigError",
    "DataError",
    "FeatureStack",
    "IcsortError",
    "N_CATEGORIES",
    "N_RESPONSES",
    "NumericError",
    "RESPONSES",
    "Recording",
    "argmax_category",
    "as_label_vector",
    "autocorrelation",
    "common_average_reference",
    "extract_component_features",
    "extract_recording",
    "median_welch_psd",
    "normalize_features",
    "scalp_topography",
    "__version__",
]
