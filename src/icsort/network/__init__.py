"""From-scratch convolutional classifier for component feature sets."""

from .convops import weighted_cross_entropy
from .model import (
    ARCHITECTURE,
    LAYER_ORDER,
    NetworkWeights,
    classify,
    forward,
    forward_backward,
    initialize_weights,
    shape_trace,
)
from .training import Adam, TrainConfig, TrainResult, train
from .weights_io import load_weights, save_weights

__all__ = [
    "ARCHITECTURE",
    "Adam",
    "LAYER_ORDER",
    "NetworkWeights",
    "TrainConfig",
    "TrainResult",
    "classify",
    "forward",
    "forward_backward",
    "initialize_weights",
    "load_weights",
    "save_weights",
    "shape_trace",
    "train",
    "weighted_cross_entropy",
]
