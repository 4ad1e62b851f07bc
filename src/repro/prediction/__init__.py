"""Host-load prediction (the paper's announced future work)."""

from .ar import AutoRegressive, fit_ar_coefficients
from .baselines import EWMA, LastValue, MovingAverage, Predictor
from .evaluate import PredictionScore, compare_predictors, evaluate_predictor
from .markov import MarkovLevel, transition_matrix

__all__ = [
    "AutoRegressive",
    "EWMA",
    "LastValue",
    "MarkovLevel",
    "MovingAverage",
    "PredictionScore",
    "Predictor",
    "compare_predictors",
    "evaluate_predictor",
    "fit_ar_coefficients",
    "transition_matrix",
]
