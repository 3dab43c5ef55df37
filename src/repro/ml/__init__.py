"""From-scratch ML substrate (numpy only).

The paper delegates model training to Keras/TensorFlow; this package plays
the same role with a pure-numpy implementation so the Bayesian-optimization
loop has a fast, deterministic black box to evaluate:

* :mod:`repro.ml.network` — feed-forward neural networks (the paper's DNNs),
* :mod:`repro.ml.svm`, :mod:`repro.ml.kmeans`, :mod:`repro.ml.tree`,
  :mod:`repro.ml.forest` — the classical algorithms IIsy-style backends map
  onto match-action tables,
* :mod:`repro.ml.metrics` — F1 / V-measure and friends (the paper's
  optimization metrics),
* :mod:`repro.ml.preprocessing` — the standard scaler and one-hot encoder,
* :mod:`repro.ml.quantization` — fixed-point conversion used when lowering a
  trained model onto data-plane hardware.
"""

from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.kmeans import KMeans
from repro.ml.metrics import (
    accuracy_score,
    f1_score,
    precision_score,
    recall_score,
    v_measure_score,
)
from repro.ml.network import NeuralNetwork
from repro.ml.preprocessing import OneHotEncoder, StandardScaler
from repro.ml.svm import LinearSVM
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "NeuralNetwork",
    "LinearSVM",
    "KMeans",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "accuracy_score",
    "precision_score",
    "recall_score",
    "f1_score",
    "v_measure_score",
    "StandardScaler",
    "OneHotEncoder",
]
