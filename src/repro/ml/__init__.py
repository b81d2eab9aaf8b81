"""Learning substrate: random forest and Fig 10 comparison classifiers.

scikit-learn is unavailable offline, so everything here is implemented
from scratch on numpy (see DESIGN.md's substitution table). The one
exception is the L-BFGS optimiser behind ``LogisticRegression.fit`` and
``LinearSVM.fit``, which needs the optional ``linear`` extra
(``pip install 'repro[linear]'``); it is imported only when one of them
is fitted, so the forest, the detectors and the serving path run on
numpy alone.
"""

from .base import Classifier, NotFittedError
from .boosting import GradientBoosting
from .feature_selection import (
    mrmr_select,
    mutual_information,
    mutual_information_between,
    rank_features_by_mi,
)
from .forest import RandomForest
from .linear import LinearSVM, LogisticRegression
from .naive_bayes import GaussianNB
from .preprocessing import Imputer, StandardScaler
from .tree import Binner, DecisionTree

__all__ = [
    "Classifier",
    "NotFittedError",
    "DecisionTree",
    "Binner",
    "RandomForest",
    "GradientBoosting",
    "LogisticRegression",
    "LinearSVM",
    "GaussianNB",
    "Imputer",
    "StandardScaler",
    "mutual_information",
    "mutual_information_between",
    "mrmr_select",
    "rank_features_by_mi",
]
