"""Linear comparison classifiers of Fig 10: logistic regression and
linear SVM.

§5.3.2 compares random forests against "decision trees, logistic
regression, linear support vector machines (SVMs), and naive Bayes" and
finds the linear models "unstable and decreased as more features are
used" (irrelevant/redundant features hurt them). Both models here are
trained with L-BFGS on L2-regularised convex losses; inputs are
internally standardised so the optimisation is well-conditioned
regardless of severity scales. The optimiser comes with the optional
``linear`` extra and is imported inside ``fit``: ``repro.ml`` and the
boosting learner import this module, and a serving process must not
pay for the optimiser it never calls.
"""

from __future__ import annotations

import numpy as np

from .base import Classifier
from .preprocessing import StandardScaler


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    positive = z >= 0
    out[positive] = 1.0 / (1.0 + np.exp(-z[positive]))
    exp_z = np.exp(z[~positive])
    out[~positive] = exp_z / (1.0 + exp_z)
    return out


class _LinearModel(Classifier):
    """Shared L-BFGS training loop over a convex loss."""

    def __init__(self, C: float = 1.0, max_iter: int = 200):
        super().__init__()
        if C <= 0:
            raise ValueError(f"C must be positive, got {C}")
        self.C = C
        self.max_iter = max_iter
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self._scaler = StandardScaler()

    def _loss_grad(self, packed, features, targets):
        raise NotImplementedError

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "_LinearModel":
        try:
            from scipy.optimize import minimize
        except ImportError as exc:
            raise ImportError(
                f"{type(self).__name__}.fit needs the optional 'linear' "
                "extra: pip install 'repro[linear]'"
            ) from exc
        features, labels = self._check_fit_inputs(features, labels)
        features = self._scaler.fit_transform(features)
        targets = labels.astype(np.float64)
        n_features = features.shape[1]
        x0 = np.zeros(n_features + 1)
        result = minimize(
            self._loss_grad,
            x0,
            args=(features, targets),
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": self.max_iter},
        )
        self.weights_ = result.x[:-1]
        self.bias_ = float(result.x[-1])
        return self

    def decision_function(self, features: np.ndarray) -> np.ndarray:
        features = self._check_predict_inputs(features)
        if self.weights_ is None:
            raise RuntimeError("model is not fitted")
        features = self._scaler.transform(features)
        return features @ self.weights_ + self.bias_


class LogisticRegression(_LinearModel):
    """L2-regularised logistic regression; proba = sigmoid(margin)."""

    def _loss_grad(self, packed, features, targets):
        weights, bias = packed[:-1], packed[-1]
        margins = features @ weights + bias
        probabilities = _sigmoid(margins)
        # Numerically stable mean log-loss.
        log_loss = np.mean(
            np.logaddexp(0.0, margins) - targets * margins
        )
        penalty = 0.5 / self.C * np.dot(weights, weights) / len(targets)
        error = (probabilities - targets) / len(targets)
        grad_w = features.T @ error + weights / self.C / len(targets)
        grad_b = error.sum()
        return log_loss + penalty, np.concatenate([grad_w, [grad_b]])

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(features))


class LinearSVM(_LinearModel):
    """L2-regularised squared-hinge linear SVM.

    SVMs have no native probabilities; ``predict_proba`` squashes the
    margin through a sigmoid, which preserves the ranking — all the
    PR-curve machinery needs.
    """

    def _loss_grad(self, packed, features, targets):
        weights, bias = packed[:-1], packed[-1]
        signs = 2.0 * targets - 1.0
        margins = signs * (features @ weights + bias)
        slack = np.maximum(0.0, 1.0 - margins)
        loss = np.mean(slack**2)
        penalty = 0.5 / self.C * np.dot(weights, weights) / len(targets)
        # d/dm of slack^2 = -2 * slack where margin < 1.
        coeff = -2.0 * slack * signs / len(targets)
        grad_w = features.T @ coeff + weights / self.C / len(targets)
        grad_b = coeff.sum()
        return loss + penalty, np.concatenate([grad_w, [grad_b]])

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        return _sigmoid(self.decision_function(features))
