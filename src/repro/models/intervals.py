"""Prediction intervals for the overhead regressions.

The paper reports point predictions; a provisioning system acting on
them (VOA admission, hotspot thresholds) is safer with an upper
confidence bound -- admit only if even the pessimistic PM utilization
fits.  This module adds classical OLS prediction intervals: given the
training design, the residual variance ``s^2`` and a new point ``x``,

    y_hat +/- t_{alpha/2, n-p} * s * sqrt(1 + x' (X'X)^{-1} x).

:class:`IntervalModel` wraps one fitted target; ``fit_intervals`` builds
them for every overhead target from the same training samples the point
models use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from repro.models.samples import TARGETS, TrainingSample, design_matrix, target_vector


@dataclass(frozen=True)
class PredictionInterval:
    """A two-sided prediction interval around a point estimate."""

    point: float
    lo: float
    hi: float
    level: float

    def __post_init__(self) -> None:
        if not self.lo <= self.point <= self.hi:
            raise ValueError("interval must bracket the point estimate")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0, 1)")

    @property
    def halfwidth(self) -> float:
        """Half the interval width."""
        return (self.hi - self.lo) / 2.0


class IntervalModel:
    """OLS point predictions with classical prediction intervals."""

    def __init__(self, X: np.ndarray, y: np.ndarray) -> None:
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float).ravel()
        if X.ndim != 2 or X.shape[0] != len(y):
            raise ValueError("X must be (n, p) aligned with y")
        n, p = X.shape
        if n <= p + 1:
            raise ValueError("need more samples than parameters")
        A = np.column_stack([np.ones(n), X])
        # Pseudo-inverse handles the rank-deficient designs single-
        # resource sweeps produce.
        self._theta, *_ = np.linalg.lstsq(A, y, rcond=None)
        resid = y - A @ self._theta
        rank = int(np.linalg.matrix_rank(A))
        self._dof = max(1, n - rank)
        self._s2 = float(resid @ resid) / self._dof
        self._AtA_pinv = np.linalg.pinv(A.T @ A)

    @property
    def residual_std(self) -> float:
        """The residual scale ``s``."""
        return float(np.sqrt(self._s2))

    def predict(self, x, *, level: float = 0.9) -> PredictionInterval:
        """Point prediction with a ``level`` prediction interval."""
        if not 0.0 < level < 1.0:
            raise ValueError("level must be in (0, 1)")
        x = np.asarray(x, dtype=float).ravel()
        if x.shape != (len(self._theta) - 1,):
            raise ValueError(
                f"expected {len(self._theta) - 1} features, got {x.shape}"
            )
        phi = np.concatenate(([1.0], x))
        point = float(phi @ self._theta)
        se = float(
            np.sqrt(self._s2 * (1.0 + phi @ self._AtA_pinv @ phi))
        )
        # scipy costs ~1 s of import and ~60 MB; only this call needs it.
        from scipy import stats

        t = float(stats.t.ppf(0.5 + level / 2.0, self._dof))
        return PredictionInterval(
            point=point, lo=point - t * se, hi=point + t * se, level=level
        )


def fit_intervals(
    samples: Sequence[TrainingSample],
) -> Dict[str, IntervalModel]:
    """One interval model per overhead target."""
    if not samples:
        raise ValueError("no training samples")
    X = design_matrix(samples)
    return {
        t: IntervalModel(X, target_vector(samples, t)) for t in TARGETS
    }


def pessimistic_pm_cpu(
    intervals: Dict[str, IntervalModel],
    vm_sum,
    guest_cpu: float,
    *,
    level: float = 0.9,
) -> float:
    """Upper-bound PM CPU: guest CPU + upper bounds of Dom0 and hyp.

    The conservative admission quantity: a placement is safe if even
    this pessimistic estimate fits the capacity.
    """
    x = np.asarray(vm_sum, dtype=float).ravel()
    dom0 = intervals["dom0.cpu"].predict(x, level=level)
    hyp = intervals["hyp.cpu"].predict(x, level=level)
    return guest_cpu + dom0.hi + hyp.hi
