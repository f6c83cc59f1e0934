"""Threshold determination and prediction (the paper's Section III-B).

*Determination*: assume the activation gradients of a layer follow a zero-mean
normal distribution.  Estimate the standard deviation from the mean absolute
value (a single O(n) pass, no sorting) and pick the threshold ``tau`` such
that a target fraction ``p`` of components falls inside ``[-tau, tau]``:

    sigma_hat = sqrt(pi / 2) * mean(|g|)
    tau       = Phi^{-1}((1 + p) / 2) * sigma_hat

Note on the paper's typesetting: the paper prints ``sigma_hat = (1/n)
sqrt(2/pi) sum |g_i|`` and ``tau = Phi^{-1}((1-p)/2) sigma_hat``.  Taken
literally those give a biased estimate (off by a factor 2/pi) and a *negative*
threshold; the intended (and statistically correct) forms are the ones above
— for a half-normal variable ``E[|g|] = sigma * sqrt(2/pi)`` so the unbiased
estimate divides by ``sqrt(2/pi)``, and the two-sided quantile uses
``(1+p)/2``.  We implement the correct forms and verify in tests that the
realised pruning rate matches ``p`` on normally distributed gradients.

*Prediction*: determining the threshold needs the full tensor, but the
accelerator wants to prune gradients as they stream out of the PPU, before
they are written back to the buffer.  The paper therefore predicts the
threshold of the current batch as the mean of the exact thresholds of the
previous ``NF`` batches, kept in a per-layer FIFO.  No pruning happens until
the FIFO is full.
"""

from __future__ import annotations

from collections import deque
from statistics import NormalDist

import numpy as np

from repro.utils.validation import check_positive_int, check_probability


def estimate_sigma(gradients: np.ndarray) -> float:
    """Unbiased single-pass estimate of the std of zero-mean gradients."""
    gradients = np.asarray(gradients)
    if gradients.size == 0:
        return 0.0
    mean_abs = float(np.mean(np.abs(gradients)))
    return float(np.sqrt(np.pi / 2.0) * mean_abs)


def quantile_factor(target_sparsity: float) -> float:
    """Two-sided standard-normal quantile: ``Phi^{-1}((1 + p) / 2)``.

    This is the factor by which the estimated sigma is multiplied to obtain a
    threshold that prunes (at most) a fraction ``p`` of normally distributed
    gradients.
    """
    target_sparsity = check_probability(target_sparsity, "target_sparsity")
    if target_sparsity == 0.0:
        return 0.0
    probability = (1.0 + target_sparsity) / 2.0
    if probability == 1.0:
        # p == 1, or p within an ulp of 1 so that (1 + p) / 2 rounds to 1.0:
        # Phi^{-1}(1) is +inf, but ``inv_cdf`` only accepts 0 < q < 1.
        return float("inf")
    return NormalDist().inv_cdf(probability)


def determine_threshold(gradients: np.ndarray, target_sparsity: float) -> float:
    """Exact (per-batch) threshold determination from the gradient tensor."""
    sigma = estimate_sigma(gradients)
    factor = quantile_factor(target_sparsity)
    if not np.isfinite(factor):
        # p == 1: prune everything below the largest representable threshold.
        return float(np.max(np.abs(gradients))) if gradients.size else 0.0
    return factor * sigma


def determine_threshold_from_abs_sum(
    abs_sum: float, count: int, target_sparsity: float
) -> float:
    """Threshold determination from streaming statistics (hardware form).

    The PPU accumulates ``sum(|g|)`` and the element count while gradients
    stream through it; this function converts those two scalars into the
    batch's exact threshold without touching the tensor again.
    """
    if count <= 0:
        return 0.0
    sigma = float(np.sqrt(np.pi / 2.0) * abs_sum / count)
    factor = quantile_factor(target_sparsity)
    if not np.isfinite(factor):
        return float("inf")
    return factor * sigma


def expected_density_after_pruning(target_sparsity: float, natural_density: float = 1.0) -> float:
    """Expected non-zero density after stochastic pruning of normal gradients.

    For zero-mean normal gradients pruned with the threshold that targets a
    sparsity ``p``, a component below the threshold survives with probability
    ``|g| / tau``, so the expected post-pruning density is

        (1 - p) + (2 sigma / (tau sqrt(2 pi))) * (1 - exp(-tau^2 / (2 sigma^2)))

    with ``tau = Phi^{-1}((1+p)/2) * sigma``.  Multiplying by
    ``natural_density`` accounts for gradients that were already exactly zero
    before pruning (e.g. ``dO`` behind a ReLU).  This closed form is used by
    the ablation studies to sweep the pruning rate without re-training; tests
    check it against Monte-Carlo pruning of synthetic gradients.
    """
    target_sparsity = check_probability(target_sparsity, "target_sparsity")
    natural_density = check_probability(natural_density, "natural_density")
    if target_sparsity == 0.0:
        return natural_density
    if target_sparsity == 1.0:
        return 0.0
    z = quantile_factor(target_sparsity)
    survived_below = (2.0 / (z * np.sqrt(2.0 * np.pi))) * (1.0 - np.exp(-(z**2) / 2.0))
    return natural_density * ((1.0 - target_sparsity) + survived_below)


class ThresholdFIFO:
    """FIFO of per-batch thresholds used for prediction (the paper's Fig. 5).

    Parameters
    ----------
    depth:
        ``NF``, the number of past batch thresholds to average.
    """

    def __init__(self, depth: int) -> None:
        self.depth = check_positive_int(depth, "depth")
        self._values: deque[float] = deque(maxlen=self.depth)

    def __len__(self) -> int:
        return len(self._values)

    @property
    def is_full(self) -> bool:
        """Whether enough history exists to start predicting."""
        return len(self._values) == self.depth

    def push(self, threshold: float) -> None:
        """Push the exact threshold determined for the batch just finished."""
        threshold = float(threshold)
        if not np.isfinite(threshold) or threshold < 0.0:
            raise ValueError(f"threshold must be finite and non-negative, got {threshold}")
        self._values.append(threshold)

    def predict(self) -> float | None:
        """Predicted threshold for the next batch (mean of the FIFO).

        Returns ``None`` while the FIFO is not yet full, meaning "do not prune
        this batch" — exactly the warm-up behaviour of Algorithm 1.
        """
        if not self.is_full:
            return None
        return float(np.mean(self._values))

    def values(self) -> list[float]:
        """Snapshot of the stored thresholds, oldest first."""
        return list(self._values)

    def clear(self) -> None:
        """Drop all history (e.g. when the learning-rate schedule steps)."""
        self._values.clear()


class ThresholdPredictor:
    """Couples exact determination with FIFO prediction for one layer.

    Typical use per training batch::

        tau = predictor.current_threshold()      # None during warm-up
        pruned = stochastic_prune(grad, tau)     # if tau is not None
        predictor.observe(grad)                  # push this batch's exact tau
    """

    def __init__(self, target_sparsity: float, fifo_depth: int) -> None:
        self.target_sparsity = check_probability(target_sparsity, "target_sparsity")
        self.fifo = ThresholdFIFO(fifo_depth)
        self.batches_observed = 0

    def current_threshold(self) -> float | None:
        """Threshold to apply to the *current* batch, or ``None`` in warm-up."""
        return self.fifo.predict()

    def observe(self, gradients: np.ndarray) -> float:
        """Determine the exact threshold of this batch and push it to the FIFO."""
        threshold = determine_threshold(gradients, self.target_sparsity)
        if np.isfinite(threshold):
            self.fifo.push(threshold)
        self.batches_observed += 1
        return threshold

    def observe_streaming(self, abs_sum: float, count: int) -> float:
        """Same as :meth:`observe` but from streaming ``sum(|g|)`` statistics."""
        threshold = determine_threshold_from_abs_sum(abs_sum, count, self.target_sparsity)
        if np.isfinite(threshold):
            self.fifo.push(threshold)
        self.batches_observed += 1
        return threshold
