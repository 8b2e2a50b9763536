"""Recall/precision scoring and distribution statistics for paired samples.

Exact-match span scoring feeds per-run recall values; across resamples these
form empirical distributions that are summarized (mean, sample std) and
compared pairwise. A comparison reads the paired differences d = a - b: the
std of the difference is the sample std of d, P(A>B) the share of d above 0
and ties, reported separately, the share equal to 0 (for finite floats,
x > y iff x - y > 0 and x == y iff x - y == 0). Pearson's correlation comes
from each side's own moments and is absent when either side's variance is 0.
Sample (n-1) conventions are used throughout, including covariance, so that
var(a - b) = var(a) + var(b) - 2*cov(a, b) holds for d up to rounding.

Precision is computed per run but never aggregated into distributions: the
set of predicted instances varies from run to run, so precision values from
different runs are not draws from one sample space.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Sequence

from .corpus import ChunkSpan, Corpus, _Checked


class RunMetrics(NamedTuple):
    recall: float
    precision: float | None
    n_gold: int
    n_predicted: int
    n_correct: int


class _RecallSamples(NamedTuple):
    label: str
    values: tuple[float, ...]  # indexed by resample_id


class RecallSamples(_Checked, _RecallSamples):
    __slots__ = ()

    def __new__(cls, label: str, values: Iterable[float]):
        return super().__new__(cls, label, tuple(values))

    def _check(self):
        for v in self.values:
            if not (0.0 <= v <= 1.0):
                raise ValueError(f"recall out of [0, 1]: {v}")


class DistributionSummary(NamedTuple):
    mean: float
    std: float | None  # absent when n == 1
    n: int


class PairedComparison(NamedTuple):
    rho: float | None  # absent when either side has zero variance
    p_a_gt_b: float
    p_tie: float
    sigma_diff: float


def score_run(gold: Corpus, predicted: Sequence[Sequence[ChunkSpan]]) -> RunMetrics:
    """Exact-match scoring: a predicted span counts iff start and end match."""
    if len(predicted) != len(gold):
        raise ValueError(
            f"predicted {len(predicted)} sentences, gold has {len(gold)}"
        )
    n_gold = n_predicted = n_correct = 0
    for sentence, spans in zip(gold.sentences, predicted):
        gold_set = set(sentence.gold_spans)
        pred_set = set(spans)
        n_gold += len(gold_set)
        n_predicted += len(pred_set)
        n_correct += len(gold_set & pred_set)
    recall = n_correct / n_gold if n_gold else 0.0
    precision = n_correct / n_predicted if n_predicted else None
    return RunMetrics(recall, precision, n_gold, n_predicted, n_correct)


def _sum(values: Iterable[float]) -> float:
    """Left to right from 0.0; built-in sum() compensates from Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


def _mean(values: Sequence[float]) -> float:
    return _sum(values) / len(values)


def _sample_var(values: Sequence[float], mean: float) -> float:
    return _sum((v - mean) ** 2 for v in values) / (len(values) - 1)


def summarize(samples: RecallSamples) -> DistributionSummary:
    n = len(samples.values)
    if n == 0:
        raise ValueError("cannot summarize an empty sample")
    mean = _mean(samples.values)
    std = math.sqrt(_sample_var(samples.values, mean)) if n >= 2 else None
    return DistributionSummary(mean, std, n)


def compare_paired(a: RecallSamples, b: RecallSamples) -> PairedComparison:
    """Paired statistics over samples aligned by resample_id."""
    if len(a.values) != len(b.values):
        raise ValueError(
            f"sample lengths differ: {len(a.values)} vs {len(b.values)}"
        )
    n = len(a.values)
    if n < 2:
        raise ValueError("paired comparison requires at least 2 samples")
    mean_a = _mean(a.values)
    mean_b = _mean(b.values)
    var_a = _sample_var(a.values, mean_a)
    var_b = _sample_var(b.values, mean_b)
    cov = _sum(
        (x - mean_a) * (y - mean_b) for x, y in zip(a.values, b.values)
    ) / (n - 1)
    rho = cov / (math.sqrt(var_a) * math.sqrt(var_b)) if var_a > 0.0 and var_b > 0.0 else None
    diffs = [x - y for x, y in zip(a.values, b.values)]
    sigma_diff = math.sqrt(_sample_var(diffs, _mean(diffs)))
    greater = sum(1 for d in diffs if d > 0.0)
    ties = diffs.count(0.0)
    return PairedComparison(rho, greater / n, ties / n, sigma_diff)
