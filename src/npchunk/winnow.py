"""Two Winnow units (begin, end) over POS n-gram window features.

Each token position is described by the n-grams (n = 1..3) of the 3-tag
window centered on it, padded with boundary symbols. Note the literal 3-tag
window cannot host a 4-gram, so although the feature family is nominally
"one to four consecutive POS tags", the longest realizable n-gram is 3.

Winnow is mistake-driven: weights of active features are multiplied by the
promotion factor on a false negative and by the demotion factor on a false
positive. An active feature is allocated at weight 1 the first time it
appears in training; features never seen in training contribute nothing at
prediction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Hashable, Iterable, Sequence

from .corpus import ChunkSpan, Corpus, Sentence
from .resample import PrngStream

BOS = "<s>"
EOS = "</s>"

Feature = tuple[int, tuple[str, ...]]  # (start offset relative to focus, n-gram)


@dataclass(frozen=True)
class WinnowConfig:
    promotion: float = 1.5
    demotion: float = 0.5
    threshold: float = 6.0  # number of active features per position
    epochs: int = 2

    def __post_init__(self):
        if self.promotion <= 1.0:
            raise ValueError("promotion must be > 1")
        if not (0.0 < self.demotion < 1.0):
            raise ValueError("demotion must lie in (0, 1)")
        if self.threshold <= 0.0:
            raise ValueError("threshold must be positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def window_features(tags: tuple[str, ...]) -> tuple[tuple[Feature, ...], ...]:
    """The 6 n-gram features of the padded 3-tag window around each position."""
    padded = (BOS, *tags, EOS)
    return tuple(
        tuple(
            (start - 1, padded[i + start:i + start + n])
            for start in range(3)
            for n in range(1, 4 - start)  # n-grams that fit in the window
        )
        for i in range(len(tags))
    )


class WinnowUnit:
    """One multiplicative-update linear separator over hashable features."""

    __slots__ = ("weights", "threshold", "promotion", "demotion")

    def __init__(self, threshold: float, promotion: float, demotion: float):
        self.weights: dict = {}
        self.threshold = threshold
        self.promotion = promotion
        self.demotion = demotion

    def train_example(self, features: Iterable[Hashable], label: bool) -> bool:
        """One mistake-driven update; returns True when a mistake was made.

        Every active feature is allocated at weight 1 the first time it is
        seen, so a feature that never participates in a mistake still counts
        toward the score at prediction time.
        """
        features = tuple(features)  # iterated twice; a tuple is not copied
        weights = self.weights
        setdefault = weights.setdefault
        score = 0.0
        for f in features:
            score += setdefault(f, 1.0)
        predicted = score >= self.threshold
        if predicted == label:
            return False
        factor = self.promotion if label else self.demotion
        for f in features:
            weights[f] *= factor
        return True

    def decide(self, features: Iterable[Hashable]) -> bool:
        """Prediction-time decision; unseen features contribute 0."""
        get = self.weights.get
        score = 0.0
        for f in features:
            score += get(f, 0.0)
        return score >= self.threshold


@dataclass
class WinnowNetwork:
    begin_unit: WinnowUnit
    end_unit: WinnowUnit
    config: WinnowConfig


@lru_cache(maxsize=65536)
def _sentence_examples(sig: tuple) -> tuple:
    """Per-position (features, is_begin, is_end) for one sentence layout."""
    tags, spans = sig
    begins = {s for s, _ in spans}
    ends = {e - 1 for _, e in spans}
    return tuple(
        (features, i in begins, i in ends)
        for i, features in enumerate(window_features(tags))
    )


def winnow_train(corpus: Corpus, config: WinnowConfig, rng: PrngStream) -> WinnowNetwork:
    """Online training over rng-shuffled sentence order, one pass per epoch."""
    if len(corpus) == 0:
        raise ValueError("cannot train on an empty corpus")
    begin = WinnowUnit(config.threshold, config.promotion, config.demotion)
    end = WinnowUnit(config.threshold, config.promotion, config.demotion)
    examples = [_sentence_examples(s.signature()) for s in corpus.sentences]
    order = list(range(len(examples)))
    for _ in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            for features, is_begin, is_end in examples[idx]:
                begin.train_example(features, is_begin)
                end.train_example(features, is_end)
    return WinnowNetwork(begin, end, config)


def decode_spans(begin_decisions: Sequence[bool], end_decisions: Sequence[bool]
                 ) -> list[ChunkSpan]:
    """Pair begin/end decisions left to right.

    A begin opens a span; the first end at or after it closes the span; a
    begin seen while a span is open is ignored; an unclosed span is dropped.
    """
    spans: list[ChunkSpan] = []
    open_at: int | None = None
    for i, (b, e) in enumerate(zip(begin_decisions, end_decisions)):
        if open_at is None and b:
            open_at = i
        if open_at is not None and e:
            spans.append(ChunkSpan(open_at, i + 1))
            open_at = None
    return spans


def winnow_predict(network: WinnowNetwork, sentence: Sentence) -> list[ChunkSpan]:
    features = window_features(sentence.pos_tags)
    begins = [network.begin_unit.decide(f) for f in features]
    ends = [network.end_unit.decide(f) for f in features]
    return decode_spans(begins, ends)
