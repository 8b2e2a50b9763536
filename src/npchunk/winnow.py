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

Training runs over a WinnowIndex, built once per training corpus: each
distinct window is interned as a tuple of feature ids, and each sentence
becomes (window id, is_begin, is_end) rows. A resample is a list of
sentence ids. Every epoch's order is drawn first, then each unit makes one
pass over the rows with list weights, keeping each window's score until a
mistake updates one of its features. The score is then summed again in the
same feature order, so the weights are the ones a per-example
dict-and-setdefault rule gives, to the bit.

Prediction runs over sentences interned by intern_windows: each distinct
padded 3-tag window gets an id and its features are built once, and each
sentence becomes its windows' ids. An experiment interns each test corpus
once for all its trainings. winnow_predict_interned decides each distinct
window once per call; the decisions are kept only for that call, so no
other network, and no network trained further, is read through them.
winnow_predict_corpus interns the sentences it is given and predicts them.
Nothing here makes a reference cycle, which lets run_experiment keep the
cyclic garbage collector off: its passes would only walk the index, the
weights and the interned windows.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Iterable, NamedTuple, Sequence

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
        if not (math.isfinite(self.promotion) and self.promotion > 1.0):
            raise ValueError("promotion must be finite and > 1")
        if not (0.0 < self.demotion < 1.0):
            raise ValueError("demotion must lie in (0, 1)")
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError("threshold must be finite and positive")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")


def _features(window: tuple[str, str, str]) -> tuple[Feature, ...]:
    """The 6 n-gram features of one padded 3-tag window."""
    return tuple(
        (start - 1, window[start:start + n])
        for start in range(3)
        for n in range(1, 4 - start)  # n-grams that fit in the window
    )


class WinnowIndex:
    """Feature windows interned once, so training runs over integer ids.

    features[f] is the feature with id f; windows[w] holds the feature ids
    of window w, in _features order; containing[f] holds the
    ids of the windows that contain feature f. Built from a corpus, rows[s]
    holds one (window id, is_begin, is_end) row per token of sentence s.
    """

    def __init__(self, corpus: Corpus | None = None):
        self.features: list[Hashable] = []
        self.windows: list[tuple[int, ...]] = []
        self.containing: list[list[int]] = []
        self.rows: list[tuple[tuple[int, bool, bool], ...]] = []
        self._feature_ids: dict = {}
        self._window_ids: dict = {}
        if corpus is None:
            return
        by_tags: dict = {}  # padded 3-tag window -> window id
        interned: dict = {}  # equal rows share one tuple
        for sentence in corpus.sentences:
            padded = (BOS, *sentence.pos_tags, EOS)
            begins = {s for s, _ in sentence.gold_spans}
            ends = {e - 1 for _, e in sentence.gold_spans}
            rows = []
            for i in range(len(padded) - 2):
                tags = padded[i:i + 3]
                w = by_tags.get(tags)
                if w is None:
                    w = by_tags[tags] = self.window_id(_features(tags))
                row = (w, i in begins, i in ends)
                rows.append(interned.setdefault(row, row))
            self.rows.append(tuple(rows))

    def window_id(self, window: Iterable[Hashable]) -> int:
        """The id of a window of features, interning it when new."""
        window = tuple(window)
        w = self._window_ids.get(window)
        if w is None:
            w = self._window_ids[window] = len(self.windows)
            ids = []
            for feature in window:
                f = self._feature_ids.get(feature)
                if f is None:
                    f = self._feature_ids[feature] = len(self.features)
                    self.features.append(feature)
                    self.containing.append([])
                self.containing[f].append(w)
                ids.append(f)
            self.windows.append(tuple(ids))
        return w


class WinnowUnit:
    """One multiplicative-update linear separator over hashable features."""

    __slots__ = ("weights", "threshold", "promotion", "demotion")

    def __init__(self, threshold: float, promotion: float, demotion: float):
        self.weights: dict = {}
        self.threshold = threshold
        self.promotion = promotion
        self.demotion = demotion

    def train_rows(self, index: WinnowIndex, rows: Iterable[tuple], label_at: int = 1) -> int:
        """Mistake-driven updates over rows, in order; returns the mistakes.

        A row is a tuple whose item 0 is a window id of index and whose item
        label_at is the label. A feature is allocated at weight 1 the first
        time a window holding it is scored. A window's score is kept until a
        mistake updates one of its features; it is then summed again in the
        same feature order, so it equals the score summed afresh. Training
        continues from the unit's weights, and leaves in them every feature
        allocated so far.
        """
        features, windows, containing = index.features, index.windows, index.containing
        get = self.weights.get
        weights = [get(feature) for feature in features]  # None: not seen yet
        scores: list[float | None] = [None] * len(windows)
        threshold, promotion, demotion = self.threshold, self.promotion, self.demotion
        mistakes = 0
        for row in rows:
            w = row[0]
            score = scores[w]
            if score is None:
                score = 0.0
                for f in windows[w]:
                    x = weights[f]
                    if x is None:
                        weights[f] = x = 1.0
                    score += x
                scores[w] = score
            label = row[label_at]
            if (score >= threshold) == label:
                continue
            mistakes += 1
            factor = promotion if label else demotion
            for f in windows[w]:
                weights[f] *= factor
                for v in containing[f]:
                    scores[v] = None
        self.weights.update(
            (feature, x) for feature, x in zip(features, weights) if x is not None
        )
        return mistakes

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


def winnow_train_ids(index: WinnowIndex, ids: Sequence[int], config: WinnowConfig,
                     rng: PrngStream) -> WinnowNetwork:
    """Online training over the indexed sentences `ids` (repeats allowed),
    in rng-shuffled order.

    Each epoch shuffles the previous epoch's order in place; both units
    train over the same orders, each in one pass over the rows.
    """
    if not ids:
        raise ValueError("cannot train on an empty corpus")
    order = list(ids)
    orders = []
    for _ in range(config.epochs):
        rng.shuffle(order)
        orders.append(tuple(order))
    network = WinnowNetwork(
        WinnowUnit(config.threshold, config.promotion, config.demotion),
        WinnowUnit(config.threshold, config.promotion, config.demotion),
        config,
    )
    rows = index.rows
    for unit, label_at in ((network.begin_unit, 1), (network.end_unit, 2)):
        unit.train_rows(index, chain.from_iterable(rows[s] for o in orders for s in o),
                        label_at)
    return network


def winnow_train(corpus: Corpus, config: WinnowConfig, rng: PrngStream) -> WinnowNetwork:
    """winnow_train_ids over a fresh index of corpus, every sentence once."""
    return winnow_train_ids(WinnowIndex(corpus), range(len(corpus)), config, rng)


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


class WindowIds(NamedTuple):
    """Sentences as ids of their padded 3-tag windows (intern_windows)."""

    features: list[tuple[Feature, ...]]  # window id -> its features
    sentences: list[array]  # sentence -> the window id at each position


def intern_windows(sentences: Iterable[Sentence]) -> WindowIds:
    """Each distinct padded 3-tag window of sentences, numbered in order of
    first occurrence, with its features built once."""
    ids: dict = {}  # padded 3-tag window -> window id
    features = []
    interned = []
    for sentence in sentences:
        padded = (BOS, *sentence.pos_tags, EOS)
        row = array("i")
        for i in range(len(padded) - 2):
            window = padded[i:i + 3]
            w = ids.get(window)
            if w is None:
                w = ids[window] = len(features)
                features.append(_features(window))
            row.append(w)
        interned.append(row)
    return WindowIds(features, interned)


def winnow_predict_interned(network: WinnowNetwork, windows: WindowIds
                            ) -> list[list[ChunkSpan]]:
    """The spans network predicts for each sentence of windows, in order.

    Each distinct window is decided once per call, and the decisions are
    not kept, so they never outlive the weights they were read from.
    """
    begins = list(map(network.begin_unit.decide, windows.features))
    ends = list(map(network.end_unit.decide, windows.features))
    return [decode_spans([begins[w] for w in row], [ends[w] for w in row])
            for row in windows.sentences]


def winnow_predict_corpus(network: WinnowNetwork, sentences: Iterable[Sentence]
                          ) -> list[list[ChunkSpan]]:
    """winnow_predict_interned over sentences interned by intern_windows."""
    return winnow_predict_interned(network, intern_windows(sentences))


def winnow_predict(network: WinnowNetwork, sentence: Sentence) -> list[ChunkSpan]:
    return winnow_predict_corpus(network, (sentence,))[0]
