"""Deterministic PRNG and the two resampling planners.

The single generator is SplitMix64: tiny, constant-specified, and bit-exact
everywhere. Every experiment derives one independent stream per (purpose,
index) pair from a master seed, so plans are reproducible regardless of
execution order or parallelism.

Two planners operate at sentence granularity (instances are never split out
of their sentence):

* bootstrap -- sample sentences uniformly with replacement until the
  cumulative base-NP instance count reaches the budget n0;
* k-fold CV -- shuffle, then assign sentences longest-first to the currently
  lightest fold, balancing instance counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, MutableSequence, NamedTuple

if TYPE_CHECKING:  # avoid a circular import; corpus imports PrngStream
    from .corpus import Corpus

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(z: int) -> int:
    """SplitMix64 output mix (shifts 30/27/31)."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a over the UTF-8 bytes of text."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


class PrngStream:
    """SplitMix64 stream. Identical state yields identical output forever."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK64

    def next(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        return mix64(self.state)

    def next_below(self, n: int) -> int:
        """Uniform integer in [0, n) via 128-bit multiply-shift reduction."""
        if n <= 0:
            raise ValueError("n must be positive")
        return (self.next() * n) >> 64

    def next_float(self) -> float:
        return self.next() / 2.0**64

    def shuffle(self, items: MutableSequence) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_below(i + 1)
            items[i], items[j] = items[j], items[i]


def derive_stream(master_seed: int, purpose: str, index: int) -> PrngStream:
    """Independent stream for a (purpose, index) pair under one master seed."""
    state = (master_seed & _MASK64) ^ fnv1a64(purpose) ^ mix64(index & _MASK64)
    return PrngStream(mix64(state))


class PlanningError(ValueError):
    pass


class BootstrapPlan(NamedTuple):
    """One with-replacement draw of sentence indices (repetitions allowed)."""

    sentence_indices: tuple[int, ...]
    resample_id: int

    def to_line(self) -> str:
        idx = ",".join(str(i) for i in self.sentence_indices)
        return f"bootstrap\t{self.resample_id}\t{idx}"


class CvPlan(NamedTuple):
    """A k-way partition of sentence indices, balanced by instance count."""

    k: int
    fold_of_sentence: tuple[int, ...]

    def to_line(self) -> str:
        folds = ",".join(str(f) for f in self.fold_of_sentence)
        return f"cv\t{self.k}\t{folds}"


def plan_bootstrap(corpus: "Corpus", n0: int, rng: PrngStream,
                   resample_id: int = 0) -> BootstrapPlan:
    """Sample sentences with replacement until >= n0 instances are covered.

    The stopping rule gives minimal overshoot: dropping the final index
    would leave fewer than n0 instances.
    """
    if len(corpus) == 0:
        raise PlanningError("cannot bootstrap an empty corpus")
    if n0 < 1:
        raise PlanningError("n0 must be >= 1")
    counts = [len(s.gold_spans) for s in corpus.sentences]
    if not any(counts):
        raise PlanningError("corpus has no base-NP instances; sampling would not terminate")
    n = len(counts)
    indices: list[int] = []
    total = 0
    while total < n0:
        idx = (rng.next() * n) >> 64
        indices.append(idx)
        total += counts[idx]
    return BootstrapPlan(tuple(indices), resample_id)


def plan_cv(corpus: "Corpus", k: int, rng: PrngStream) -> CvPlan:
    """Random k-way partition with greedy longest-first instance balancing.

    Guarantees max-min fold instance imbalance not exceeding the largest
    single-sentence instance count, and no empty fold.
    """
    n = len(corpus)
    if not (2 <= k <= n):
        raise ValueError(f"k must be in [2, {n}], got {k}")
    order = list(range(n))
    rng.shuffle(order)
    counts = [len(s.gold_spans) for s in corpus.sentences]
    # stable sort keeps the shuffled order within equal instance counts
    order.sort(key=lambda idx: -counts[idx])
    import heapq

    heap = [(0, fold) for fold in range(k)]
    fold_of = [0] * n
    sizes = [0] * k
    for idx in order:
        if counts[idx]:
            load, fold = heapq.heappop(heap)
            heapq.heappush(heap, (load + counts[idx], fold))
        else:
            # no instances, so no load to balance (these sort last): a fold
            # with the fewest sentences, which leaves no fold empty
            fold = min(range(k), key=sizes.__getitem__)
        fold_of[idx] = fold
        sizes[fold] += 1
    return CvPlan(k, tuple(fold_of))


def training_ids(plan: BootstrapPlan | CvPlan,
                 held_out_fold: int | None = None) -> tuple[int, ...]:
    """The training sentence ids a plan describes, in view order.

    Bootstrap plans yield the sampled ids (repetitions preserved). CV plans
    need held_out_fold and yield the ids outside that fold, ascending.
    """
    if isinstance(plan, BootstrapPlan):
        return plan.sentence_indices
    if held_out_fold is None:
        raise ValueError("CV training view requires held_out_fold")
    if not (0 <= held_out_fold < plan.k):
        raise ValueError(f"held_out_fold {held_out_fold} out of range [0, {plan.k})")
    return tuple(i for i, fold in enumerate(plan.fold_of_sentence) if fold != held_out_fold)


def training_view(corpus: "Corpus", plan: BootstrapPlan | CvPlan,
                  held_out_fold: int | None = None) -> "Corpus":
    """The training corpus a plan describes: its training_ids' sentences."""
    from .corpus import Corpus

    return Corpus(tuple(corpus.sentences[i] for i in training_ids(plan, held_out_fold)))
