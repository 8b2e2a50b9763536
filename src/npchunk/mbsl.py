"""Memory-based base-NP learner.

Training records POS subsequences that contain a chunk border (left, right,
or both), together with how often the subsequence occurs with the marked
border(s) versus without them. The context size c bounds how many symbols
outside a border a stored subsequence may include; symbols inside the chunk
are bounded by c as well, except that the complete chunk (both borders) is
always storable up to the overall tile length cap.

Prediction scores each candidate span by tiling: a candidate is covered when
stored tiles whose borders align with the candidate chain from its opening
border to its closing border, adjacent tiles overlapping in at least one POS
position and every tile in the chain scoring pos/(pos+neg) >= the tile
threshold. Covered candidates are then selected greedily by score.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .corpus import ChunkSpan, Corpus, Sentence


class Tile(NamedTuple):
    """A POS subsequence with border marks.

    opens lists positions m such that a chunk opens immediately before
    symbol m; closes lists positions m such that a chunk closes immediately
    after symbol m.
    """

    seq: tuple[str, ...]
    opens: tuple[int, ...]
    closes: tuple[int, ...]


@dataclass(frozen=True)
class MbslConfig:
    context_size: int = 1
    max_tile_len: int = 6
    tile_threshold: float = 0.5
    min_positive_count: int = 1

    def __post_init__(self):
        if self.context_size < 0:
            raise ValueError("context_size must be >= 0")
        if self.max_tile_len < 1:
            raise ValueError("max_tile_len must be >= 1")
        if not (0.0 <= self.tile_threshold <= 1.0):
            raise ValueError("tile_threshold must lie in [0, 1]")
        if self.min_positive_count < 1:
            raise ValueError("min_positive_count must be >= 1")


Signature = tuple[tuple[str, ...], tuple[tuple[int, int], ...]]


@lru_cache(maxsize=65536)
def _sentence_tiles(sig: Signature, context_size: int, max_tile_len: int) -> frozenset[Tile]:
    """All tiles extracted from one sentence layout."""
    tags, spans = sig
    length = len(tags)
    c = context_size
    tiles: set[Tile] = set()
    for start, end in spans:
        span_len = end - start
        # complete chunk with both borders, plus up to c context on each side
        for left in range(0, min(c, start) + 1):
            for right in range(0, min(c, length - end) + 1):
                if left + span_len + right > max_tile_len:
                    continue
                seq = tags[start - left:end + right]
                tiles.add(Tile(seq, (left,), (left + span_len - 1,)))
        # left border only: up to c symbols on each side of the border
        for inside in range(1, min(c, span_len) + 1):
            for outside in range(0, min(c, start) + 1):
                if inside + outside > max_tile_len:
                    continue
                seq = tags[start - outside:start + inside]
                tiles.add(Tile(seq, (outside,), ()))
        # right border only
        for inside in range(1, min(c, span_len) + 1):
            for outside in range(0, min(c, length - end) + 1):
                if inside + outside > max_tile_len:
                    continue
                seq = tags[end - inside:end + outside]
                tiles.add(Tile(seq, (), (inside - 1,)))
    return frozenset(tiles)


@lru_cache(maxsize=65536)
def _sentence_profiles(sig: Signature, max_tile_len: int) -> dict:
    """Occurrence counts of every window, keyed by (seq, opens, closes).

    opens/closes describe where gold borders fall inside the window. Tile
    counts are sums over these profiles: occurrences whose border layout
    includes the tile's marks are positive, all other occurrences of the
    same POS sequence are negative.
    """
    tags, spans = sig
    length = len(tags)
    starts = {s for s, _ in spans}
    ends = {e for _, e in spans}
    profiles: Counter = Counter()
    for p in range(length):
        for l in range(1, min(max_tile_len, length - p) + 1):
            seq = tags[p:p + l]
            opens = tuple(m for m in range(l) if p + m in starts)
            closes = tuple(m for m in range(l) if p + m + 1 in ends)
            profiles[(seq, opens, closes)] += 1
    return dict(profiles)


@dataclass
class MbslModel:
    config: MbslConfig
    table: dict[Tile, tuple[int, int]]  # tile -> (pos_count, neg_count)
    max_np_len: int
    _seq_index: dict | None = field(default=None, repr=False, compare=False)

    def seq_index(self) -> dict[tuple[str, ...], list[tuple[Tile, float]]]:
        """POS sequence -> [(tile, score)] for tiles passing the filters."""
        if self._seq_index is None:
            index: dict[tuple[str, ...], list[tuple[Tile, float]]] = defaultdict(list)
            cfg = self.config
            for tile, (pos, neg) in self.table.items():
                if pos < cfg.min_positive_count:
                    continue
                score = pos / (pos + neg)
                if score < cfg.tile_threshold:
                    continue
                index[tile.seq].append((tile, score))
            self._seq_index = dict(index)
        return self._seq_index


def mbsl_train(corpus: Corpus, config: MbslConfig) -> MbslModel:
    """Train on a corpus; duplicated sentences contribute multiply."""
    groups: Counter = Counter(s.signature() for s in corpus.sentences)
    tile_keys: set[Tile] = set()
    profiles: Counter = Counter()
    max_np_len = 0
    for sig, mult in groups.items():
        tile_keys.update(_sentence_tiles(sig, config.context_size, config.max_tile_len))
        sig_profiles = _sentence_profiles(sig, config.max_tile_len)
        if mult == 1:
            profiles.update(sig_profiles)
        else:
            for key, count in sig_profiles.items():
                profiles[key] += count * mult
        for start, end in sig[1]:
            if end - start > max_np_len:
                max_np_len = end - start

    by_seq: dict[tuple[str, ...], list[tuple[frozenset, frozenset, int]]] = defaultdict(list)
    totals: Counter = Counter()
    for (seq, opens, closes), count in profiles.items():
        by_seq[seq].append((frozenset(opens), frozenset(closes), count))
        totals[seq] += count

    table: dict[Tile, tuple[int, int]] = {}
    for tile in sorted(tile_keys):
        pos = sum(
            count
            for opens, closes, count in by_seq[tile.seq]
            if opens.issuperset(tile.opens) and closes.issuperset(tile.closes)
        )
        table[tile] = (pos, totals[tile.seq] - pos)
    return MbslModel(config, table, max_np_len)


def _matching_tiles(model: MbslModel, tags: tuple[str, ...], i: int, j: int
                    ) -> list[tuple[float, int, int, bool, bool]]:
    """Tiles supporting candidate span (i, j).

    Returns (score, cover_start, cover_end, is_source, is_sink) per placement,
    where cover_* is the token interval the tile occupies, is_source means the
    tile carries the candidate's opening border and is_sink its closing one.
    """
    index = model.seq_index()
    cfg = model.config
    c = cfg.context_size
    length = len(tags)
    out = []
    lo = max(0, i - c)
    hi = min(length, j + c)
    for p in range(lo, min(hi, j)):  # any useful tile starts before the close
        max_l = min(cfg.max_tile_len, hi - p)
        for l in range(1, max_l + 1):
            entries = index.get(tags[p:p + l])
            if not entries:
                continue
            for tile, score in entries:
                has_open = bool(tile.opens)
                has_close = bool(tile.closes)
                if has_open and p + tile.opens[0] != i:
                    continue
                if has_close and p + tile.closes[0] + 1 != j:
                    continue
                if has_open and not has_close and p + l > j:
                    continue  # interior run would cross the closing border
                if has_close and not has_open and p < i:
                    continue  # interior run would cross the opening border
                out.append((score, p, p + l, has_open, has_close))
    return out


def _bottleneck_cover(tiles: list[tuple[float, int, int, bool, bool]]) -> float | None:
    """Best min-score of a border-to-border chain, or None if uncovered.

    Tiles are added in descending score order to a union-find structure,
    linking tiles that overlap in at least one token position; the first
    moment some component holds both borders, the current score is the
    bottleneck of the best chain.
    """
    if not tiles:
        return None
    order = sorted(range(len(tiles)), key=lambda t: -tiles[t][0])
    parent = list(range(len(tiles)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    added: list[int] = []
    flags: dict[int, list[bool]] = {}
    for t in order:
        score, start, end, is_src, is_snk = tiles[t]
        flags[t] = [is_src, is_snk]
        for other in added:
            _, ostart, oend, _, _ = tiles[other]
            if start < oend and ostart < end:
                ra, rb = find(t), find(other)
                if ra != rb:
                    merged = [flags[ra][0] or flags[rb][0], flags[ra][1] or flags[rb][1]]
                    parent[rb] = ra
                    flags[ra] = merged
        added.append(t)
        root = find(t)
        if flags[root][0] and flags[root][1]:
            return score
    return None


def mbsl_predict(model: MbslModel, sentence: Sentence) -> list[ChunkSpan]:
    """Tile candidate spans and select covered ones greedily by score."""
    tags = sentence.pos_tags
    length = len(tags)
    covered: list[tuple[float, int, int]] = []
    for i in range(length):
        for j in range(i + 1, min(length, i + model.max_np_len) + 1):
            tiles = _matching_tiles(model, tags, i, j)
            score = _bottleneck_cover(tiles)
            if score is not None:
                covered.append((score, i, j))
    covered.sort(key=lambda item: (-item[0], -(item[2] - item[1]), item[1]))
    taken: list[ChunkSpan] = []
    occupied = [False] * length
    for _, i, j in covered:
        if any(occupied[i:j]):
            continue
        for idx in range(i, j):
            occupied[idx] = True
        taken.append(ChunkSpan(i, j))
    taken.sort(key=lambda s: s.start)
    return taken
