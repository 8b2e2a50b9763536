"""Memory-based base-NP learner.

Training records POS subsequences that contain a chunk border (left, right,
or both), together with how often the subsequence occurs with the marked
border(s) versus without them. The context size c bounds how many symbols
outside a border a stored subsequence may include; symbols inside the chunk
are bounded by c as well, except that the complete chunk (both borders) is
always storable up to the overall tile length cap.

Prediction covers a candidate span (i, j) with a chain of stored tiles whose
borders sit at i and j, from the opening border to the closing one, adjacent
tiles overlapping in at least one POS position, and every tile scoring
pos/(pos+neg) >= the tile threshold; the best chain's lowest tile score is
the candidate's score. Every tile carries a border, so each such tile covers
token i or token j-1, and tiles on one side overlap each other. The best
chain is thus one tile carrying both borders, or an opening-only tile
overlapping a closing-only tile: the score is the best of these (the pair
rule). Covered candidates are then selected greedily by score.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
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
    # POS sequence -> [(score, open, close)] for the tiles that pass the filters;
    # open/close are border positions from the tile start, None if not carried
    index: dict[tuple[str, ...], list[tuple[float, int | None, int | None]]]


def _count_tiles(corpus: Corpus, config: MbslConfig) -> tuple[dict[Tile, tuple[int, int]], int]:
    """(tile -> (pos_count, neg_count), longest gold NP length)."""
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
    return table, max_np_len


def mbsl_train(corpus: Corpus, config: MbslConfig) -> MbslModel:
    """Train on a corpus; duplicated sentences contribute multiply."""
    # counted in a helper so its profiles are freed before the index is built
    table, max_np_len = _count_tiles(corpus, config)
    index: dict = defaultdict(list)
    for tile, (pos, neg) in table.items():
        if pos < config.min_positive_count:
            continue
        score = pos / (pos + neg)
        if score >= config.tile_threshold:
            index[tile.seq].append((
                score,
                tile.opens[0] if tile.opens else None,
                tile.closes[0] + 1 if tile.closes else None,
            ))
    return MbslModel(config, table, max_np_len, dict(index))


def mbsl_predict(model: MbslModel, sentence: Sentence) -> list[ChunkSpan]:
    """Score candidate spans by the pair rule; select covered ones greedily.

    Each window is looked up once, and each tile placement filed under the
    border(s) it carries: both of (i, j), an opening at i or a closing at j.
    """
    tags = sentence.pos_tags
    length = len(tags)
    index = model.index
    best: dict[tuple[int, int], float] = {}  # (i, j) -> score
    opening: dict[int, list[tuple[float, int]]] = defaultdict(list)  # i -> [(score, end)]
    closing: dict[int, list[tuple[float, int]]] = defaultdict(list)  # j -> [(score, start)]
    for p in range(length):
        for end in range(p + 1, min(length, p + model.config.max_tile_len) + 1):
            for score, open_at, close_at in index.get(tags[p:end], ()):
                if open_at is None:
                    closing[p + close_at].append((score, p))
                elif close_at is None:
                    opening[p + open_at].append((score, end))
                elif score > best.get((p + open_at, p + close_at), -1.0):
                    best[(p + open_at, p + close_at)] = score
    # an opening tile inside (i, j) overlapping a closing tile inside (i, j)
    for i, opens in opening.items():
        for j, closes in closing.items():
            if not i < j <= i + model.max_np_len:
                continue
            for open_score, end in opens:
                if end > j:
                    continue
                for close_score, start in closes:
                    if i <= start < end:
                        score = min(open_score, close_score)
                        if score > best.get((i, j), -1.0):
                            best[(i, j)] = score
    covered = [(score, i, j) for (i, j), score in best.items()]
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
