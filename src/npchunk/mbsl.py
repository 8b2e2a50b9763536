"""Memory-based base-NP learner.

Training runs over a multiset of sentence ids, as a resample gives them. It
counts every window of at most max_tile_len POS tags, keyed by its tags and
the gold borders inside it (its profile), once per occurrence of its
sentence's id. A tile is such a window with the border(s) of one chunk
marked; it scores pos/(pos+neg), how often its tags occur with those marks
versus without them. The context size c bounds the tags outside a border,
and inside when only one border is carried. In a window of l tags, an
opening at o belongs to the chunk that ends at the first close m >= o, and
the window yields the tiles
  [o..m]  both borders, if o <= c, that m exists and l-1-m <= c;
  [o..    opening only, if o <= c, l-o <= c and the chunk reaches the
          window's last tag (m is l-1 or lies past the window);
  ..m]    closing only, for each close m with m+1 <= c, l-1-m <= c and
          no opening at 1..m (its chunk opens at or before tag 0).

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
from types import SimpleNamespace
from typing import Iterable, NamedTuple

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


# perfbench/child.py sums the hits and misses of _sentence_tiles and _sentence_profiles.
# Tiles are now read off the profiles, so the tile cache is gone and counts no calls.
_sentence_tiles = SimpleNamespace(cache_info=lambda: SimpleNamespace(hits=0, misses=0))


@lru_cache(maxsize=65536)
def _sentence_profiles(tags: tuple[str, ...], spans: tuple[ChunkSpan, ...],
                       max_tile_len: int) -> dict:
    """Occurrence counts of every window, keyed by (seq, opens, closes).

    opens/closes describe where gold borders fall inside the window. Tiles
    are read off the keys (_window_tiles), and tile counts are sums over the
    profiles: occurrences whose border layout includes the tile's marks are
    positive, all other occurrences of the same POS sequence are negative.
    """
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


def _window_tiles(seq: tuple[str, ...], opens: tuple[int, ...],
                  closes: tuple[int, ...], c: int) -> list[Tile]:
    """The tiles one window profile yields at context size c (module docstring)."""
    l = len(seq)
    tiles = []
    for o in opens:
        if o > c:
            break
        m = next((m for m in closes if m >= o), None)
        if m is not None and l - 1 - m <= c:
            tiles.append(Tile(seq, (o,), (m,)))
        if l - o <= c and m in (None, l - 1):
            tiles.append(Tile(seq, (o,), ()))
    inner_open = next((o for o in opens if o > 0), l)
    for m in closes:
        if m + 1 > c or m >= inner_open:
            break
        if l - 1 - m <= c:
            tiles.append(Tile(seq, (), (m,)))
    return tiles


def _count_tiles(corpus: Corpus, ids: Iterable[int], config: MbslConfig
                 ) -> tuple[dict[Tile, tuple[int, int]], int]:
    """(tile -> (pos_count, neg_count), longest gold NP length) over the
    sentences ids, each counted as often as it occurs."""
    profiles: dict = {}
    get = profiles.get
    max_np_len = 0
    for i, mult in Counter(ids).items():
        sentence = corpus.sentences[i]
        for key, count in _sentence_profiles(
                sentence.pos_tags, sentence.gold_spans, config.max_tile_len).items():
            profiles[key] = get(key, 0) + count * mult
        for start, end in sentence.gold_spans:
            if end - start > max_np_len:
                max_np_len = end - start

    tile_keys: set[Tile] = set()
    by_seq: dict[tuple[str, ...], list[tuple[frozenset, frozenset, int]]] = defaultdict(list)
    totals: Counter = Counter()
    for (seq, opens, closes), count in profiles.items():
        tile_keys.update(_window_tiles(seq, opens, closes, config.context_size))
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


def mbsl_train_ids(corpus: Corpus, ids: Iterable[int], config: MbslConfig) -> MbslModel:
    """Train on the sentences ids of corpus, each as often as its id occurs."""
    # counted in a helper so its profiles are freed before the index is built
    table, max_np_len = _count_tiles(corpus, ids, config)
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


def mbsl_train(corpus: Corpus, config: MbslConfig) -> MbslModel:
    """mbsl_train_ids over every sentence of corpus once."""
    return mbsl_train_ids(corpus, range(len(corpus)), config)


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
