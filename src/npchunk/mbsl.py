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

The counts are linear in the sentence multiplicities m_s: a tile's
pos(t) = sum_s m_s*pos_s(t), and pos+neg sums the same way. So an MbslIndex
interns a training corpus's profile keys once, through a trie whose edges
extend a window by one tag and its border marks, and holds each sentence's
profile P_s as (key id, count) pairs, and F = sum_s P_s. The index is the
only store of profiles: it lives in its experiment, and nothing persists
from one experiment to the next. A resample's count vector
(MbslIndex.counts) is F + sum_{m_s != 1} (m_s - 1)*P_s, which reads only
the sentences the resample leaves out or repeats, and it is shared by every
context size and tile length.
The profile at a shorter tile length L is the longer one's keys of at most
L tags, with the same counts, so one index at the longest tile length
serves them all. Per context size and tile length the index lists the
tiles once, sorted, and each key's positive and yielded tile ids, running
the tile rule once per border layout (length, opens, closes); training
(mbsl_train_counts) pushes the counts to tile ids and keeps the tiles some
counted key yields.

Prediction covers a candidate span (i, j) with a chain of stored tiles whose
borders sit at i and j, from the opening border to the closing one, adjacent
tiles overlapping in at least one POS position, and every tile scoring
pos/(pos+neg) >= the tile threshold; the best chain's lowest tile score is
the candidate's score. Every tile carries a border, so each such tile covers
token i or token j-1, and tiles on one side overlap each other. The best
chain is thus one tile carrying both borders, or an opening-only tile
overlapping a closing-only tile: the score is the best of these (the pair
rule). The pair rule reads only where a single-border tile's far end lies,
and max_k min(a_k, b) = min(max_k a_k, b), so it keeps one best score per
border and far end: {end: score} per opening i and {start: score} per
closing j. It pairs opening i with the closings j in i+1..min(n, i +
max_np_len), an opening-only tile ending by j with a closing-only tile
starting in i..end-1. Covered candidates are then selected greedily by score.

Prediction reads a sentence interned by the model's index (MbslIndex.intern):
for each start position, the id of the longest seq (a window's tags) of the
index that starts there. A window the index lacks has no tiles, nor has any
longer window at its start, since seqs are prefix-closed, so the walk that
interns a start stops there. The model's index is a list by seq id, so
prediction reads a window's tiles by id and reaches the shorter windows at
a start through seq_parent, with no slicing or tuple hashing. An experiment
interns each test corpus once for all its trainings; mbsl_predict interns
the one sentence it is given. Nothing here makes a reference cycle, which
lets run_experiment keep the cyclic garbage collector off: its passes would
only walk these indexes and models.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

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


# perfbench/child.py sums the hits and misses of _sentence_tiles and _sentence_profiles,
# and divides by them. _sentence_tiles is a stand-in that counts no calls. The
# lru_cache on _sentence_profiles stores nothing (maxsize=0): MbslIndex calls it once
# per indexed sentence, and each call counts one miss. The decorator is only that
# call counter; it goes when child.py stops reading it.
_sentence_tiles = SimpleNamespace(cache_info=lambda: SimpleNamespace(hits=0, misses=0))


@lru_cache(maxsize=0)
def _sentence_profiles(tags: tuple[str, ...],
                       spans: tuple[ChunkSpan, ...]) -> list[tuple[str, bool, bool]]:
    """(tag, a chunk opens before it, a chunk closes after it) per token.

    These are the steps MbslIndex walks its key trie by: a window's profile
    key (seq, opens, closes) is its first tag's step, then each next tag's.
    """
    opening = [False] * len(tags)
    closing = [False] * len(tags)
    for start, end in spans:
        opening[start] = closing[end - 1] = True
    return list(zip(tags, opening, closing))


@dataclass
class MbslModel:
    config: MbslConfig
    table: dict[Tile, tuple[int, int]]  # tile -> (pos_count, neg_count)
    max_np_len: int
    # seq id of source -> [(score, open, close)] for the tiles of that seq that
    # pass the filters, or None; open/close are border positions from the tile
    # start, None if not carried
    index: list[list[tuple[float, int | None, int | None]] | None]
    source: MbslIndex  # the index trained from, whose seq ids key index


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


class ProfileCounts(NamedTuple):
    """Profile counts of a multiset of sentences, sum_s m_s*P_s."""

    by_key: list[int]  # key id of an MbslIndex -> occurrences
    max_np_len: int  # longest gold NP among the sentences


class _TileMap(NamedTuple):
    """An MbslIndex's tiles at one context size, in table order."""

    tiles: list[Tile]  # sorted, so a tile's id is its rank
    tile_seq: list[int]  # tile id -> seq id
    positive: list[tuple[int, ...]]  # key id -> ids of the tiles it is positive for
    yields: list[tuple[int, ...]]  # key id -> ids of the tiles _window_tiles gives


class MbslIndex:
    """The window profiles of a training corpus, interned once.

    The profile keys form a trie: a window's key is the key of the window
    one tag shorter at the same start, extended by one step (tag, a chunk
    opens before it, a chunk closes after it). Each window is one edge
    lookup, a new key one new edge, so keys get ids in order of first
    occurrence; seq ids come the same way from (parent seq id, tag) edges.
    The key edges live only while the index is built; the seq edges stay, as
    seq_ids, so that intern can map test windows to seq ids.

    keys[k] is a profile key (seq, opens, closes), key_seq[k] the id of its
    seq, seqs[i] the seq of id i, seq_parent[i] the id of seqs[i][:-1] (-1
    for a one-tag seq), and seq_order the seq ids sorted by seq
    (seq_rank[i] is i's place in it). pairs[s] holds sentence s's profile as
    flat (key id, count) pairs, max_np[s] its longest gold NP, and full the
    profile counts of every sentence once, from which counts(ids) starts.
    The index is the only store of these profiles, and nothing is kept
    between experiments. tile_map(c, max_tile_len) lists the tiles the keys
    yield at context size c and that tile length, built on first use.
    """

    def __init__(self, corpus: Corpus, max_tile_len: int):
        self.max_tile_len = max_tile_len
        self.max_np = [max((end - start for start, end in sentence.gold_spans), default=0)
                       for sentence in corpus.sentences]
        step_ids: dict[tuple[str, bool, bool], int] = {}
        walks = [
            [step_ids.setdefault(step, len(step_ids))
             for step in _sentence_profiles(sentence.pos_tags, sentence.gold_spans)]
            for sentence in corpus.sentences
        ]
        steps = list(step_ids)
        width = len(steps)
        edges: dict[int, int] = {}  # (parent key id + 1) * width + step id -> key id
        parent: list[int] = []  # key id -> parent key id, -1 at the root
        key_step: list[int] = []  # key id -> step id
        full: list[int] = []
        self.pairs: list[array] = []
        for walk in walks:
            profile: dict[int, int] = {}
            for p in range(len(walk)):
                up = -1
                for step in walk[p:p + max_tile_len]:
                    edge = (up + 1) * width + step
                    k = edges.get(edge)
                    if k is None:
                        k = edges[edge] = len(parent)
                        parent.append(up)
                        key_step.append(step)
                        full.append(0)
                    profile[k] = profile.get(k, 0) + 1
                    full[k] += 1
                    up = k
            pairs = [0] * (2 * len(profile))
            pairs[::2] = profile
            pairs[1::2] = profile.values()
            self.pairs.append(array("i", pairs))
        del edges
        self.full = full
        # seq ids by a second trie over (parent seq id, tag), in key order
        self.seq_ids: dict[tuple[int, str], int] = {}
        self.seqs: list[tuple[str, ...]] = []
        self.seq_parent: list[int] = []
        self.key_seq: list[int] = []
        self.keys: list[tuple] = []
        for up, step in zip(parent, key_step):
            tag, opens_here, closes_here = steps[step]
            if up < 0:
                up_seq, seq, opens, closes = -1, (), (), ()
            else:
                up_seq = self.key_seq[up]
                seq, opens, closes = self.keys[up]
            s = self.seq_ids.setdefault((up_seq, tag), len(self.seqs))
            if s == len(self.seqs):
                self.seqs.append(seq + (tag,))
                self.seq_parent.append(up_seq)
            at = len(seq)
            self.key_seq.append(s)
            self.keys.append((self.seqs[s], opens + (at,) if opens_here else opens,
                              closes + (at,) if closes_here else closes))
        self.seq_order = sorted(range(len(self.seqs)), key=self.seqs.__getitem__)
        self.seq_rank = [0] * len(self.seqs)  # seq id -> its seq's place in sorted order
        for r, s in enumerate(self.seq_order):
            self.seq_rank[s] = r
        self._tile_maps: dict[tuple[int, int], _TileMap] = {}

    def counts(self, ids: Iterable[int]) -> ProfileCounts:
        """The profile counts of the sentences ids, each as often as it occurs.

        That is full plus (m_s - 1) times each sentence's profile whose
        multiplicity m_s is not 1, so a view touches only the sentences it
        leaves out or repeats.
        """
        mult = Counter(ids)
        by_key = self.full.copy()
        for s, pairs in enumerate(self.pairs):
            extra = mult.get(s, 0) - 1
            if extra:
                it = iter(pairs)
                for k, count in zip(it, it):
                    by_key[k] += count * extra
        return ProfileCounts(by_key, max((self.max_np[s] for s in mult), default=0))

    def intern(self, tags: Sequence[str]) -> array:
        """For each start position of tags, the id of the longest seq that
        starts there, or -1.

        The walk from a start follows the (parent seq id, tag) edges of
        seq_ids and stops at the first window the index lacks: seqs are
        prefix-closed, so no longer window there is a seq either. The
        shorter windows at that start are the seq's ancestors by seq_parent.
        """
        seq_ids = self.seq_ids
        longest = array("i", [-1]) * len(tags)
        for p in range(len(tags)):
            s = -1
            for tag in tags[p:p + self.max_tile_len]:
                s = seq_ids.get((s, tag))
                if s is None:
                    break
                longest[p] = s
        return longest

    def tile_map(self, c: int, max_tile_len: int) -> _TileMap:
        """The tiles every key yields at context size c and tile length
        max_tile_len, with each key's positive and yielded tile ids; built
        once per (c, max_tile_len). A key longer than max_tile_len yields no
        tile, so no tile has its seq and it is positive for none.

        _window_tiles reads only a key's border layout (length, opens,
        closes), so the rule runs once per layout, and so does the choice of
        the marks a key is positive for: a tile's one opening and one
        closing mark, each absent or among the key's. A tile is coded as
        (rank of its seq) * len(marks) + (rank of its marks): sorting the
        codes sorts the tiles by (seq, opens, closes), as sorting the Tiles
        themselves does.
        """
        tile_map = self._tile_maps.get((c, max_tile_len))
        if tile_map is None:
            single = [()] + [(m,) for m in range(max_tile_len)]
            marks = list(product(single, single))  # (tile opens, tile closes), sorted
            mark_rank = {mark: r for r, mark in enumerate(marks)}
            width = len(marks)
            rules: dict[tuple, tuple[list[int], list[int]]] = {}  # layout -> mark ranks
            # key id -> (rank of its seq * width, its layout's rule); -1 if it is too long
            key_rules = []
            codes: set[int] = set()
            for (seq, opens, closes), s in zip(self.keys, self.key_seq):
                if len(seq) > max_tile_len:
                    key_rules.append((-1, None))
                    continue
                layout = (len(seq), opens, closes)
                rule = rules.get(layout)
                if rule is None:
                    rule = rules[layout] = (
                        [mark_rank[tile[1:]] for tile in _window_tiles(seq, opens, closes, c)],
                        [r for r, (o, m) in enumerate(marks) if (o or m)
                         and (not o or o[0] in opens) and (not m or m[0] in closes)],
                    )
                base = self.seq_rank[s] * width
                key_rules.append((base, rule))
                codes.update([base + r for r in rule[0]])
            order = sorted(codes)
            ids = {code: t for t, code in enumerate(order)}
            tiled = {code - code % width for code in order}  # bases of the seqs with tiles
            tile_seq = [self.seq_order[code // width] for code in order]
            positive = []
            yields = []
            for base, rule in key_rules:
                if base not in tiled:
                    positive.append(())
                    yields.append(())
                    continue
                yielded, carried = rule
                yields.append(tuple([ids[base + r] for r in yielded]))
                positive.append(tuple([t for t in map(ids.get, [base + r for r in carried])
                                       if t is not None]))
            tile_map = self._tile_maps[(c, max_tile_len)] = _TileMap(
                [Tile(self.seqs[s], *marks[code % width]) for s, code in zip(tile_seq, order)],
                tile_seq,
                positive,
                yields,
            )
        return tile_map


def mbsl_train_counts(index: MbslIndex, counts: ProfileCounts,
                      config: MbslConfig) -> MbslModel:
    """Train on the profile counts of index's sentences that counts sums.

    Tile counts are linear in the profile counts: a tile's pos is the sum
    over the keys positive for it, and pos + neg the sum over the keys of
    its seq. The table holds the tiles some counted key yields. The index
    must reach config.max_tile_len, or the tiles would be too short.
    """
    if config.max_tile_len > index.max_tile_len:
        raise ValueError(f"max_tile_len {config.max_tile_len} exceeds the index's "
                         f"{index.max_tile_len}")
    tiles, tile_seq, positive, yields = index.tile_map(config.context_size,
                                                       config.max_tile_len)
    pos = [0] * len(tiles)
    total = [0] * len(index.seqs)
    live = bytearray(len(tiles))
    key_seq = index.key_seq
    for k, count in enumerate(counts.by_key):
        if count:
            total[key_seq[k]] += count
            for t in positive[k]:
                pos[t] += count
            for t in yields[k]:
                live[t] = 1
    table: dict[Tile, tuple[int, int]] = {}
    entries: list = [None] * len(index.seqs)  # the model's index
    for t, tile in enumerate(tiles):
        if not live[t]:
            continue
        tile_pos = pos[t]
        tile_neg = total[tile_seq[t]] - tile_pos
        table[tile] = (tile_pos, tile_neg)
        if tile_pos < config.min_positive_count:
            continue
        score = tile_pos / (tile_pos + tile_neg)
        if score >= config.tile_threshold:
            entry = (
                score,
                tile.opens[0] if tile.opens else None,
                tile.closes[0] + 1 if tile.closes else None,
            )
            s = tile_seq[t]
            if entries[s] is None:
                entries[s] = [entry]
            else:
                entries[s].append(entry)
    return MbslModel(config, table, counts.max_np_len, entries, index)


def mbsl_train(corpus: Corpus, config: MbslConfig) -> MbslModel:
    """Train on every sentence of corpus once."""
    index = MbslIndex(corpus, config.max_tile_len)
    return mbsl_train_counts(index, index.counts(range(len(corpus))), config)


def mbsl_predict(model: MbslModel, sentence: Sentence) -> list[ChunkSpan]:
    """mbsl_predict_interned over sentence interned by the model's index."""
    return mbsl_predict_interned(model, model.source.intern(sentence.pos_tags))


def mbsl_predict_interned(model: MbslModel, longest: array) -> list[ChunkSpan]:
    """Score candidate spans by the pair rule; select covered ones greedily.

    longest is a sentence as model.source.intern gives it. Each window that
    is a seq of the index is visited once, from its start's longest seq
    down by seq_parent; a window the index lacks has no tiles. Each tile
    placement is filed under the border(s) it carries: both of (i, j), an
    opening at i or a closing at j. A single-border placement keeps only
    the best score per far end. A seq longer than the model's tile length
    has no tiles.
    """
    length = len(longest)
    index = model.index
    seqs, seq_parent = model.source.seqs, model.source.seq_parent
    best: dict[tuple[int, int], float] = {}  # (i, j) -> score
    opening: dict[int, dict[int, float]] = defaultdict(dict)  # i -> {end: best score}
    closing: dict[int, dict[int, float]] = defaultdict(dict)  # j -> {start: best score}
    for p, s in enumerate(longest):
        if s < 0:
            continue
        end = p + len(seqs[s])
        while s >= 0:
            for score, open_at, close_at in index[s] or ():
                if open_at is None:
                    starts = closing[p + close_at]
                    if score > starts.get(p, -1.0):
                        starts[p] = score
                elif close_at is None:
                    ends = opening[p + open_at]
                    if score > ends.get(end, -1.0):
                        ends[end] = score
                elif score > best.get((p + open_at, p + close_at), -1.0):
                    best[(p + open_at, p + close_at)] = score
            s = seq_parent[s]
            end -= 1
    # an opening tile inside (i, j) overlapping a closing tile inside (i, j)
    for i, ends in opening.items():
        for j in range(i + 1, min(length, i + model.max_np_len) + 1):
            starts = closing.get(j)
            if starts is None:
                continue
            for end, open_score in ends.items():
                if end > j:
                    continue
                for start, close_score in starts.items():
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
