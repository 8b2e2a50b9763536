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
extend a window by one tag and its border marks. A window (p, l) is the
depth-l key on the trie path of the longest window at p, so P_s(k), the
number of windows of sentence s with key k, is the number of starts of s
whose longest window's key (its end) lies in k's subtree. The index holds
each sentence's ends, one key id per start, and F, the end counts of every
sentence once. The index is the only store of profiles: it lives in its
experiment, and nothing persists from one experiment to the next. A
resample's count vector (MbslIndex.counts) adds (m_s - 1) to F at each end
of each sentence whose m_s is not 1, which reads only the sentences the
resample leaves out or repeats, then sums each key's count into its parent,
once over the trie; it is shared by every context size and tile length.
The profile at a shorter tile length L is the longer one's keys of at most
L tags, with the same counts, so one index at the longest tile length
serves them all. The index names each key by its seq id and its border
layout's id, a layout being (length, opens, closes). Per context size and
tile length it lists the tiles once, each named by (seq id, opens,
closes), and each key's positive and yielded tile ids, running the tile
rule once per layout id; training (mbsl_train_counts) pushes the counts to
tile ids and keeps the tiles some counted key yields, in a table keyed by
those names. POS tags live only on the edges of the index's seq trie;
everywhere else a seq is its id, and its length seq_len.

A tile's counts read only the keys of its seq, so a tile map may cover a
set of served seqs alone: the seqs of the sentences a model will predict,
closed under seq_parent (MbslIndex.served). Its tiles, their order within
each seq and their counts are then the full map's for every served seq;
an unserved seq has no tiles. An experiment makes its tile maps over the
seqs of its interned test corpora, so its models' tables and indexes cover
those seqs only; mbsl_train, and a tile map asked for without a served
set, cover every seq.

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
from functools import lru_cache
from itertools import chain, count
from types import SimpleNamespace
from typing import Iterable, NamedTuple, Sequence

from .corpus import ChunkSpan, Corpus, Sentence, _check_ids, _Checked


class _MbslConfig(NamedTuple):
    context_size: int = 1
    max_tile_len: int = 6
    tile_threshold: float = 0.5
    min_positive_count: int = 1


class MbslConfig(_Checked, _MbslConfig):
    __slots__ = ()

    def _check(self):
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
    key is its first tag's step, then each next tag's.
    """
    opening = [False] * len(tags)
    closing = [False] * len(tags)
    for start, end in spans:
        opening[start] = closing[end - 1] = True
    return list(zip(tags, opening, closing))


class MbslModel(NamedTuple):
    """A trained MBSL model; source.seq_ids decodes the seq ids of table and index."""

    config: MbslConfig
    # tile name (seq id, opens, closes) -> (pos_count, neg_count), for the
    # tiles some counted key yields, of the served seqs if training named them
    table: dict[tuple[int, tuple[int, ...], tuple[int, ...]], tuple[int, int]]
    max_np_len: int
    # seq id of source -> [(score, open, close)] for the tiles of that seq that
    # pass the filters, or None (always, for a seq outside the served set);
    # open/close are border positions from the tile start, None if not carried
    index: list[list[tuple[float, int | None, int | None]] | None]
    source: MbslIndex  # the index trained from, whose seq ids key index


def _window_tiles(length: int, opens: tuple[int, ...], closes: tuple[int, ...],
                  c: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The (opens, closes) marks of the tiles a window of length tags with
    the border layout (opens, closes) yields at context size c (module
    docstring)."""
    marks = []
    for o in opens:
        if o > c:
            break
        m = next((m for m in closes if m >= o), None)
        if m is not None and length - 1 - m <= c:
            marks.append(((o,), (m,)))
        if length - o <= c and m in (None, length - 1):
            marks.append(((o,), ()))
    inner_open = next((o for o in opens if o > 0), length)
    for m in closes:
        if m + 1 > c or m >= inner_open:
            break
        if length - 1 - m <= c:
            marks.append(((), (m,)))
    return marks


class ProfileCounts(NamedTuple):
    """Profile counts of a multiset of sentences, sum_s m_s*P_s."""

    by_key: list[int]  # key id of an MbslIndex -> occurrences
    max_np_len: int  # longest gold NP among the sentences


class _TileMap(NamedTuple):
    """An MbslIndex's tiles at one context size, in table order, over the
    keys it covers: every key, or the keys of a set of served seqs."""

    # tile id -> its name (seq id, opens, closes), in order of first yield: a
    # chunk opens just before the seq's tag m for m in opens, and closes just
    # after its tag m for m in closes
    names: list[tuple[int, tuple[int, ...], tuple[int, ...]]]
    keys: Sequence[int]  # the key ids covered, increasing; positive and yields align with them
    positive: list[tuple[int, ...]]  # covered key -> ids of the tiles it is positive for
    yields: list[tuple[int, ...]]  # covered key -> ids of the tiles _window_tiles gives


def _add_key(edges: dict[int, int], parent: list[int], key_step: list[int],
             link: list[int], width: int, u: int, step: int) -> int:
    """Add the key u extended by step, which edges lacks, and return its id.

    Its suffix link is the link of u extended by step. When that key is
    missing too, it is added first, and so on down the links of u; so a
    key's link and parent always have smaller ids than the key.
    """
    missing = [u]
    while u >= 0:
        u = link[u]
        k = edges.get((u + 1) * width + step)
        if k is not None:
            break
        missing.append(u)
    else:
        k = -1  # a one-step key links to the root
    for u in reversed(missing):
        new = edges[(u + 1) * width + step] = len(parent)
        parent.append(u)
        key_step.append(step)
        link.append(k)
        k = new
    return k


class MbslIndex:
    """The window profiles of a training corpus, interned once.

    The profile keys form a trie: a window's key is the key of the window
    one tag shorter at the same start (its parent), extended by one step
    (tag, a chunk opens before it, a chunk closes after it). The build walks
    only each start's longest window, of up to max_tile_len steps, through
    suffix links: the link of a key is the key of its steps without the
    first one. The longest window at p + 1 is the link of the one at p,
    extended by the step at p + max_tile_len while that is in the sentence,
    so each start costs about one edge lookup. A new key gets its link
    first, so a key's id is larger than its parent's and its link's; ids
    come in that creation order, which no output reads. seq ids and layout
    ids come in key order, from (parent seq id, tag) and (parent layout id,
    opens here, closes here) edges. The key edges and links live only while
    the index is built; the seq edges stay, as seq_ids, so that intern can
    map test windows to seq ids.

    A key k is named by its seq and its border layout: key_seq[k] is the id
    of its seq, seq_len[i] the number of tags of seq i and seq_parent[i]
    the id of seq i without its last tag (-1 for a one-tag seq), the tags
    being only on the seq_ids edges; key_layout[k] is the id of its
    layout, and layouts[i] the layout (length, opens, closes) of id i, each
    distinct layout once. parent[k] is the id of k's parent (-1 for a
    one-step key). ends[s] holds, per start of sentence s, the key id of the
    longest window there, max_np[s] its longest gold NP, and full[k] how
    many starts of all the sentences end at key k, from which counts(ids)
    starts.
    The index is the only store of these profiles, and nothing is kept
    between experiments. tile_map(c, max_tile_len, served) lists the tiles
    the keys of the served seqs (all keys, if served is None) yield at
    context size c and that tile length, made on the first call and kept;
    an experiment makes its tile maps, over the seqs its test corpora serve,
    before any training.
    """

    def __init__(self, corpus: Corpus, max_tile_len: int):
        self.max_tile_len = max_tile_len
        self.max_np = [max((end - start for start, end in sentence.gold_spans), default=0)
                       for sentence in corpus.sentences]
        # step -> id, in order of first occurrence
        step_ids: defaultdict[tuple[str, bool, bool], int] = defaultdict(count().__next__)
        walks = [
            list(map(step_ids.__getitem__,
                     _sentence_profiles(sentence.pos_tags, sentence.gold_spans)))
            for sentence in corpus.sentences
        ]
        steps = list(step_ids)
        width = len(steps)
        edges: dict[int, int] = {}  # (parent key id + 1) * width + step id -> key id
        parent: list[int] = []  # key id -> parent key id, -1 at the root
        key_step: list[int] = []  # key id -> step id
        link: list[int] = []  # key id -> its suffix link's key id, -1 at the root
        self.ends: list[array] = []
        for walk in walks:
            ends: list[int] = []  # the key of the longest window at each start
            u = -1  # the root; then the longest window at the first start
            for step in walk[:max_tile_len]:
                k = edges.get((u + 1) * width + step)
                u = _add_key(edges, parent, key_step, link, width, u, step) if k is None else k
            # the longest window at the next start is u without its first step
            # (its link), extended by the step after u while that is in the walk
            for step in walk[max_tile_len:]:
                ends.append(u)
                u = link[u]
                k = edges.get((u + 1) * width + step)
                u = _add_key(edges, parent, key_step, link, width, u, step) if k is None else k
            for _ in walk[-max_tile_len:]:
                ends.append(u)
                u = link[u]
            self.ends.append(array("i", ends))
        del edges, link
        self.parent = parent
        self.full = [0] * len(parent)
        for k, starts in Counter(chain.from_iterable(self.ends)).items():
            self.full[k] = starts
        # seq ids by a second trie over (parent seq id, tag), and layout ids
        # by a third over (parent layout id, opens here, closes here), both
        # in key order
        self.seq_ids: dict[tuple[int, str], int] = {}
        self.seq_len: list[int] = []
        self.seq_parent: list[int] = []
        self.key_seq: list[int] = []
        self.layouts: list[tuple[int, tuple[int, ...], tuple[int, ...]]] = []
        self.key_layout: list[int] = []
        layout_ids: dict[tuple[int, bool, bool], int] = {}
        for up, step in zip(parent, key_step):
            tag, opens_here, closes_here = steps[step]
            up_seq, up_layout = (self.key_seq[up], self.key_layout[up]) if up >= 0 else (-1, -1)
            s = self.seq_ids.setdefault((up_seq, tag), len(self.seq_len))
            if s == len(self.seq_len):
                self.seq_len.append(self.seq_len[up_seq] + 1 if up_seq >= 0 else 1)
                self.seq_parent.append(up_seq)
            self.key_seq.append(s)
            layout = layout_ids.setdefault((up_layout, opens_here, closes_here), len(self.layouts))
            if layout == len(self.layouts):
                at, opens, closes = self.layouts[up_layout] if up_layout >= 0 else (0, (), ())
                self.layouts.append((at + 1, opens + (at,) if opens_here else opens,
                                     closes + (at,) if closes_here else closes))
            self.key_layout.append(layout)
        self._tile_maps: dict[tuple[int, int, frozenset[int] | None], _TileMap] = {}

    def counts(self, ids: Iterable[int]) -> ProfileCounts:
        """The profile counts of the sentences ids, each as often as it occurs.

        The end counts are full plus m_s - 1 at each end of each sentence
        whose multiplicity m_s is not 1, so a view touches only the
        sentences it leaves out or repeats. A key's count is then the sum of
        the end counts in its subtree. An id outside range(len(corpus)) is a
        ValueError.
        """
        mult = Counter(ids)
        _check_ids(mult, len(self.ends))
        by_key = self.full.copy()
        for s, ends in enumerate(self.ends):
            extra = mult.get(s, 0) - 1
            if extra:
                for k in ends:
                    by_key[k] += extra
        # each key's count into its parent's, children first (a key's id is
        # larger than its parent's); a one-step key's parent -1 adds into a
        # trailing slot that is then dropped
        by_key.append(0)
        parent = self.parent
        for k, up in zip(range(len(parent) - 1, -1, -1), reversed(parent)):
            by_key[up] += by_key[k]
        by_key.pop()
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

    def served(self, interned: Iterable[array]) -> frozenset[int]:
        """The seqs that prediction on the interned sentences reads: each
        start's longest seq (intern) and all of its seq_parent ancestors."""
        served: set[int] = set()
        seq_parent = self.seq_parent
        for s in set(chain.from_iterable(interned)):
            while s >= 0 and s not in served:
                served.add(s)
                s = seq_parent[s]
        return frozenset(served)

    def tile_map(self, c: int, max_tile_len: int,
                 served: frozenset[int] | None = None) -> _TileMap:
        """The tiles the keys of the served seqs (every key, if served is
        None) yield at context size c and tile length max_tile_len, with
        each covered key's positive and yielded tile ids; built once per
        (c, max_tile_len, served). A key longer than max_tile_len yields no
        tile, so no tile has its seq and it is positive for none.

        _window_tiles reads only a key's border layout, so the rule runs once
        per layout id. A tile is named by (seq id, opens, closes) and
        numbered in the order the covered keys, by id, first yield it. Only
        keys of its seq yield a tile or are positive for it, so a served
        seq's tiles come in the full map's order. A key is positive for each
        tile of its seq whose marks it carries, listed in increasing tile-id
        order.
        """
        tile_map = self._tile_maps.get((c, max_tile_len, served))
        if tile_map is None:
            key_seq, key_layout = self.key_seq, self.key_layout
            keys = (range(len(key_seq)) if served is None else
                    [k for k, s in enumerate(key_seq) if s in served])
            rules = [_window_tiles(*layout, c) if layout[0] <= max_tile_len else []
                     for layout in self.layouts]
            # (seq id, opens, closes) -> tile id, in order of first yield
            ids: dict[tuple, int] = {}
            yields = [tuple([ids.setdefault((key_seq[k], *marks), len(ids))
                             for marks in rules[key_layout[k]]])
                      for k in keys]
            # seq id -> [(opens, closes, tile id)] of its tiles, in tile-id order
            by_seq: defaultdict[int, list] = defaultdict(list)
            for (s, opens, closes), t in ids.items():
                by_seq[s].append((opens, closes, t))
            positive = []
            for k in keys:
                _, opens, closes = self.layouts[key_layout[k]]
                positive.append(tuple([t for o, m, t in by_seq.get(key_seq[k], ())
                                       if (not o or o[0] in opens) and (not m or m[0] in closes)]))
            tile_map = self._tile_maps[(c, max_tile_len, served)] = _TileMap(
                list(ids), keys, positive, yields)
        return tile_map


def mbsl_train_counts(index: MbslIndex, counts: ProfileCounts, config: MbslConfig,
                      served: frozenset[int] | None = None) -> MbslModel:
    """Train on the profile counts of index's sentences that counts sums,
    over the tile map of the served seqs (of every seq, if served is None).

    Tile counts are linear in the profile counts: a tile's pos is the sum
    over the keys positive for it, and pos + neg the sum over the keys of
    its seq. The table holds the tiles some counted key yields. A served
    seq's entries in the model's index are the ones a full map gives; an
    unserved seq has none. The index must reach config.max_tile_len, or the
    tiles would be too short.
    """
    if config.max_tile_len > index.max_tile_len:
        raise ValueError(f"max_tile_len {config.max_tile_len} exceeds the index's "
                         f"{index.max_tile_len}")
    names, keys, positive, yields = index.tile_map(config.context_size,
                                                   config.max_tile_len, served)
    pos = [0] * len(names)
    total = [0] * len(index.seq_len)
    live = bytearray(len(names))
    key_seq, by_key = index.key_seq, counts.by_key
    for k, key_positive, key_yields in zip(keys, positive, yields):
        count = by_key[k]
        if count:
            total[key_seq[k]] += count
            for t in key_positive:
                pos[t] += count
            for t in key_yields:
                live[t] = 1
    table: dict[tuple, tuple[int, int]] = {}
    entries: list = [None] * len(index.seq_len)  # the model's index
    min_positive, threshold = config.min_positive_count, config.tile_threshold
    for name, tile_pos, is_live in zip(names, pos, live):
        if not is_live:
            continue
        s, opens, closes = name
        tile_neg = total[s] - tile_pos
        table[name] = (tile_pos, tile_neg)
        if tile_pos < min_positive:
            continue
        score = tile_pos / (tile_pos + tile_neg)
        if score >= threshold:
            entry = (score, opens[0] if opens else None, closes[0] + 1 if closes else None)
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
    seq_len, seq_parent = model.source.seq_len, model.source.seq_parent
    best: dict[tuple[int, int], float] = {}  # (i, j) -> score
    opening: dict[int, dict[int, float]] = defaultdict(dict)  # i -> {end: best score}
    closing: dict[int, dict[int, float]] = defaultdict(dict)  # j -> {start: best score}
    for p, s in enumerate(longest):
        if s < 0:
            continue
        end = p + seq_len[s]
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
