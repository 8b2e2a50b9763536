import gc
import pickle

import pytest
from collections import Counter
from itertools import chain

from hypothesis import example, given, settings
from hypothesis import strategies as st

from npchunk.corpus import (
    ChunkSpan,
    Corpus,
    GenreGrammar,
    Sentence,
    generate_corpus,
)
from npchunk.mbsl import (
    MbslConfig,
    MbslIndex,
    Tile,
    _window_tiles,
    mbsl_predict,
    mbsl_predict_interned,
    mbsl_train,
    mbsl_train_counts,
)
from npchunk.evalstats import score_run
from npchunk.resample import derive_stream


def sent(tags, spans):
    words = tuple(f"w{i}" for i in range(len(tags)))
    return Sentence(words, tuple(tags), tuple(ChunkSpan(a, b) for a, b in spans))


TOY_GRAMMAR = GenreGrammar(
    name="closed-toy",
    np_patterns=((("DT", "NN"), 1.0),),
    glue_patterns=(
        (("VBD",), 2.0),
        (("IN",), 2.0),
        (("RB", "VBD"), 1.0),
    ),
    mean_nps=2.0, min_nps=0, max_nps=4,
)


class TestTraining:
    def test_tile_extraction_example(self):
        corpus = Corpus((sent(["DT", "NN", "VBD"], [(0, 2)]),))
        model = mbsl_train(corpus, MbslConfig(context_size=1, max_tile_len=3))
        expected = {
            Tile(("DT",), (0,), ()),                # [DT
            Tile(("NN",), (), (0,)),                # NN]
            Tile(("NN", "VBD"), (), (0,)),          # NN] VBD
            Tile(("DT", "NN"), (0,), (1,)),         # [DT NN]
            Tile(("DT", "NN", "VBD"), (0,), (1,)),  # [DT NN] VBD
        }
        assert set(model.table) == expected
        assert all(counts == (1, 0) for counts in model.table.values())

    def test_bootstrap_multiplicity_doubles_counts(self):
        s = sent(["DT", "NN", "VBD"], [(0, 2)])
        single = mbsl_train(Corpus((s,)), MbslConfig(1, 3))
        double = mbsl_train(Corpus((s, s)), MbslConfig(1, 3))
        assert set(single.table) == set(double.table)
        for tile, (pos, neg) in single.table.items():
            assert double.table[tile] == (2 * pos, 2 * neg)

    def test_negative_counting(self):
        # "DT NN" once inside a span, once fully outside
        corpus = Corpus((
            sent(["DT", "NN", "VBD"], [(0, 2)]),
            sent(["IN", "DT", "NN"], []),
        ))
        model = mbsl_train(corpus, MbslConfig(context_size=1, max_tile_len=3))
        assert model.table[Tile(("DT", "NN"), (0,), (1,))] == (1, 1)
        assert model.table[Tile(("DT",), (0,), ())] == (1, 1)

    def test_partial_border_is_negative(self):
        # "NN" inside a longer span has a close border but no open border
        corpus = Corpus((
            sent(["NN", "VBD"], [(0, 1)]),
            sent(["DT", "NN", "VBD"], [(0, 2)]),
        ))
        model = mbsl_train(corpus, MbslConfig(context_size=1, max_tile_len=3))
        pos, neg = model.table[Tile(("NN",), (0,), (0,))]
        assert (pos, neg) == (1, 1)

    def test_empty_gold_spans_empty_model(self):
        corpus = Corpus((sent(["DT", "NN"], []),))
        model = mbsl_train(corpus, MbslConfig())
        assert model.table == {}

    def test_training_permutation_invariant(self):
        corpus = generate_corpus(TOY_GRAMMAR, 40, derive_stream(3, "gen", 0))
        reversed_corpus = Corpus(tuple(reversed(corpus.sentences)))
        a = mbsl_train(corpus, MbslConfig(context_size=2))
        b = mbsl_train(reversed_corpus, MbslConfig(context_size=2))
        assert a.table == b.table

    def test_training_deterministic(self):
        corpus = generate_corpus(TOY_GRAMMAR, 50, derive_stream(9, "gen", 0))
        a = mbsl_train(corpus, MbslConfig(context_size=2))
        b = mbsl_train(corpus, MbslConfig(context_size=2))
        assert list(a.table.items()) == list(b.table.items())
        assert a.max_np_len == b.max_np_len

    def test_monotone_context(self):
        corpus = generate_corpus(TOY_GRAMMAR, 60, derive_stream(4, "gen", 0))
        small = mbsl_train(corpus, MbslConfig(context_size=1))
        large = mbsl_train(corpus, MbslConfig(context_size=3))
        for tile, counts in small.table.items():
            assert large.table[tile] == counts


class TestPrediction:
    def test_recalls_own_training_instance(self):
        s = sent(["DT", "NN", "VBD"], [(0, 2)])
        model = mbsl_train(Corpus((s,)), MbslConfig(1, 3))
        assert mbsl_predict(model, s) == [ChunkSpan(0, 2)]

    def test_empty_model_predicts_nothing(self):
        model = mbsl_train(Corpus((sent(["DT"], []),)), MbslConfig())
        assert mbsl_predict(model, sent(["DT", "NN", "VBD"], [])) == []

    def test_predictions_disjoint(self):
        corpus = generate_corpus(TOY_GRAMMAR, 80, derive_stream(5, "gen", 0))
        model = mbsl_train(corpus, MbslConfig(context_size=1))
        probe = generate_corpus(TOY_GRAMMAR, 40, derive_stream(5, "gen", 1))
        for sentence in probe.sentences:
            spans = mbsl_predict(model, sentence)
            prev = 0
            for span in spans:
                assert span.start >= prev
                assert span.end <= len(sentence)
                prev = span.end

    @pytest.mark.parametrize("c", [1, 3])
    def test_closed_grammar_heldout_recall_is_one(self, c):
        train = generate_corpus(TOY_GRAMMAR, 300, derive_stream(6, "gen", 0))
        held = generate_corpus(TOY_GRAMMAR, 100, derive_stream(6, "gen", 1))
        model = mbsl_train(train, MbslConfig(context_size=c))
        predictions = [mbsl_predict(model, s) for s in held.sentences]
        assert score_run(held, predictions).recall == 1.0

    def test_self_recall_on_training_corpus(self):
        train = generate_corpus(TOY_GRAMMAR, 200, derive_stream(7, "gen", 0))
        model = mbsl_train(train, MbslConfig(context_size=1))
        predictions = [mbsl_predict(model, s) for s in train.sentences]
        assert score_run(train, predictions).recall == 1.0


# Random small corpora over a two-tag alphabet: a sentence is a run of
# segments, each either a gold NP or outside material.
_segments = st.lists(
    st.tuples(st.booleans(), st.lists(st.sampled_from("AB"), min_size=1, max_size=4)),
    max_size=5,
)


def _sentence(segments):
    tags, spans = [], []
    for is_np, seg in segments:
        if is_np:
            spans.append((len(tags), len(tags) + len(seg)))
        tags.extend(seg)
    return sent(tags, spans)


def _span_tiles(sentence, c, max_tile_len):
    """Tiles read off the gold spans: each chunk with up to c tags of context
    on each side, and each border alone with 1..c tags inside and up to c
    outside; no tile longer than max_tile_len."""
    tags, length = sentence.pos_tags, len(sentence)
    tiles = set()
    for start, end in sentence.gold_spans:
        for left in range(min(c, start) + 1):
            for right in range(min(c, length - end) + 1):
                if left + end - start + right <= max_tile_len:
                    tiles.add(Tile(tags[start - left:end + right], (left,),
                                   (left + end - start - 1,)))
        for inside in range(1, min(c, end - start) + 1):
            for outside in range(min(c, start) + 1):
                if inside + outside <= max_tile_len:
                    tiles.add(Tile(tags[start - outside:start + inside], (outside,), ()))
            for outside in range(min(c, length - end) + 1):
                if inside + outside <= max_tile_len:
                    tiles.add(Tile(tags[end - inside:end + outside], (), (inside - 1,)))
    return tiles


def _entries_by_seq(model):
    """The model's tile entries keyed by seq, not by its own index's seq ids,
    each seq's as a multiset: two indexes number their tiles apart."""
    return {model.source.seqs[s]: Counter(entries)
            for s, entries in enumerate(model.index) if entries is not None}


class TestTileRule:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        train=st.lists(_segments, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        c=st.integers(0, 4),
        max_tile_len=st.integers(1, 7),
    )
    def test_profile_tiles_equal_span_extraction(self, train, picks, c, max_tile_len):
        # _segments draws adjacent chunks too, so a window can hold a close
        # directly followed by an opening; picks are training ids, repeats allowed
        corpus = Corpus(tuple(_sentence(segments) for segments in train))
        ids = [pick % len(corpus) for pick in picks]
        view = Corpus(tuple(corpus.sentences[i] for i in ids))
        cfg = MbslConfig(c, max_tile_len)
        index = MbslIndex(corpus, max_tile_len)
        model = mbsl_train_counts(index, index.counts(ids), cfg)
        expected = set().union(*(_span_tiles(s, c, max_tile_len) for s in view.sentences))
        assert model.table.keys() == expected
        for tile, counts in model.table.items():
            assert counts == _window_counts(view, tile)
        reference = mbsl_train(view, cfg)
        assert _entries_by_seq(model) == _entries_by_seq(reference)
        assert model.max_np_len == reference.max_np_len

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        train=st.lists(_segments, min_size=1, max_size=6),
        c=st.integers(0, 4),
        index_len=st.integers(1, 7),
        shorter_by=st.integers(0, 6),
    )
    def test_tile_map_equals_per_key_reference(self, train, c, index_len, shorter_by):
        # each key's tiles straight from _window_tiles, and positive by
        # subset tests of the marks; tile ids follow no order an output reads,
        # so the tiles are checked as a set and every id list through them
        corpus = Corpus(tuple(_sentence(segments) for segments in train))
        index = MbslIndex(corpus, index_len)
        max_tile_len = max(1, index_len - shorter_by)
        keys = _keys(index)
        assert len(set(index.seqs)) == len(index.seqs)
        assert [index.layouts[layout][0] for layout in index.key_layout] == \
            [len(index.seqs[s]) for s in index.key_seq]
        assert [index.seqs[s] if s >= 0 else () for s in index.seq_parent] == \
            [seq[:-1] for seq in index.seqs]
        yielded = [
            [Tile(seq, *marks) for marks in _window_tiles(len(seq), opens, closes, c)]
            if len(seq) <= max_tile_len else []
            for seq, opens, closes in keys
        ]
        tiles = set(chain.from_iterable(yielded))
        tile_map = index.tile_map(c, max_tile_len)
        assert len(tile_map.tiles) == len(tiles) and set(tile_map.tiles) == tiles
        assert tile_map.tile_seq == [index.seqs.index(tile.seq) for tile in tile_map.tiles]
        # each key's positive tiles in the order of their marks
        assert [tuple(tile_map.tiles[t] for t in ids) for ids in tile_map.positive] == [
            tuple(tile for tile in sorted(tiles) if tile.seq == seq
                  and set(tile.opens).issubset(opens) and set(tile.closes).issubset(closes))
            for seq, opens, closes in keys
        ]
        assert [[tile_map.tiles[t] for t in ids] for ids in tile_map.yields] == yielded


def _keys(index):
    """Each key's (seq, opens, closes), by key id, from its seq id and its
    layout id."""
    return [(index.seqs[s], *index.layouts[layout][1:])
            for s, layout in zip(index.key_seq, index.key_layout)]


def _window_key(sentence, p, l):
    """The profile key (seq, opens, closes) of the l tags of sentence at p."""
    starts = {start for start, _ in sentence.gold_spans}
    ends = {end for _, end in sentence.gold_spans}
    opens = tuple(m for m in range(l) if p + m in starts)
    closes = tuple(m for m in range(l) if p + m + 1 in ends)
    return sentence.pos_tags[p:p + l], opens, closes


def _brute_profile(sentence, max_tile_len):
    """Every window of at most max_tile_len tags, keyed by (seq, opens, closes)
    and counted."""
    length = len(sentence)
    return Counter(_window_key(sentence, p, l) for p in range(length)
                   for l in range(1, min(max_tile_len, length - p) + 1))


class TestProfileIndex:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example(segments=[], max_tile_len=3)  # no tokens: no end, no key
    @example(segments=[(True, ["A", "B"]), (False, ["B", "A"])], max_tile_len=1)
    @given(segments=_segments, max_tile_len=st.integers(1, 7))
    def test_profiles_equal_brute_force(self, segments, max_tile_len):
        sentence = _sentence(segments)
        index = MbslIndex(Corpus((sentence,)), max_tile_len)
        # keys are distinct, and each is its parent extended by one step
        keys = _keys(index)
        assert len(set(keys)) == len(keys) == len(index.parent)
        for k, up in enumerate(index.parent):
            assert up < k
            seq, opens, closes = keys[k]
            last = len(seq) - 1
            assert (keys[up] if up >= 0 else ((), (), ())) == (
                seq[:last], tuple(m for m in opens if m < last),
                tuple(m for m in closes if m < last))
        # each start ends at the key of its longest window
        length = len(sentence)
        assert [keys[k] for k in index.ends[0]] == \
            [_window_key(sentence, p, min(max_tile_len, length - p)) for p in range(length)]
        # per key, the windows counted up the trie
        assert dict(zip(keys, index.counts([0]).by_key)) == \
            dict(_brute_profile(sentence, max_tile_len))
        # each distinct layout once and every one some key's; a key's layout
        # holds its seq's length, and its borders are the brute-force ones,
        # as the keys rebuilt from the layouts equal the brute-force keys above
        assert len(set(index.layouts)) == len(index.layouts)
        assert set(index.key_layout) == set(range(len(index.layouts)))
        assert [index.layouts[layout] for layout in index.key_layout] == \
            [(len(seq), opens, closes) for seq, opens, closes in keys]

    def test_counts_rejects_unknown_ids(self):
        corpus = Corpus((sent(["DT", "NN"], [(0, 2)]), sent(["VBD"], [])))
        index = MbslIndex(corpus, 3)
        for bad in (-1, 2):
            with pytest.raises(ValueError, match=f"sentence id {bad} is outside range\\(2\\)"):
                index.counts([0, bad, 1])

    def test_index_pickles_and_makes_no_cycles(self):
        # an index survives pickling whole, and a run keeps the cyclic
        # garbage collector off
        corpus = Corpus((sent(["DT", "NN", "VBD", "DT", "JJ", "NN"], [(0, 2), (3, 6)]),
                         sent(["NN", "VBD"], [(0, 1)])))
        was = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            index = MbslIndex(corpus, 3)
            copy = pickle.loads(pickle.dumps(index))
            assert vars(copy) == vars(index)
            assert not any(callable(value) for value in vars(index).values())
            del index, copy
            assert gc.collect() == 0
        finally:
            (gc.enable if was else gc.disable)()

    @settings(max_examples=300, deadline=None, derandomize=True)
    # the longest NP lies in the sentence left out
    @example(train=[[(True, ["A"])], [(True, ["A", "B", "A"])]], max_tile_len=3,
             shape="drawn", picks=[0, 0], k=2, fold=0)
    @given(
        train=st.lists(_segments, min_size=1, max_size=6),
        max_tile_len=st.integers(1, 7),
        shape=st.sampled_from(("drawn", "all", "complement")),
        picks=st.lists(st.integers(0, 5), max_size=12),
        k=st.integers(2, 5),
        fold=st.integers(0, 4),
    )
    def test_counts_equal_brute_force_sums(self, train, max_tile_len, shape, picks, k, fold):
        # ids as resamples give them: drawn with repeats and absences, every
        # sentence once, or all but one fold of a CV-style split
        corpus = Corpus(tuple(_sentence(segments) for segments in train))
        n = len(corpus)
        ids = {
            "drawn": [pick % n for pick in picks],
            "all": range(n),
            "complement": [i for i in range(n) if i % k != fold % k],
        }[shape]
        index = MbslIndex(corpus, max_tile_len)
        expected = Counter()
        for i in ids:
            expected.update(_brute_profile(corpus.sentences[i], max_tile_len))
        counts = index.counts(ids)
        assert counts.by_key == [expected[key] for key in _keys(index)]
        assert counts.max_np_len == max(
            (end - start for i in ids for start, end in corpus.sentences[i].gold_spans),
            default=0,
        )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        train=st.lists(_segments, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=12),
        systems=st.tuples(*[st.tuples(st.integers(0, 4), st.integers(1, 7))] * 2),
    )
    def test_shared_counts_train_like_materialized_ids(self, train, picks, systems):
        # two (c, max_tile_len) settings trained from one count vector of one
        # index at the longer tile length, as the harness does
        corpus = Corpus(tuple(_sentence(segments) for segments in train))
        ids = [pick % len(corpus) for pick in picks]
        view = Corpus(tuple(corpus.sentences[i] for i in ids))
        index = MbslIndex(corpus, max(length for _, length in systems))
        counts = index.counts(ids)
        for c, max_tile_len in systems:
            cfg = MbslConfig(c, max_tile_len)
            model = mbsl_train_counts(index, counts, cfg)
            reference = mbsl_train(view, cfg)
            assert model.table == reference.table
            assert _entries_by_seq(model) == _entries_by_seq(reference)
            assert model.max_np_len == reference.max_np_len

    def test_index_shorter_than_config_is_an_error(self):
        corpus = Corpus((sent(["DT", "NN", "VBD", "DT", "JJ", "NN"], [(0, 2), (3, 6)]),))
        index = MbslIndex(corpus, 3)
        with pytest.raises(ValueError, match="max_tile_len 4 exceeds the index's 3"):
            mbsl_train_counts(index, index.counts([0]), MbslConfig(1, 4))


def _window_counts(corpus, tile):
    """(pos, neg) by brute force: every window of corpus with the tile's tags,
    positive when gold borders sit at all of the tile's marks."""
    pos = neg = 0
    for sentence in corpus.sentences:
        starts = {start for start, _ in sentence.gold_spans}
        ends = {end for _, end in sentence.gold_spans}
        for p in range(len(sentence) - len(tile.seq) + 1):
            if sentence.pos_tags[p:p + len(tile.seq)] != tile.seq:
                continue
            if (all(p + o in starts for o in tile.opens)
                    and all(p + m + 1 in ends for m in tile.closes)):
                pos += 1
            else:
                neg += 1
    return pos, neg


def _chain_score(model, tiles_by_seq, tags, i, j):
    """Best lowest tile score over border-to-border chains of overlapping
    tiles for candidate (i, j), or None: for each threshold, from the
    highest down, a BFS from the tiles carrying the opening border."""
    cfg = model.config
    c = cfg.context_size
    placed = []  # (score, start, end, carries_open, carries_close)
    for p in range(max(0, i - c), min(len(tags), j + c)):
        for end in range(p + 1, min(len(tags), j + c, p + cfg.max_tile_len) + 1):
            for tile in tiles_by_seq.get(tags[p:end], ()):
                pos, neg = model.table[tile]
                if pos < cfg.min_positive_count:
                    continue
                score = pos / (pos + neg)
                if score < cfg.tile_threshold:
                    continue
                if tile.opens and p + tile.opens[0] != i:
                    continue
                if tile.closes and p + tile.closes[0] + 1 != j:
                    continue
                if not tile.closes and end > j or not tile.opens and p < i:
                    continue  # would run past the candidate's other border
                placed.append((score, p, end, bool(tile.opens), bool(tile.closes)))
    for threshold in sorted({t[0] for t in placed}, reverse=True):
        usable = [t for t in placed if t[0] >= threshold]
        seen = [t for t in usable if t[3]]
        queue = list(seen)
        while queue:
            _, start, end, _, _ = queue.pop()
            for other in usable:
                if other not in seen and other[1] < end and start < other[2]:
                    seen.append(other)
                    queue.append(other)
        if any(t[4] for t in seen):
            return threshold
    return None


def _oracle_predict(model, sentence):
    tags = sentence.pos_tags
    tiles_by_seq = {}
    for tile in model.table:
        tiles_by_seq.setdefault(tile.seq, []).append(tile)
    covered = []
    for i in range(len(tags)):
        for j in range(i + 1, min(len(tags), i + model.max_np_len) + 1):
            score = _chain_score(model, tiles_by_seq, tags, i, j)
            if score is not None:
                covered.append((score, i, j))
    covered.sort(key=lambda item: (-item[0], -(item[2] - item[1]), item[1]))
    taken, occupied = [], [False] * len(tags)
    for _, i, j in covered:
        if not any(occupied[i:j]):
            occupied[i:j] = [True] * (j - i)
            taken.append(ChunkSpan(i, j))
    return sorted(taken, key=lambda s: s.start)


class TestPairRule:
    @settings(max_examples=300, deadline=None, derandomize=True)
    # an opening and a closing tile of "[A A A]" at c=3 overlap across four
    # tags, one more than the longest gold NP
    @example(train=[[(False, ["A"]), (True, ["A", "A", "A"])]], probes=[], picks=[0], c=3,
             max_tile_len=3, tile_threshold=0.0, min_positive_count=1)
    # the pair rule keeps the best score per border and far end: keeping the
    # first opening-only score per (i, end) fails the first example, and the
    # first closing-only score per (j, start) the second
    @example(train=[[(True, ["B"]), (True, ["B", "B"])]], probes=[], picks=[0], c=1,
             max_tile_len=2, tile_threshold=0.0, min_positive_count=1)
    @example(train=[[(False, ["A"]), (True, ["A"]), (True, ["A", "A", "B"])]], probes=[],
             picks=[0], c=2, max_tile_len=2, tile_threshold=0.0, min_positive_count=1)
    # a walk that skipped the unseen "C" would read "A C B" as the seq "A B"
    @example(train=[[(True, ["A", "B"])]], probes=[["A", "C", "B"]], picks=[0], c=1,
             max_tile_len=3, tile_threshold=0.0, min_positive_count=1)
    @given(
        train=st.lists(_segments, min_size=1, max_size=8),
        # "C" never occurs in training
        probes=st.lists(st.lists(st.sampled_from("ABC"), max_size=10), max_size=4),
        picks=st.lists(st.integers(0, 7), min_size=1, max_size=8),
        c=st.integers(0, 3),
        max_tile_len=st.integers(1, 6),
        tile_threshold=st.sampled_from([0.0, 0.5, 0.8]),
        min_positive_count=st.sampled_from([1, 2]),
    )
    def test_border_tiles_and_chain_oracle(self, train, probes, picks, c, max_tile_len,
                                           tile_threshold, min_positive_count):
        # the sentences are interned once and predicted under two models
        # trained from different count vectors of one index, as the harness
        # predicts its test corpora under every resample's model
        corpus = Corpus(tuple(_sentence(segments) for segments in train))
        cfg = MbslConfig(c, max_tile_len, tile_threshold, min_positive_count)
        index = MbslIndex(corpus, max_tile_len)
        sentences = list(corpus.sentences) + [sent(tags, []) for tags in probes]
        interned = [index.intern(sentence.pos_tags) for sentence in sentences]
        seq_ids = {seq: s for s, seq in enumerate(index.seqs)}
        for sentence, starts in zip(sentences, interned):
            # the id of the longest window at each start that is a seq
            tags = sentence.pos_tags
            assert list(starts) == [
                next((seq_ids[tags[p:e]] for e in range(len(tags), p, -1)
                      if tags[p:e] in seq_ids), -1)
                for p in range(len(tags))
            ]
        for ids in (range(len(corpus)), [pick % len(corpus) for pick in picks]):
            model = mbsl_train_counts(index, index.counts(ids), cfg)
            for tile in model.table:
                # every tile carries a border, with at most c tags outside it,
                # and a single-border tile holds 1..c tags inside
                assert tile.opens or tile.closes
                if tile.opens:
                    assert tile.opens[0] <= c
                if tile.closes:
                    assert len(tile.seq) - 1 - tile.closes[0] <= c
                if not tile.closes:
                    assert 1 <= len(tile.seq) - tile.opens[0] <= c
                if not tile.opens:
                    assert 1 <= tile.closes[0] + 1 <= c
            for sentence, starts in zip(sentences, interned):
                expected = _oracle_predict(model, sentence)
                assert mbsl_predict_interned(model, starts) == expected
                assert mbsl_predict(model, sentence) == expected
