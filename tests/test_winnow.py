import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npchunk.corpus import ChunkSpan, Corpus, GenreGrammar, Sentence, generate_corpus
from npchunk.evalstats import score_run
from npchunk.harness import ConfigError, parse_system
from npchunk.resample import PrngStream, derive_stream
from npchunk.winnow import (
    BOS,
    EOS,
    WinnowConfig,
    WinnowIndex,
    WinnowNetwork,
    WinnowUnit,
    _features,
    decode_spans,
    intern_windows,
    winnow_predict,
    winnow_predict_interned,
    winnow_train,
    winnow_train_ids,
)


def sent(tags, spans=()):
    words = tuple(f"w{i}" for i in range(len(tags)))
    return Sentence(words, tuple(tags), tuple(ChunkSpan(a, b) for a, b in spans))


def window_features(tags):
    """The features of the padded 3-tag window around each position."""
    return [_features((BOS, *tags, EOS)[i:i + 3]) for i in range(len(tags))]


class TestFeatures:
    def test_middle_position(self):
        feats = window_features(("DT", "NN", "VBD"))[1]
        assert set(feats) == {
            (-1, ("DT",)), (0, ("NN",)), (1, ("VBD",)),
            (-1, ("DT", "NN")), (0, ("NN", "VBD")),
            (-1, ("DT", "NN", "VBD")),
        }

    def test_bos_padding(self):
        feats = window_features(("DT", "NN", "VBD"))[0]
        assert (-1, (BOS,)) in feats
        assert (-1, (BOS, "DT", "NN")) in feats
        assert len(feats) == 6

    def test_eos_padding(self):
        feats = window_features(("DT", "NN", "VBD"))[2]
        assert (1, (EOS,)) in feats
        assert len(feats) == 6

    def test_always_six_features(self):
        corpus = generate_corpus(
            GenreGrammar("g", ((("NN",), 1.0),), ((("VB",), 1.0),), 2.0, 0, 4),
            30,
            derive_stream(0, "gen", 0),
        )
        for sentence in corpus.sentences:
            feats = window_features(sentence.pos_tags)
            assert len(feats) == len(sentence)
            assert all(len(f) == 6 for f in feats)


class TestUnit:
    @pytest.fixture
    def train(self, example_index):
        def train(unit, examples):
            """One pass over (features, label) examples, each example its own
            window; returns the number of mistakes."""
            index = example_index(examples)
            return unit.train_rows(index, index.rows)

        return train

    def test_single_step_demotion(self, train):
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        feats = [("f", i) for i in range(6)]
        # all-ones weights for 6 active features score 6 >= theta -> positive
        assert train(unit, [(feats, False)]) == 1
        assert all(unit.weights[f] == 0.5 for f in feats)

    def test_promotion_on_false_negative(self, train):
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        feats = [("f", 0)]
        assert train(unit, [(feats, True)]) == 1
        assert unit.weights[("f", 0)] == 1.5

    def test_no_update_when_correct(self, train):
        # a correct example allocates active features at 1 but does not
        # promote or demote them
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        assert train(unit, [([("f", 0)], False)]) == 0
        assert unit.weights == {("f", 0): 1.0}

    def test_weights_stay_positive(self, train):
        unit = WinnowUnit(threshold=2.0, promotion=1.5, demotion=0.5)
        rng = PrngStream(4)
        examples = []
        for _ in range(500):
            feats = [("f", rng.next_below(10)) for _ in range(3)]
            examples.append((feats, rng.next_below(2) == 0))
        train(unit, examples)
        assert all(w > 0 for w in unit.weights.values())

    def test_decision_invariant_under_scaling(self, train, decide):
        unit = WinnowUnit(threshold=3.0, promotion=1.5, demotion=0.5)
        rng = PrngStream(5)
        examples = []
        for _ in range(200):
            feats = [("f", rng.next_below(8)) for _ in range(3)]
            examples.append((feats, rng.next_below(2) == 0))
        train(unit, examples)
        scaled = WinnowUnit(threshold=unit.threshold * 7.0, promotion=1.5, demotion=0.5)
        scaled.weights = {f: w * 7.0 for f, w in unit.weights.items()}
        for probe in range(50):
            feats = [("f", (probe + d) % 8) for d in range(3)]
            assert decide(unit, feats) == decide(scaled, feats)

    def test_mistake_bound_on_monotone_disjunction(self, train):
        # 3-relevant-of-1000 monotone disjunction; see also the acceptance suite
        unit = WinnowUnit(threshold=1000.0, promotion=1.5, demotion=0.5)
        rng = PrngStream(99)
        relevant = (0, 1, 2)
        examples = []
        for _ in range(3000):
            active = [f for f in range(1000) if rng.next_below(100) < 5]
            examples.append((active, any(f in active for f in relevant)))
        mistakes = train(unit, examples)
        assert mistakes <= 60


# Random small corpora over three tags; each token is outside a chunk (0),
# opens one (1) or continues the open one (2; read as 1 after an outside token).
_TOKENS = st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 2)), max_size=7)


def _sentence(tokens):
    spans, start = [], None
    for i, (_, mark) in enumerate(tokens):
        if start is not None and mark != 2:
            spans.append((start, i))
            start = None
        if mark and start is None:
            start = i
    if start is not None:
        spans.append((start, len(tokens)))
    return sent([tag for tag, _ in tokens], spans)


def _setdefault_winnow(corpus, ids, config, rng):
    """Reference rule: per example, allocate unseen features at 1 in a dict,
    sum, and update every active feature on a mistake."""
    weights = ({}, {})
    order = list(ids)
    for _ in range(config.epochs):
        rng.shuffle(order)
        for s in order:
            sentence = corpus.sentences[s]
            labels = ({a for a, _ in sentence.gold_spans}, {b - 1 for _, b in sentence.gold_spans})
            for i, features in enumerate(window_features(sentence.pos_tags)):
                for unit, positives in zip(weights, labels):
                    score = 0.0
                    for f in features:
                        score += unit.setdefault(f, 1.0)
                    label = i in positives
                    if (score >= config.threshold) != label:
                        factor = config.promotion if label else config.demotion
                        for f in features:
                            unit[f] *= factor
    return weights


def _hex(weights):
    return {f: w.hex() for f, w in weights.items()}


def _features_held(root):
    """Each feature object reachable from root through its attributes and
    the lists, tuples and dicts (keys and values) they hold, once."""
    held, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in held:
            continue
        held[id(obj)] = obj
        if isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, WinnowIndex):
            stack.extend(vars(obj).values())
    # a feature is (offset, n-gram); no other tuple held has an int, then a tuple
    return [obj for obj in held.values() if isinstance(obj, tuple) and len(obj) == 2
            and isinstance(obj[0], int) and isinstance(obj[1], tuple)]


class TestCachedScores:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        sentences=st.lists(_TOKENS, min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 2**16), min_size=1, max_size=12),
        epochs=st.integers(1, 3),
        promotion=st.floats(1.05, 3.0),
        demotion=st.floats(0.05, 0.95),
        threshold=st.floats(0.5, 8.0),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_weights_equal_the_setdefault_rule(self, sentences, picks, epochs, promotion,
                                                demotion, threshold, seed):
        corpus = Corpus(tuple(_sentence(tokens) for tokens in sentences))
        ids = [p % len(corpus) for p in picks]  # repeats, as in a bootstrap view
        config = WinnowConfig(promotion, demotion, threshold, epochs)
        expected = _setdefault_winnow(corpus, ids, config, PrngStream(seed))
        index = WinnowIndex(corpus)
        # equal features are one object in the index
        held = _features_held(index)
        assert len(held) == len(set(held))
        # the index holds intern_windows' tables, which give each token its
        # window's features and hold each distinct window and feature once;
        # containing is their inverse, and each row is (window id, is_begin,
        # is_end) of its token
        interned = intern_windows(corpus.sentences)
        assert (index.features, index.windows) == (interned.features, interned.windows)
        assert [[tuple(index.features[f] for f in index.windows[w]) for w in row]
                for row in interned.sentences] == [window_features(s.pos_tags)
                                                   for s in corpus.sentences]
        assert len(set(index.windows)) == len(index.windows)
        assert len(set(index.features)) == len(index.features)
        assert index.containing == [[w for w, ids in enumerate(index.windows) if f in ids]
                                    for f in range(len(index.features))]
        assert index.rows == [
            tuple((w, any(a == i for a, _ in s.gold_spans),
                   any(b == i + 1 for _, b in s.gold_spans)) for i, w in enumerate(row))
            for s, row in zip(corpus.sentences, interned.sentences)
        ]
        indexed = winnow_train_ids(index, ids, config, PrngStream(seed))
        view = Corpus(tuple(corpus.sentences[i] for i in ids))
        fresh = winnow_train(view, config, PrngStream(seed))
        for network in (indexed, fresh):
            units = (network.begin_unit.weights, network.end_unit.weights)
            assert [_hex(u) for u in units] == [_hex(u) for u in expected]


def _decoded(decide, network, sentence):
    """decode_spans over each position's decisions, window by window."""
    windows = window_features(sentence.pos_tags)
    return decode_spans([decide(network.begin_unit, f) for f in windows],
                        [decide(network.end_unit, f) for f in windows])


_CONFIGS = st.builds(WinnowConfig, st.floats(1.05, 3.0), st.floats(0.05, 0.95),
                     st.floats(0.5, 8.0), st.integers(1, 3))


class TestPredictCorpus:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        sentences=st.lists(_TOKENS, min_size=1, max_size=6),
        probes=st.lists(st.lists(st.sampled_from("ABC"), max_size=7), max_size=6),
        configs=st.tuples(_CONFIGS, _CONFIGS),
        seeds=st.tuples(*[st.integers(0, 2**64 - 1)] * 2),
    )
    def test_equals_per_position_decisions(self, decide, sentences, probes, configs, seeds):
        # three tags, so the sentences share windows; empty ones are drawn too
        corpus = Corpus(tuple(_sentence(tokens) for tokens in sentences))
        test = list(corpus.sentences) + [sent(tags) for tags in probes]
        windows = intern_windows(test)  # once, as the harness interns a test corpus
        # equal features of different windows are one object
        held = _features_held(windows)
        assert len(held) == len(set(held))
        for config, seed in zip(configs, seeds):
            # two networks in turn: no decision may carry over from the other
            network = winnow_train(corpus, config, PrngStream(seed))
            expected = [_decoded(decide, network, s) for s in test]
            assert winnow_predict_interned(network, windows) == expected
            assert [winnow_predict(network, s) for s in test] == expected

    def test_window_score_sums_left_to_right(self):
        # 1.0 + 1e-16 + 1e-16 is 1.0 summed left to right, but
        # 1.0000000000000002 by a compensated sum (built-in sum() on
        # Python >= 3.12); the begin unit decides "no" only for the former
        sentence = sent(["NN"])
        features = window_features(sentence.pos_tags)[0]
        config = WinnowConfig()
        begin = WinnowUnit(1.0000000000000002, config.promotion, config.demotion)
        begin.weights = dict(zip(features, (1.0, 1e-16, 1e-16)))
        end = WinnowUnit(1.0, config.promotion, config.demotion)
        end.weights = {features[0]: 1.0}
        network = WinnowNetwork(begin, end, config)
        assert winnow_predict(network, sentence) == []
        begin.threshold = 1.0
        assert winnow_predict(network, sentence) == [ChunkSpan(0, 1)]


class TestTrainPredict:
    def test_separable_begin_task(self):
        # begin <=> DT at focus; grammar keeps DT exclusively NP-initial
        grammar = GenreGrammar(
            "sep",
            np_patterns=((("DT", "NN"), 1.0),),
            glue_patterns=((("VBD",), 1.0), (("IN",), 1.0)),
            mean_nps=2.0, min_nps=1, max_nps=4,
        )
        train = generate_corpus(grammar, 200, derive_stream(1, "gen", 0))
        held = generate_corpus(grammar, 80, derive_stream(1, "gen", 1))
        network = winnow_train(train, WinnowConfig(), derive_stream(1, "train", 0))
        predictions = [winnow_predict(network, s) for s in held.sentences]
        metrics = score_run(held, predictions)
        assert metrics.recall == 1.0
        assert metrics.precision == 1.0

    def test_determinism(self):
        grammar = GenreGrammar(
            "g",
            np_patterns=((("DT", "NN"), 1.0), (("NN",), 1.0)),
            glue_patterns=((("VBD",), 1.0),),
            mean_nps=2.0, min_nps=1, max_nps=4,
        )
        corpus = generate_corpus(grammar, 60, derive_stream(2, "gen", 0))
        a = winnow_train(corpus, WinnowConfig(), derive_stream(2, "train", 0))
        b = winnow_train(corpus, WinnowConfig(), derive_stream(2, "train", 0))
        for unit_a, unit_b in ((a.begin_unit, b.begin_unit), (a.end_unit, b.end_unit)):
            assert list(unit_a.weights.items()) == list(unit_b.weights.items())

    def test_empty_sentence_predicts_nothing(self):
        corpus = Corpus((sent(["DT", "NN"], [(0, 2)]),))
        network = winnow_train(corpus, WinnowConfig(), PrngStream(0))
        assert winnow_predict(network, sent([])) == []

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            winnow_train(Corpus(()), WinnowConfig(), PrngStream(0))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WinnowConfig(promotion=1.0)
        with pytest.raises(ValueError):
            WinnowConfig(demotion=1.0)
        with pytest.raises(ValueError):
            WinnowConfig(epochs=0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="promotion must be finite"):
                WinnowConfig(promotion=value)
            with pytest.raises(ValueError, match="threshold must be finite"):
                WinnowConfig(threshold=value)
        with pytest.raises(ConfigError, match=re.escape("system 'winnow:promotion=nan'")):
            parse_system("winnow:alpha=nan")


class TestDecoder:
    def test_simple_pair(self):
        assert decode_spans([1, 0, 0], [0, 1, 0]) == [ChunkSpan(0, 2)]

    def test_nested_begin_ignored(self):
        assert decode_spans([1, 1, 0], [0, 0, 1]) == [ChunkSpan(0, 3)]

    def test_all_zero(self):
        assert decode_spans([0, 0, 0], [0, 0, 0]) == []

    def test_unclosed_span_dropped(self):
        assert decode_spans([0, 1], [0, 0]) == []

    def test_single_token_span(self):
        assert decode_spans([1], [1]) == [ChunkSpan(0, 1)]

    def test_output_disjoint(self):
        rng = PrngStream(11)
        for _ in range(100):
            n = 1 + rng.next_below(12)
            begins = [rng.next_below(2) == 0 for _ in range(n)]
            ends = [rng.next_below(2) == 0 for _ in range(n)]
            prev = 0
            for span in decode_spans(begins, ends):
                assert span.start >= prev
                prev = span.end

