import pytest

from npchunk.corpus import ChunkSpan, Corpus, GenreGrammar, Sentence, generate_corpus
from npchunk.evalstats import score_run
from npchunk.resample import PrngStream, derive_stream
from npchunk.winnow import (
    BOS,
    EOS,
    WinnowConfig,
    WinnowUnit,
    decode_spans,
    window_features,
    winnow_predict,
    winnow_train,
)


def sent(tags, spans=()):
    words = tuple(f"w{i}" for i in range(len(tags)))
    return Sentence(words, tuple(tags), tuple(ChunkSpan(a, b) for a, b in spans))


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
    def test_single_step_demotion(self):
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        feats = [("f", i) for i in range(6)]
        # all-ones weights for 6 active features score 6 >= theta -> positive
        assert unit.train_example(feats, False) is True
        assert all(unit.weights[f] == 0.5 for f in feats)

    def test_generator_features_update_weights(self):
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        feats = [("f", i) for i in range(6)]
        assert unit.train_example((f for f in feats), False) is True
        assert all(unit.weights[f] == 0.5 for f in feats)

    def test_promotion_on_false_negative(self):
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        feats = [("f", 0)]
        assert unit.train_example(feats, True) is True
        assert unit.weights[("f", 0)] == 1.5

    def test_no_update_when_correct(self):
        # a correct example allocates active features at 1 but does not
        # promote or demote them
        unit = WinnowUnit(threshold=6.0, promotion=1.5, demotion=0.5)
        assert unit.train_example([("f", 0)], False) is False
        assert unit.weights == {("f", 0): 1.0}

    def test_weights_stay_positive(self):
        unit = WinnowUnit(threshold=2.0, promotion=1.5, demotion=0.5)
        rng = PrngStream(4)
        for _ in range(500):
            feats = [("f", rng.next_below(10)) for _ in range(3)]
            unit.train_example(feats, rng.next_below(2) == 0)
        assert all(w > 0 for w in unit.weights.values())

    def test_decision_invariant_under_scaling(self):
        unit = WinnowUnit(threshold=3.0, promotion=1.5, demotion=0.5)
        rng = PrngStream(5)
        for _ in range(200):
            feats = [("f", rng.next_below(8)) for _ in range(3)]
            unit.train_example(feats, rng.next_below(2) == 0)
        scaled = WinnowUnit(threshold=unit.threshold * 7.0, promotion=1.5, demotion=0.5)
        scaled.weights = {f: w * 7.0 for f, w in unit.weights.items()}
        for probe in range(50):
            feats = [("f", (probe + d) % 8) for d in range(3)]
            assert unit.decide(feats) == scaled.decide(feats)

    def test_mistake_bound_on_monotone_disjunction(self):
        # 3-relevant-of-1000 monotone disjunction; see also the acceptance suite
        unit = WinnowUnit(threshold=1000.0, promotion=1.5, demotion=0.5)
        rng = PrngStream(99)
        relevant = (0, 1, 2)
        mistakes = 0
        for _ in range(3000):
            active = [f for f in range(1000) if rng.next_below(100) < 5]
            label = any(f in active for f in relevant)
            mistakes += unit.train_example(active, label)
        assert mistakes <= 60


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

