import pytest

from npchunk.corpus import (
    ChunkSpan,
    Corpus,
    GenreGrammar,
    Sentence,
    Token,
    generate_corpus,
)
from npchunk.mbsl import (
    MbslConfig,
    Tile,
    mbsl_predict,
    mbsl_train,
)
from npchunk.evalstats import score_run
from npchunk.resample import derive_stream


def sent(tags, spans):
    tokens = tuple(Token(f"w{i}", p) for i, p in enumerate(tags))
    return Sentence(tokens, tuple(ChunkSpan(a, b) for a, b in spans))


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
        corpus = Corpus("t", (sent(["DT", "NN", "VBD"], [(0, 2)]),))
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
        single = mbsl_train(Corpus("t", (s,)), MbslConfig(1, 3))
        double = mbsl_train(Corpus("t", (s, s)), MbslConfig(1, 3))
        assert set(single.table) == set(double.table)
        for tile, (pos, neg) in single.table.items():
            assert double.table[tile] == (2 * pos, 2 * neg)

    def test_negative_counting(self):
        # "DT NN" once inside a span, once fully outside
        corpus = Corpus("t", (
            sent(["DT", "NN", "VBD"], [(0, 2)]),
            sent(["IN", "DT", "NN"], []),
        ))
        model = mbsl_train(corpus, MbslConfig(context_size=1, max_tile_len=3))
        assert model.table[Tile(("DT", "NN"), (0,), (1,))] == (1, 1)
        assert model.table[Tile(("DT",), (0,), ())] == (1, 1)

    def test_partial_border_is_negative(self):
        # "NN" inside a longer span has a close border but no open border
        corpus = Corpus("t", (
            sent(["NN", "VBD"], [(0, 1)]),
            sent(["DT", "NN", "VBD"], [(0, 2)]),
        ))
        model = mbsl_train(corpus, MbslConfig(context_size=1, max_tile_len=3))
        pos, neg = model.table[Tile(("NN",), (0,), (0,))]
        assert (pos, neg) == (1, 1)

    def test_empty_gold_spans_empty_model(self):
        corpus = Corpus("t", (sent(["DT", "NN"], []),))
        model = mbsl_train(corpus, MbslConfig())
        assert model.table == {}

    def test_training_permutation_invariant(self):
        corpus = generate_corpus(TOY_GRAMMAR, 40, derive_stream(3, "gen", 0))
        reversed_corpus = Corpus("r", tuple(reversed(corpus.sentences)))
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
        model = mbsl_train(Corpus("t", (s,)), MbslConfig(1, 3))
        assert mbsl_predict(model, s) == [ChunkSpan(0, 2)]

    def test_empty_model_predicts_nothing(self):
        model = mbsl_train(Corpus("t", (sent(["DT"], []),)), MbslConfig())
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

