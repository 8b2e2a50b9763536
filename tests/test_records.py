"""Every public record: pickling, equality and hashing, len() where it counts
tokens or sentences, keyword construction with defaults, and the checks that
reject invalid fields, on construction and on _replace alike."""

import copy
import pickle
import re

import pytest

from npchunk import (
    ATIS_LIKE,
    BootstrapPlan,
    ChunkSpan,
    Corpus,
    CvPlan,
    DistributionSummary,
    GenreGrammar,
    MbslConfig,
    PairedComparison,
    RecallSamples,
    RunMetrics,
    Sentence,
    WinnowConfig,
    derive_stream,
    generate_corpus,
    mbsl_predict,
    mbsl_train,
    winnow_predict,
    winnow_train,
)
from npchunk.harness import ConfigError, ExperimentConfig, ExperimentReport, parse_system


def _sentence():
    return Sentence(("the", "dog", "ran"), ("DT", "NN", "VBD"), (ChunkSpan(0, 2),))


def _config(**changes):
    fields = dict(master_seed=3, training_corpus="train.iob2",
                  test_corpora=(("a", "a.iob2"),), method="bootstrap", b=2,
                  systems=(parse_system("mbsl:c=1"), parse_system("winnow")))
    return ExperimentConfig(**{**fields, **changes})


# name -> a function that builds an equal, new record on every call
VALUES = {
    "Sentence": _sentence,
    "Corpus": lambda: Corpus([_sentence(), Sentence(("I",), ("PRP",), (ChunkSpan(0, 1),))]),
    "GenreGrammar": lambda: GenreGrammar("toy", ((("DT", "NN"), 1.0),), ((("VBD",), 2.0),),
                                         mean_nps=1.0, max_nps=2),
    "RunMetrics": lambda: RunMetrics(0.5, None, 4, 0, 2),
    "RecallSamples": lambda: RecallSamples("mbsl/a", [0.25, 1.0]),
    "DistributionSummary": lambda: DistributionSummary(0.5, None, 1),
    "PairedComparison": lambda: PairedComparison(None, 0.5, 0.25, 0.125),
    "BootstrapPlan": lambda: BootstrapPlan((2, 0, 2), 1),
    "CvPlan": lambda: CvPlan(2, (0, 1, 1)),
    "MbslConfig": lambda: MbslConfig(context_size=3),
    "WinnowConfig": lambda: WinnowConfig(epochs=3),
    "SystemSpec": lambda: parse_system("winnow:alpha=2"),
    "ExperimentConfig": _config,
}


@pytest.mark.parametrize("name", VALUES)
def test_value_record_pickles_compares_and_hashes(name):
    record, same = VALUES[name](), VALUES[name]()
    assert type(record).__name__ == name
    assert record == same and record is not same
    assert hash(record) == hash(same)
    for again in (pickle.loads(pickle.dumps(record)), pickle.loads(pickle.dumps(record, 0)),
                  copy.deepcopy(record)):
        assert type(again) is type(record)
        assert again == record and hash(again) == hash(record)
    assert repr(record).startswith(f"{name}(")
    with pytest.raises(AttributeError):
        record.label = "other"  # no record takes new attributes, nor new field values


def test_records_differ_by_any_field():
    sentence = _sentence()
    assert sentence != Sentence(sentence.words, sentence.pos_tags)
    assert sentence != Sentence(sentence.words, ("DT", "NN", "VB"), sentence.gold_spans)
    assert Corpus([sentence]) != Corpus([sentence, sentence])
    assert MbslConfig() != MbslConfig(context_size=3)
    assert _config() != _config(workers=2)
    assert RecallSamples("a", [0.5]) != RecallSamples("b", [0.5])


def test_sentence_and_corpus_len_count_tokens_and_sentences():
    sentence = _sentence()
    assert len(sentence) == 3 and len(Sentence((), ())) == 0
    corpus = Corpus([sentence] * 4)
    assert len(corpus) == 4 and corpus.instance_count() == 4
    assert isinstance(corpus.sentences, tuple) and isinstance(sentence.words, tuple)
    with pytest.raises(AttributeError):
        sentence.words = ("a",)
    with pytest.raises(AttributeError):
        del corpus.sentences


def test_keyword_construction_with_defaults():
    assert MbslConfig(max_tile_len=4) == MbslConfig(1, 4, 0.5, 1)
    assert WinnowConfig(threshold=3.0) == WinnowConfig(1.5, 0.5, 3.0, 2)
    assert _config(k=0).k == 0 and _config().workers == 1 and _config().output_dir == "out"
    assert Sentence(words=("a",), pos_tags=("DT",)).gold_spans == ()
    assert GenreGrammar("g", ATIS_LIKE.np_patterns, ATIS_LIKE.glue_patterns, 1.0).max_nps == 12
    assert RecallSamples(label="x", values=[0.5]).values == (0.5,)


@pytest.mark.parametrize("build, error, message", [
    (lambda: Sentence(("a", "b"), ("DT",)), ValueError, "2 words but 1 POS tags"),
    (lambda: Sentence(("a b",), ("DT",)), ValueError,
     "word must be non-empty and whitespace-free: 'a b'"),
    (lambda: Sentence(("a",), ("",)), ValueError,
     "POS tag must be non-empty and whitespace-free: ''"),
    (lambda: Sentence(("a",), ("DT",), ((0, 2),)), ValueError,
     "spans must be non-empty, sorted, disjoint and inside the 1 tokens: ((0, 2),)"),
    (lambda: GenreGrammar("g", (), ATIS_LIKE.glue_patterns, 1.0), ValueError,
     "np_patterns and glue_patterns must be non-empty"),
    (lambda: ATIS_LIKE._replace(mean_nps=7.0), ValueError,
     "mean_nps must lie within [min_nps, max_nps]"),
    (lambda: GenreGrammar("g", ((("NN",), 0.0),), ATIS_LIKE.glue_patterns, 1.0), ValueError,
     "pattern weights must be positive"),
    (lambda: RecallSamples("a", [0.5, 1.5]), ValueError, "recall out of [0, 1]: 1.5"),
    (lambda: RecallSamples("a", [0.5])._replace(values=(-0.5,)), ValueError,
     "recall out of [0, 1]: -0.5"),
    (lambda: MbslConfig(context_size=-1), ValueError, "context_size must be >= 0"),
    (lambda: MbslConfig()._replace(max_tile_len=0), ValueError, "max_tile_len must be >= 1"),
    (lambda: MbslConfig(tile_threshold=1.5), ValueError, "tile_threshold must lie in [0, 1]"),
    (lambda: MbslConfig(min_positive_count=0), ValueError, "min_positive_count must be >= 1"),
    (lambda: WinnowConfig(promotion=1.0), ValueError, "promotion must be finite and > 1"),
    (lambda: WinnowConfig()._replace(demotion=1.0), ValueError, "demotion must lie in (0, 1)"),
    (lambda: WinnowConfig(threshold=float("inf")), ValueError,
     "threshold must be finite and positive"),
    (lambda: WinnowConfig(epochs=0), ValueError, "epochs must be >= 1"),
    (lambda: _config(b=0), ConfigError, "bootstrap needs B >= 1"),
    (lambda: _config()._replace(method="cv", k=1), ConfigError, "cv needs k >= 2"),
    (lambda: _config(method="cv", k=2, repetitions=0), ConfigError, "cv needs repetitions >= 1"),
    (lambda: _config(method="jackknife"), ConfigError, "unknown method 'jackknife'"),
    (lambda: _config(test_corpora=()), ConfigError, "at least one test corpus is required"),
    (lambda: _config()._replace(systems=()), ConfigError, "at least one system is required"),
    (lambda: _config(workers=0), ConfigError, "workers must be >= 1"),
    (lambda: _config(systems=(parse_system("winnow"),) * 2), ConfigError,
     "duplicate system labels: ['winnow', 'winnow']"),
])
def test_invalid_fields_raise_on_construction_and_replace(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


def test_models_and_report_pickle_to_the_same_predictions():
    train = generate_corpus(ATIS_LIKE, 30, derive_stream(1, "records", 0))
    test = generate_corpus(ATIS_LIKE, 10, derive_stream(1, "records", 1))
    mbsl = mbsl_train(train, MbslConfig(context_size=2))
    winnow = winnow_train(train, WinnowConfig(), derive_stream(1, "records", 2))
    for model, predict in ((mbsl, mbsl_predict), (winnow, winnow_predict)):
        again = pickle.loads(pickle.dumps(model))
        assert type(again) is type(model) and again.config == model.config
        assert [predict(again, s) for s in test.sentences] == [
            predict(model, s) for s in test.sentences]
    assert pickle.loads(pickle.dumps(mbsl)).table == mbsl.table
    report = ExperimentReport("0" * 16, {("m", "a"): RecallSamples("m/a", [0.5])},
                              {("m", "a"): DistributionSummary(0.5, None, 1)},
                              {("m", "a"): 0.5}, {}, {})
    assert pickle.loads(pickle.dumps(report)) == report
    assert report._replace(e_full={}) != report
