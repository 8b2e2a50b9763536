import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npchunk.corpus import ChunkSpan, Corpus, Sentence, WSJ_LIKE, generate_corpus
from npchunk.resample import (
    BootstrapPlan,
    PlanningError,
    PrngStream,
    derive_stream,
    fnv1a64,
    plan_bootstrap,
    plan_cv,
    training_view,
)


def corpus_with_counts(counts):
    sentences = []
    for n in counts:
        length = max(n, 1)
        spans = tuple(ChunkSpan(i, i + 1) for i in range(n))
        sentences.append(Sentence(("w",) * length, ("NN",) * length, spans))
    return Corpus(tuple(sentences))


def fold_loads(corpus, plan):
    """Gold instances per fold, from the plan's fold of each sentence."""
    loads = [0] * plan.k
    for sentence, fold in zip(corpus.sentences, plan.fold_of_sentence):
        loads[fold] += len(sentence.gold_spans)
    return loads


class TestPrng:
    def test_splitmix64_reference_vector(self):
        # widely published outputs for seed 0
        stream = PrngStream(0)
        assert stream.next() == 0xE220A8397B1DCDAF
        assert stream.next() == 0x6E789E6AA1B965F4
        assert stream.next() == 0x06C45D188009454F

    def test_identical_state_identical_sequence(self):
        a, b = PrngStream(987654321), PrngStream(987654321)
        assert [a.next() for _ in range(10)] == [b.next() for _ in range(10)]

    def test_next_below_in_range(self):
        stream = PrngStream(7)
        for _ in range(1000):
            assert 0 <= stream.next_below(13) < 13

    def test_fnv1a64_known_values(self):
        # standard FNV-1a test vectors
        assert fnv1a64("") == 0xCBF29CE484222325
        assert fnv1a64("a") == 0xAF63DC4C8601EC8C


class TestDeriveStream:
    def test_deterministic(self):
        a = derive_stream(42, "bootstrap", 0)
        b = derive_stream(42, "bootstrap", 0)
        assert [a.next() for _ in range(4)] == [b.next() for _ in range(4)]

    def test_distinct_indices_distinct_streams(self):
        a = derive_stream(42, "bootstrap", 0)
        b = derive_stream(42, "bootstrap", 1)
        assert [a.next() for _ in range(4)] != [b.next() for _ in range(4)]

    def test_distinct_purposes_distinct_streams(self):
        a = derive_stream(42, "cv", 0)
        b = derive_stream(42, "bootstrap", 0)
        assert [a.next() for _ in range(4)] != [b.next() for _ in range(4)]


class TestBootstrap:
    def test_forced_stopping_rule(self):
        corpus = corpus_with_counts([2])
        plan = plan_bootstrap(corpus, 5, derive_stream(0, "bootstrap", 0))
        assert plan.sentence_indices == (0, 0, 0)

    def test_minimal_overshoot_property(self):
        corpus = generate_corpus(WSJ_LIKE, 300, derive_stream(5, "gen", 0))
        counts = [len(s.gold_spans) for s in corpus.sentences]
        n0 = corpus.instance_count() // 2
        for b in range(50):
            plan = plan_bootstrap(corpus, n0, derive_stream(5, "bootstrap", b))
            total = sum(counts[i] for i in plan.sentence_indices)
            assert total >= n0
            assert total - counts[plan.sentence_indices[-1]] < n0
            assert total < n0 + max(counts)

    def test_sampled_sentence_count_scale(self):
        # sampling whole sentences until the instance budget: the number of
        # sampled sentences stays near the corpus sentence count, varying
        # only on the scale of tens (Table-2-like behavior)
        corpus = generate_corpus(WSJ_LIKE, 2000, derive_stream(6, "gen", 0))
        n0 = corpus.instance_count()
        lengths = [
            len(plan_bootstrap(corpus, n0, derive_stream(6, "bootstrap", b)).sentence_indices)
            for b in range(30)
        ]
        mean = sum(lengths) / len(lengths)
        assert abs(mean - 2000) < 60
        assert all(abs(l - mean) < 150 for l in lengths)

    def test_zero_instance_corpus_rejected(self):
        corpus = corpus_with_counts([0, 0])
        with pytest.raises(PlanningError):
            plan_bootstrap(corpus, 1, derive_stream(0, "bootstrap", 0))

    def test_unique_fraction_near_one_minus_inv_e(self):
        corpus = generate_corpus(WSJ_LIKE, 1000, derive_stream(7, "gen", 0))
        n0 = corpus.instance_count()
        fractions = []
        for b in range(200):
            plan = plan_bootstrap(corpus, n0, derive_stream(7, "bootstrap", b))
            fractions.append(len(set(plan.sentence_indices)) / 1000)
        mean = sum(fractions) / len(fractions)
        expected = 1.0 - (1.0 - 1.0 / 1000) ** 1000
        assert abs(mean - expected) < 0.01


class TestCv:
    def test_perfect_balance_when_counts_equal(self):
        corpus = corpus_with_counts([1] * 10)
        plan = plan_cv(corpus, 5, derive_stream(0, "cv", 0))
        assert fold_loads(corpus, plan) == [2, 2, 2, 2, 2]

    def test_k_equals_sentence_count(self):
        corpus = corpus_with_counts([1] * 6)
        plan = plan_cv(corpus, 6, derive_stream(0, "cv", 0))
        assert sorted(plan.fold_of_sentence) == list(range(6))

    def test_k_out_of_range(self):
        corpus = corpus_with_counts([1, 1, 1])
        with pytest.raises(ValueError):
            plan_cv(corpus, 1, derive_stream(0, "cv", 0))
        with pytest.raises(ValueError):
            plan_cv(corpus, 4, derive_stream(0, "cv", 0))

    def test_imbalance_bounded_by_max_sentence(self):
        corpus = generate_corpus(WSJ_LIKE, 800, derive_stream(9, "gen", 0))
        cap = max(len(s.gold_spans) for s in corpus.sentences)
        for k in (3, 5, 10, 20):
            plan = plan_cv(corpus, k, derive_stream(9, "cv", k))
            loads = fold_loads(corpus, plan)
            assert max(loads) - min(loads) <= cap
            assert sum(loads) == corpus.instance_count()

    def test_partition_exact(self):
        corpus = generate_corpus(WSJ_LIKE, 100, derive_stream(10, "gen", 0))
        plan = plan_cv(corpus, 4, derive_stream(10, "cv", 0))
        assert len(plan.fold_of_sentence) == len(corpus)
        assert set(plan.fold_of_sentence) == set(range(4))


class TestViews:
    def test_bootstrap_view_preserves_repetitions(self):
        corpus = corpus_with_counts([1, 2])
        plan = BootstrapPlan((0, 0, 1), 0)
        view = training_view(corpus, plan)
        assert len(view) == 3
        assert view.sentences[0] == view.sentences[1] == corpus.sentences[0]

    def test_cv_two_folds_complementary(self):
        corpus = corpus_with_counts([1, 1, 1, 1])
        plan = plan_cv(corpus, 2, derive_stream(0, "cv", 0))
        train = training_view(corpus, plan, held_out_fold=1)
        held = [s for s, fold in zip(corpus.sentences, plan.fold_of_sentence) if fold == 1]
        assert len(train) + len(held) == len(corpus)
        assert {id(s) for s in train.sentences} | {id(s) for s in held} == {
            id(s) for s in corpus.sentences
        }

    def test_cv_union_is_partition(self):
        corpus = generate_corpus(WSJ_LIKE, 50, derive_stream(1, "gen", 0))
        plan = plan_cv(corpus, 5, derive_stream(1, "cv", 0))
        for fold in range(5):
            train = training_view(corpus, plan, held_out_fold=fold)
            # the training view is exactly the sentences outside the fold
            assert [id(s) for s in train.sentences] == [
                id(s) for s, f in zip(corpus.sentences, plan.fold_of_sentence) if f != fold
            ]
            assert len(train) + plan.fold_of_sentence.count(fold) == len(corpus)

    def test_fold_id_out_of_range(self):
        corpus = corpus_with_counts([1, 1])
        plan = plan_cv(corpus, 2, derive_stream(0, "cv", 0))
        with pytest.raises(ValueError):
            training_view(corpus, plan, held_out_fold=2)


# Random corpora as per-sentence instance counts, sentences without any included.
_COUNTS = st.lists(st.integers(0, 6), min_size=1, max_size=40)
_STREAMS = st.integers(0, 2**64 - 1).map(PrngStream)


class TestPlannerProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(counts=_COUNTS.filter(any), n0=st.integers(1, 200), rng=_STREAMS)
    def test_bootstrap_stops_at_the_first_draw_reaching_n0(self, counts, n0, rng):
        plan = plan_bootstrap(corpus_with_counts(counts), n0, rng)
        total = sum(counts[i] for i in plan.sentence_indices)
        assert total >= n0
        assert total - counts[plan.sentence_indices[-1]] < n0

    @settings(max_examples=300, deadline=None, derandomize=True)
    # one sentence with instances, two without: each fold still gets a sentence
    @example(counts=[1, 0, 0], k=3, rng=PrngStream(0))
    @given(counts=_COUNTS.filter(lambda c: len(c) >= 2), k=st.integers(2, 40), rng=_STREAMS)
    def test_cv_is_a_balanced_partition_into_k_nonempty_folds(self, counts, k, rng):
        k = min(k, len(counts))
        corpus = corpus_with_counts(counts)
        plan = plan_cv(corpus, k, rng)
        assert plan.k == k and len(plan.fold_of_sentence) == len(counts)
        assert set(plan.fold_of_sentence) == set(range(k))
        loads = fold_loads(corpus, plan)
        assert max(loads) - min(loads) <= max(counts)
