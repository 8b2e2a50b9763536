"""End-to-end acceptance checks, one test per numbered criterion.

Each test prints a single PASS line (via ``pytest -v``) and asserts the
criterion at its stated tolerance; the heavy replication checks (08, 09)
run full-size experiments and are the slow part of the suite.
"""

import math
import time

import pytest

from npchunk.corpus import (
    ATIS_LIKE,
    GenreGrammar,
    WSJ_LIKE,
    generate_corpus,
    write_corpus,
)
from npchunk.evalstats import RecallSamples, compare_paired, summarize
from npchunk.harness import ExperimentConfig, parse_system, run_experiment
from npchunk.mbsl import MbslConfig, mbsl_predict, mbsl_train
from npchunk.resample import PrngStream, derive_stream, plan_bootstrap, plan_cv
from npchunk.winnow import WinnowUnit

MASTER_SEED = 27


@pytest.fixture(scope="module")
def wsj_train():
    return generate_corpus(WSJ_LIKE, 8936, derive_stream(MASTER_SEED, "gen:wsj-like", 0))


@pytest.fixture(scope="module")
def experiment_paths(wsj_train, tmp_path_factory):
    """Training corpus plus the four test corpora used by criteria 08/09."""
    root = tmp_path_factory.mktemp("acceptance")
    paths = {"train": str(root / "train.iob2")}
    write_corpus(wsj_train, paths["train"])
    atis = generate_corpus(
        ATIS_LIKE, 190, derive_stream(MASTER_SEED, "gen:atis-like", 0)
    )
    paths["atis"] = str(root / "atis.iob2")
    write_corpus(atis, paths["atis"])
    for i in range(3):
        label = f"wsj{i}"
        slice_ = generate_corpus(
            WSJ_LIKE, 100, derive_stream(MASTER_SEED, "gen:wsj-like", i + 1),
        )
        paths[label] = str(root / f"{label}.iob2")
        write_corpus(slice_, paths[label])
    return paths


def test_01_bootstrap_unique_fraction_near_1_minus_1_over_e():
    corpus = generate_corpus(WSJ_LIKE, 1000, derive_stream(MASTER_SEED, "gen:u", 0))
    n0 = corpus.instance_count()
    started = time.monotonic()
    fractions = []
    for b in range(200):
        plan = plan_bootstrap(corpus, n0, derive_stream(MASTER_SEED, "boot:u", b))
        fractions.append(len(set(plan.sentence_indices)) / len(corpus))
    elapsed = time.monotonic() - started
    mean_fraction = sum(fractions) / len(fractions)
    assert 0.622 <= mean_fraction <= 0.642
    assert elapsed < 5.0


def test_02_bootstrap_overshoot_is_minimal():
    corpus = generate_corpus(WSJ_LIKE, 1000, derive_stream(MASTER_SEED, "gen:o", 0))
    n0 = corpus.instance_count()
    counts = [len(s.gold_spans) for s in corpus.sentences]
    max_per_sentence = max(counts)
    for b in range(200):
        plan = plan_bootstrap(corpus, n0, derive_stream(MASTER_SEED, "boot:o", b))
        total = sum(counts[i] for i in plan.sentence_indices)
        assert n0 <= total <= n0 + max_per_sentence - 1
        assert total - counts[plan.sentence_indices[-1]] < n0


def test_03_cv_folds_balanced_and_partitioning(wsj_train):
    counts = [len(s.gold_spans) for s in wsj_train.sentences]
    max_per_sentence = max(counts)
    started = time.monotonic()
    for rep, k in enumerate((3, 5, 10, 20)):
        plan = plan_cv(wsj_train, k, derive_stream(MASTER_SEED, "cv:b", rep))
        assert len(plan.fold_of_sentence) == len(wsj_train)
        assert set(plan.fold_of_sentence) == set(range(k))
        loads = [0] * k
        for idx, fold in enumerate(plan.fold_of_sentence):
            loads[fold] += counts[idx]
        assert max(loads) - min(loads) <= max_per_sentence
    assert time.monotonic() - started < 5.0


def test_04_variance_identity_matches_direct_differences():
    rng = PrngStream(404)
    for _ in range(1000):
        a = tuple(rng.next_float() for _ in range(16))
        b = tuple(rng.next_float() for _ in range(16))
        comparison = compare_paired(RecallSamples("a", a), RecallSamples("b", b))
        diffs = [x - y for x, y in zip(a, b)]
        mean_d = sum(diffs) / len(diffs)
        direct = math.sqrt(
            sum((d - mean_d) ** 2 for d in diffs) / (len(diffs) - 1)
        )
        assert comparison.sigma_diff == pytest.approx(direct, rel=1e-9)


def test_05_statistics_match_brute_force_oracle():
    rng = PrngStream(505)
    for _ in range(100):
        a = tuple(rng.next_float() for _ in range(100))
        b = tuple(rng.next_float() for _ in range(100))
        n = len(a)
        mean_a = sum(a) / n
        std_a = math.sqrt(sum((x - mean_a) ** 2 for x in a) / (n - 1))
        mean_b = sum(b) / n
        std_b = math.sqrt(sum((x - mean_b) ** 2 for x in b) / (n - 1))
        rho = (
            sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b))
            / ((n - 1) * std_a * std_b)
        )
        p_a_gt_b = sum(1 for x, y in zip(a, b) if x > y) / n

        summary_a = summarize(RecallSamples("a", a))
        summary_b = summarize(RecallSamples("b", b))
        comparison = compare_paired(RecallSamples("a", a), RecallSamples("b", b))
        assert summary_a.mean == pytest.approx(mean_a, abs=1e-12)
        assert summary_a.std == pytest.approx(std_a, abs=1e-12)
        assert summary_b.mean == pytest.approx(mean_b, abs=1e-12)
        assert summary_b.std == pytest.approx(std_b, abs=1e-12)
        assert comparison.rho == pytest.approx(rho, abs=1e-12)
        assert comparison.p_a_gt_b == pytest.approx(p_a_gt_b, abs=1e-12)


def test_06_memory_tiler_closes_over_deterministic_grammar():
    # NPs are exactly "DT NN" and neither tag ever occurs outside an NP, so
    # held-out recall must be exactly 1 once the single construction is seen.
    grammar = GenreGrammar(
        "closed",
        np_patterns=((("DT", "NN"), 1.0),),
        glue_patterns=((("VBD",), 2.0), (("IN",), 2.0), (("RB", "VBD"), 1.0)),
        mean_nps=3.0,
        min_nps=1,
        max_nps=6,
    )
    train = generate_corpus(grammar, 300, derive_stream(MASTER_SEED, "gen:c", 0))
    held = generate_corpus(grammar, 100, derive_stream(MASTER_SEED, "gen:c", 1))
    for context_size in (1, 3):
        model = mbsl_train(train, MbslConfig(context_size=context_size))
        recalled = 0
        total = 0
        for sentence in held.sentences:
            predicted = set(
                (s.start, s.end) for s in mbsl_predict(model, sentence)
            )
            for span in sentence.gold_spans:
                total += 1
                recalled += (span.start, span.end) in predicted
        assert recalled == total


def test_07_winnow_mistake_bound_on_3_of_1000_disjunction(example_index, decide):
    rng = PrngStream(99)
    relevant = (3, 141, 998)

    def draw():
        features = tuple(i for i in range(1000) if rng.next_float() < 0.05)
        return features, any(r in features for r in relevant)

    examples = [draw() for _ in range(3000)]
    index = example_index(examples)  # each example is its own window
    unit = WinnowUnit(threshold=1000.0, promotion=1.5, demotion=0.5)
    mistakes = 0
    for _ in range(10):
        pass_mistakes = unit.train_rows(index, index.rows)
        mistakes += pass_mistakes
        if pass_mistakes == 0:
            break
    assert mistakes <= 60
    fresh_errors = sum(
        decide(unit, features) != label
        for features, label in (draw() for _ in range(1000))
    )
    assert fresh_errors == 0


def test_08_mismatched_genre_inflates_recall_spread(experiment_paths, tmp_path):
    config = ExperimentConfig(
        master_seed=MASTER_SEED,
        training_corpus=experiment_paths["train"],
        test_corpora=(
            ("atis", experiment_paths["atis"]),
            ("wsj0", experiment_paths["wsj0"]),
            ("wsj1", experiment_paths["wsj1"]),
            ("wsj2", experiment_paths["wsj2"]),
        ),
        method="bootstrap",
        b=50,
        systems=(
            parse_system("mbsl:c=1"),
            parse_system("mbsl:c=3"),
            parse_system("winnow"),
        ),
        output_dir=str(tmp_path / "out8"),
    )
    started = time.monotonic()
    report = run_experiment(config)
    elapsed = time.monotonic() - started
    for system in ("mbsl-c1", "mbsl-c3", "winnow"):
        atis_std = report.summaries[(system, "atis")].std
        for slice_label in ("wsj0", "wsj1", "wsj2"):
            assert atis_std > report.summaries[(system, slice_label)].std, (
                f"{system}: std(atis)={atis_std} not above std({slice_label})"
            )
    assert elapsed < 600.0


def test_09_cross_genre_correlations_are_negligible(experiment_paths, tmp_path):
    config = ExperimentConfig(
        master_seed=MASTER_SEED,
        training_corpus=experiment_paths["train"],
        test_corpora=(
            ("atis", experiment_paths["atis"]),
            ("wsj0", experiment_paths["wsj0"]),
            ("wsj1", experiment_paths["wsj1"]),
            ("wsj2", experiment_paths["wsj2"]),
        ),
        method="cv",
        k=5,
        repetitions=10,
        systems=(parse_system("mbsl:c=1"),),
        output_dir=str(tmp_path / "out9"),
    )
    report = run_experiment(config)
    within = []
    across = []
    for (_, test_a, test_b), rho in report.xcorr.items():
        if "atis" in (test_a, test_b):
            across.append(rho)
        else:
            within.append(rho)
    assert len(within) == 3 and len(across) == 3
    assert min(within) > max(across)


def test_10_context_width_helps_in_genre_and_hurts_elsewhere(tmp_path):
    # In-genre, "PDT DT NN" chunks are only separable from identical glue
    # material through a 2-token left context, so the wide-context tiler
    # recalls them and the narrow one cannot. The second genre places that
    # same left context before plain "DT NN" chunks, where the wide
    # context proposes a longer overlapping span and crowds out the truth.
    genre_in = GenreGrammar(
        "genre-in",
        np_patterns=((("DT", "NN"), 12.0), (("PDT", "DT", "NN"), 4.0)),
        glue_patterns=(
            (("VB", "RB", "IN"), 7.0),
            (("IN", "PDT", "DT", "NN", "VB"), 3.0),
        ),
        mean_nps=3.0,
        min_nps=1,
        max_nps=6,
    )
    genre_out = GenreGrammar(
        "genre-out",
        np_patterns=((("DT", "NN"), 16.0),),
        glue_patterns=((("RB", "IN", "PDT"), 6.0), (("VB",), 4.0)),
        mean_nps=3.0,
        min_nps=1,
        max_nps=6,
    )
    train = generate_corpus(genre_in, 500, derive_stream(17, "gen:in", 0))
    test_in = generate_corpus(genre_in, 150, derive_stream(17, "gen:in", 1))
    test_out = generate_corpus(genre_out, 150, derive_stream(17, "gen:out", 0))
    paths = {}
    for name, corpus in (("train", train), ("in", test_in), ("out", test_out)):
        paths[name] = str(tmp_path / f"{name}.iob2")
        write_corpus(corpus, paths[name])
    config = ExperimentConfig(
        master_seed=17,
        training_corpus=paths["train"],
        test_corpora=(("in", paths["in"]), ("out", paths["out"])),
        method="bootstrap",
        b=50,
        systems=(parse_system("mbsl:c=1"), parse_system("mbsl:c=3")),
        output_dir=str(tmp_path / "out10"),
    )
    report = run_experiment(config)

    def p_wide_beats_narrow(test_label):
        c = report.pairs[("mbsl-c1", "mbsl-c3", test_label)]
        return 1.0 - c.p_a_gt_b - c.p_tie

    assert p_wide_beats_narrow("in") >= 0.9
    assert p_wide_beats_narrow("out") <= 0.5


def test_11_outputs_byte_identical_across_runs_and_worker_counts(tmp_path):
    train = generate_corpus(WSJ_LIKE, 120, derive_stream(MASTER_SEED, "gen:d", 0))
    test = generate_corpus(WSJ_LIKE, 40, derive_stream(MASTER_SEED, "gen:d", 1))
    train_path = tmp_path / "train.iob2"
    test_path = tmp_path / "test.iob2"
    write_corpus(train, train_path)
    write_corpus(test, test_path)

    def run(out_dir, workers):
        config = ExperimentConfig(
            master_seed=MASTER_SEED,
            training_corpus=str(train_path),
            test_corpora=(("t", str(test_path)),),
            method="bootstrap",
            b=4,
            systems=(parse_system("mbsl:c=1"), parse_system("winnow")),
            output_dir=str(tmp_path / out_dir),
            workers=workers,
        )
        run_experiment(config)
        outputs = {}
        root = tmp_path / out_dir
        for path in sorted(root.rglob("*.tsv")):
            outputs[str(path.relative_to(root))] = path.read_bytes()
        return outputs

    first = run("r1", workers=1)
    second = run("r2", workers=1)
    pooled = run("r8", workers=8)
    assert first == second
    assert first == pooled
