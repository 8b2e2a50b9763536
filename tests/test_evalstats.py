import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npchunk.corpus import ChunkSpan, Corpus, Sentence
from npchunk.evalstats import (
    RecallSamples,
    compare_paired,
    score_run,
    summarize,
)
from npchunk.resample import PrngStream


def sent(n_tokens, spans):
    words = tuple(f"w{i}" for i in range(n_tokens))
    return Sentence(words, ("NN",) * n_tokens, tuple(ChunkSpan(a, b) for a, b in spans))


def spans(*pairs):
    return [ChunkSpan(a, b) for a, b in pairs]


# independent brute-force oracle implementations
def oracle_mean(xs):
    return sum(xs) / len(xs)


def oracle_std(xs):
    m = oracle_mean(xs)
    return math.sqrt(sum((x - m) ** 2 for x in xs) / (len(xs) - 1))


def oracle_rho(xs, ys):
    mx, my = oracle_mean(xs), oracle_mean(ys)
    num = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    dx = math.sqrt(sum((x - mx) ** 2 for x in xs))
    dy = math.sqrt(sum((y - my) ** 2 for y in ys))
    return num / (dx * dy)


class TestScoreRun:
    def test_half_recall_half_precision(self):
        gold = Corpus((sent(7, [(0, 2), (4, 6)]),))
        metrics = score_run(gold, [spans((0, 2), (3, 6))])
        assert metrics.recall == 0.5
        assert metrics.precision == 0.5

    def test_perfect_prediction(self):
        gold = Corpus((sent(4, [(0, 2)]), sent(3, [(1, 3)])))
        predicted = [spans((0, 2)), spans((1, 3))]
        metrics = score_run(gold, predicted)
        assert metrics.recall == 1.0
        assert metrics.precision == 1.0

    def test_empty_prediction(self):
        gold = Corpus((sent(4, [(0, 2)]),))
        metrics = score_run(gold, [[]])
        assert metrics.recall == 0.0
        assert metrics.precision is None

    def test_length_mismatch(self):
        gold = Corpus((sent(4, [(0, 2)]),))
        with pytest.raises(ValueError):
            score_run(gold, [])

    def test_recall_monotone_in_correct_additions(self):
        gold = Corpus((sent(8, [(0, 2), (3, 5), (6, 8)]),))
        partial = score_run(gold, [spans((0, 2))]).recall
        fuller = score_run(gold, [spans((0, 2), (3, 5))]).recall
        assert fuller > partial


class TestSummarize:
    def test_constant_sample(self):
        summary = summarize(RecallSamples("s", (0.5, 0.5, 0.5)))
        assert summary.mean == 0.5
        assert summary.std == 0.0

    def test_two_point_sample(self):
        summary = summarize(RecallSamples("s", (0.0, 1.0)))
        assert summary.mean == 0.5
        assert abs(summary.std - math.sqrt(0.5)) < 1e-15

    def test_single_sample_std_absent(self):
        summary = summarize(RecallSamples("s", (0.25,)))
        assert summary.mean == 0.25
        assert summary.std is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize(RecallSamples("s", ()))

    def test_mean_sums_left_to_right_on_every_python(self):
        # built-in sum() compensates from Python 3.12 and would give 0.1; the
        # reports must be the same bytes on every version
        assert summarize(RecallSamples("x", (0.1,) * 10)).mean == 0.09999999999999999

    def test_uniform_draws_match_analytic_moments(self):
        rng = PrngStream(13)
        xs = tuple(rng.next_float() for _ in range(1000))
        summary = summarize(RecallSamples("u", xs))
        assert abs(summary.mean - 0.5) < 0.03
        assert abs(summary.std - math.sqrt(1 / 12)) < 0.02


class TestComparePaired:
    def test_perfect_linear_relation(self):
        a = RecallSamples("a", (0.1, 0.2, 0.3))
        b = RecallSamples("b", (0.2, 0.4, 0.6))
        assert abs(compare_paired(a, b).rho - 1.0) < 1e-12

    def test_p_a_gt_b_count(self):
        a = RecallSamples("a", (0.2, 0.3, 0.4))
        b = RecallSamples("b", (0.1, 0.1, 0.5))
        comparison = compare_paired(a, b)
        assert comparison.p_a_gt_b == pytest.approx(2 / 3)
        assert comparison.p_tie == 0.0

    def test_ties_reported_separately(self):
        a = RecallSamples("a", (0.5, 0.3, 0.4))
        b = RecallSamples("b", (0.5, 0.2, 0.6))
        comparison = compare_paired(a, b)
        assert comparison.p_tie == pytest.approx(1 / 3)
        assert comparison.p_a_gt_b + comparison.p_tie <= 1.0

    def test_sigma_diff_closed_form(self):
        # std_a=0.14, std_b=0.10, rho=0.30 -> sqrt(0.0196+0.0100-0.0084)
        rng = PrngStream(77)
        # construct samples with approximately these moments via direct check:
        # the identity itself is exact, so verify on arbitrary data instead
        a = tuple(rng.next_float() for _ in range(50))
        b = tuple(rng.next_float() for _ in range(50))
        comparison = compare_paired(RecallSamples("a", a), RecallSamples("b", b))
        diffs = [x - y for x, y in zip(a, b)]
        assert comparison.sigma_diff == pytest.approx(oracle_std(diffs), rel=1e-9)

    def test_sigma_diff_from_reported_moments(self):
        expected = math.sqrt(0.14**2 + 0.10**2 - 2 * 0.14 * 0.10 * 0.30)
        assert expected == pytest.approx(0.1456, abs=5e-5)

    def test_zero_variance_side(self):
        a = RecallSamples("a", (0.5, 0.5, 0.5))
        b = RecallSamples("b", (0.1, 0.2, 0.3))
        comparison = compare_paired(a, b)
        assert comparison.rho is None
        assert comparison.sigma_diff == pytest.approx(oracle_std([0.4, 0.3, 0.2]))

    def test_identical_samples_have_zero_sigma_diff(self):
        # recalls 163/300, 60/300 and 189/300, as mbsl-c1 and mbsl-c3 both
        # give on wsj1 in the golden run; var_a + var_b - 2*cov does not
        # cancel to 0.0 on them
        a = RecallSamples("a", (0.5433333333333333, 0.2, 0.63))
        comparison = compare_paired(a, a)
        assert comparison.sigma_diff == 0.0
        assert comparison.p_tie == 1.0
        assert comparison.p_a_gt_b == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            compare_paired(RecallSamples("a", (0.1, 0.2)), RecallSamples("b", (0.1,)))

    def test_agrees_with_oracle(self):
        rng = PrngStream(21)
        for _ in range(20):
            xs = tuple(rng.next_float() for _ in range(40))
            ys = tuple(rng.next_float() for _ in range(40))
            comparison = compare_paired(RecallSamples("a", xs), RecallSamples("b", ys))
            assert comparison.rho == pytest.approx(oracle_rho(xs, ys), abs=1e-12)
            assert abs(comparison.rho) <= 1.0 + 1e-12


@st.composite
def _recall_pairs(draw):
    """Two recall vectors of one length, as score_run makes them (count
    ratios); either side may be constant."""
    n = draw(st.integers(2, 12))

    def side():
        n_gold = draw(st.integers(1, 1000))
        recall = st.integers(0, n_gold).map(lambda n_correct: n_correct / n_gold)
        if draw(st.booleans()):
            return RecallSamples("const", [draw(recall)] * n)
        return RecallSamples("free", draw(st.lists(recall, min_size=n, max_size=n)))

    return side(), side()


# three recalls of 0.1 average 0.10000000000000002, one rounding step off
_CONSTANT_TENTH = (RecallSamples("a", [0.1, 0.3, 0.2]), RecallSamples("b", [0.1] * 3))


class TestComparePairedProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(pair=_CONSTANT_TENTH)
    @given(pair=_recall_pairs())
    def test_sigma_diff_is_the_variance_identity(self, pair):
        a, b = pair
        n = len(a.values)
        mean_a, mean_b = oracle_mean(a.values), oracle_mean(b.values)
        var_a = sum((x - mean_a) ** 2 for x in a.values) / (n - 1)
        var_b = sum((y - mean_b) ** 2 for y in b.values) / (n - 1)
        cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(a.values, b.values)) / (n - 1)
        sigma = compare_paired(a, b).sigma_diff
        assert math.isclose(sigma ** 2, var_a + var_b - 2 * cov, rel_tol=1e-9, abs_tol=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=_recall_pairs())
    def test_rho_present_when_both_sides_vary(self, pair):
        a, b = pair
        if len(set(a.values)) > 1 and len(set(b.values)) > 1:
            assert compare_paired(a, b).rho is not None

    # compare_paired tests the computed variances against zero, so a constant
    # side whose mean rounds off gets a rho near 0 instead of none. The fix
    # changes report bytes that the benchmark's recorded digests pin.
    @pytest.mark.xfail(strict=True, reason="a constant side can get a rounding-residue rho")
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(pair=_CONSTANT_TENTH)
    @given(pair=_recall_pairs())
    def test_rho_absent_when_a_side_is_constant(self, pair):
        a, b = pair
        if len(set(a.values)) == 1 or len(set(b.values)) == 1:
            assert compare_paired(a, b).rho is None

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=_recall_pairs())
    def test_order_probabilities_sum_to_one(self, pair):
        a, b = pair
        ab, ba = compare_paired(a, b), compare_paired(b, a)
        assert ab.p_tie == ba.p_tie
        assert ab.p_a_gt_b + ab.p_tie + ba.p_a_gt_b == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(pair=_recall_pairs())
    def test_rho_and_sigma_diff_are_symmetric(self, pair):
        a, b = pair
        ab, ba = compare_paired(a, b), compare_paired(b, a)
        assert ab.rho == ba.rho
        assert ab.sigma_diff == pytest.approx(ba.sigma_diff, rel=1e-12, abs=1e-15)
