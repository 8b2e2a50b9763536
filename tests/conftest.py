import pytest


class ExampleIndex:
    """A stand-in for winnow.WinnowIndex over hand-made examples, each
    (features, label) example its own window of any hashable features.

    It has what WinnowUnit.train_rows reads: features[f] is the feature with
    id f, in order of first occurrence; windows[w] holds example w's feature
    ids, repeats kept; containing[f] holds the id of each window containing
    feature f, once per occurrence. rows[w] is the row (w, label) of
    example w.
    """

    def __init__(self, examples):
        ids = {}
        self.windows = [tuple([ids.setdefault(f, len(ids)) for f in features])
                        for features, _ in examples]
        self.features = list(ids)
        self.containing = [[] for _ in self.features]
        for w, window in enumerate(self.windows):
            for f in window:
                self.containing[f].append(w)
        self.rows = [(w, label) for w, (_, label) in enumerate(examples)]


@pytest.fixture(scope="session")
def example_index():
    """The ExampleIndex class, to build a stand-in from (features, label) examples."""
    return ExampleIndex


@pytest.fixture(scope="session")
def decide():
    """The reference per-window decision, decide(unit, features): unit's
    weights of features summed left to right from 0.0, an unseen feature
    adding 0, against its threshold."""

    def decide(unit, features):
        score = 0.0
        for f in features:
            score += unit.weights.get(f, 0.0)
        return score >= unit.threshold

    return decide
