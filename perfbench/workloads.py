"""Benchmark workloads and their seeded inputs.

Each workload is one `npchunk run` job: corpora drawn from the built-in genre
grammars under the workload seed, and a config file that names them by
relative path. `config_hash` covers those path strings, so they must read the
same on every run; jobs therefore run with the workload's own directory as
their working directory and reach the corpora through `../corpora/`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

# Corpus streams follow the acceptance tests: `gen:<grammar>` index 0 for the
# training corpus and the atis-like test, indices 1..3 for the wsj-like tests.
WSJ3_ATIS1 = (
    ("atis", "atis-like", 0),
    ("wsj0", "wsj-like", 1),
    ("wsj1", "wsj-like", 2),
    ("wsj2", "wsj-like", 3),
)


@dataclass(frozen=True)
class Workload:
    name: str
    train_sentences: int
    test_sentences: tuple[int, ...]  # one size per entry of WSJ3_ATIS1
    settings: tuple[str, ...]        # config lines besides seed and corpora

    @property
    def workers(self) -> int:
        """How many processes of the job compute at once."""
        return next(int(line.split("=", 1)[1]) for line in self.settings
                    if line.startswith("workers="))

    def corpora(self) -> list[tuple[str, str, int, int]]:
        """(label, grammar, sentences, stream index), training corpus first."""
        out = [("train", "wsj-like", self.train_sentences, 0)]
        for (label, grammar, index), size in zip(WSJ3_ATIS1, self.test_sentences):
            out.append((label, grammar, size, index))
        return out


# Sizes are scaled down from the acceptance-test shapes so that one job takes
# a few seconds on one core and several jobs fit in one measured run.
WORKLOADS = {
    w.name: w
    for w in (
        # test_08 shape: bootstrap views with repeated sentences; training
        # (MBSL c=1, c=3, Winnow) dominates.
        Workload(
            "boot-wsj-3sys", 900, (32, 16, 16, 16),
            ("method=bootstrap", "B=2", "systems=mbsl:c=1;mbsl:c=3;winnow", "workers=1"),
        ),
        # test_09 shape: CV views without repeats, MBSL only, through the
        # two-worker process pool. Ten folds keep both workers busy for five
        # rounds; five folds left one idle for the last round.
        Workload(
            "cv-wsj-mbsl-w2", 1000, (32, 16, 16, 16),
            ("method=cv", "k=5", "repetitions=2", "systems=mbsl:c=1", "workers=2"),
        ),
        # Small training set, large test sets: prediction dominates, so
        # training changes should not move it.
        Workload(
            "boot-predict-heavy", 250, (140, 140, 140, 140),
            ("method=bootstrap", "B=2", "systems=mbsl:c=3;winnow", "workers=1"),
        ),
    )
}

# Not a timed workload: a tiny configuration at a fixed seed whose output
# digest is recorded, so every run checks the output bytes whatever its seed.
# It also drives the pool path and all three systems.
GATE = Workload(
    "gate", 80, (10, 10, 10, 10),
    ("method=bootstrap", "B=3", "systems=mbsl:c=1;mbsl:c=3;winnow", "workers=2"),
)
GATE_SEED = 27

# The full test_08 configuration, run once by `--reference`.
REFERENCE = Workload(
    "reference", 8936, (190, 100, 100, 100),
    ("method=bootstrap", "B=50", "systems=mbsl:c=1;mbsl:c=3;winnow", "workers=1"),
)
REFERENCE_SEED = 27


def corpus_file(grammar: str, sentences: int, index: int, seed: int) -> str:
    return f"{grammar}-n{sentences}-i{index}-s{seed}.iob2"


def prepare(workload: Workload, seed: int, work_root: Path) -> Path:
    """Write the workload's corpora and config; return its job directory.

    Corpora are cached by (grammar, size, stream index, seed) under
    `work_root/corpora`, so they are generated once and outside any timing.
    """
    from npchunk import derive_stream, generate_corpus, write_corpus
    from npchunk.corpus import BUILTIN_GRAMMARS

    corpora_dir = work_root / "corpora"
    corpora_dir.mkdir(parents=True, exist_ok=True)
    job_dir = work_root / workload.name
    job_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"master_seed={seed}", *workload.settings, "output_dir=out"]
    for label, grammar, sentences, index in workload.corpora():
        name = corpus_file(grammar, sentences, index, seed)
        path = corpora_dir / name
        if not path.is_file():
            corpus = generate_corpus(
                BUILTIN_GRAMMARS[grammar], sentences,
                derive_stream(seed, f"gen:{grammar}", index),
            )
            partial = path.with_suffix(".partial")
            write_corpus(corpus, partial)
            os.replace(partial, path)
        key = "train" if label == "train" else f"test.{label}"
        lines.append(f"{key}=../corpora/{name}")
    (job_dir / "job.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return job_dir
