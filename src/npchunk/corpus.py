"""Data model, IOB2 file I/O, and synthetic generation for base-NP corpora.

A corpus holds a tuple of sentences; a sentence is three tuples: its words, one
POS tag per word, and its gold base-NP spans as ``ChunkSpan(start, end)``
token ranges, end exclusive. Base-NPs are non-recursive, so spans are sorted
and disjoint. Words and tags are non-empty and whitespace-free. The learners
and the scorer read only the tags and the spans.

Files are 3-column IOB2: ``word<TAB>pos<TAB>tag`` with tag in {B-NP, I-NP, O},
one token per line, blank line between sentences. A malformed line raises
``CorpusFormatError``, whose message starts with ``<file>:<line>:``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

from .resample import PrngStream

B_TAG = "B-NP"
I_TAG = "I-NP"
O_TAG = "O"


class CorpusFormatError(ValueError):
    """Malformed IOB2 input. Carries the 1-based offending line number."""

    def __init__(self, path: str | Path, line_no: int, message: str):
        super().__init__(f"{path}:{line_no}: {message}")
        self.line_no = line_no


class ChunkSpan(NamedTuple):
    start: int  # inclusive token index
    end: int    # exclusive token index


@dataclass(frozen=True)
class Sentence:
    words: tuple[str, ...]
    pos_tags: tuple[str, ...]
    gold_spans: tuple[ChunkSpan, ...] = ()

    def __post_init__(self):
        for field in ("words", "pos_tags", "gold_spans"):
            object.__setattr__(self, field, tuple(getattr(self, field)))
        if len(self.words) != len(self.pos_tags):
            raise ValueError(f"{len(self.words)} words but {len(self.pos_tags)} POS tags")
        for what, values in (("word", self.words), ("POS tag", self.pos_tags)):
            # one split over the joined values: equal iff none is empty or has whitespace
            if " ".join(values).split() != list(values):
                bad = next(v for v in values if v.split() != [v])
                raise ValueError(f"{what} must be non-empty and whitespace-free: {bad!r}")
        prev_end = 0
        for start, end in self.gold_spans:
            if not prev_end <= start < end <= len(self.words):
                raise ValueError(f"spans must be non-empty, sorted, disjoint and inside "
                                 f"the {len(self.words)} tokens: {self.gold_spans}")
            prev_end = end

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def instance_count(self) -> int:
        return sum(len(s.gold_spans) for s in self.sentences)


# ---------------------------------------------------------------------------
# IOB2 file I/O


def _sentence_from_rows(rows: list[list[str]], first_line: int,
                        path: str | Path) -> Sentence:
    spans: list[ChunkSpan] = []
    open_start = -1
    for offset, (_, _, tag) in enumerate(rows):
        line_no = first_line + offset
        if tag == B_TAG:
            if open_start >= 0:
                spans.append(ChunkSpan(open_start, offset))
            open_start = offset
        elif tag == I_TAG:
            if open_start < 0:
                raise CorpusFormatError(path, line_no, "I-NP not preceded by B-NP/I-NP")
        elif tag == O_TAG:
            if open_start >= 0:
                spans.append(ChunkSpan(open_start, offset))
                open_start = -1
        else:
            raise CorpusFormatError(path, line_no, f"unknown chunk tag {tag!r}")
    if open_start >= 0:
        spans.append(ChunkSpan(open_start, len(rows)))
    words, tags, _ = zip(*rows)
    return Sentence(words, tags, tuple(spans))


def read_corpus(path: str | Path) -> Corpus:
    """Read a strict-IOB2 file. Raises CorpusFormatError naming file and line."""
    sentences: list[Sentence] = []
    rows: list[list[str]] = []
    first_line = 1
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.rstrip("\r\n")
                if not line:
                    if rows:
                        sentences.append(_sentence_from_rows(rows, first_line, path))
                        rows = []
                    continue
                parts = line.split("\t")
                if len(parts) != 3:
                    raise CorpusFormatError(
                        path, line_no, f"expected 3 tab-separated columns, got {len(parts)}"
                    )
                if line.split() != parts:
                    raise CorpusFormatError(
                        path, line_no, f"a field is empty or contains whitespace: {line!r}"
                    )
                if not rows:
                    first_line = line_no
                rows.append(parts)
    except UnicodeDecodeError:
        # the decoder reads ahead in blocks, so find the line in the raw bytes
        data = Path(path).read_bytes()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # the lines read_corpus counts: universal newlines, undecoded
            line_no = len(re.split(rb"\r\n?|\n", data[:exc.start]))
            raise CorpusFormatError(
                path, line_no, f"not UTF-8: {exc.reason} at {data[exc.start:exc.end]!r}"
            ) from None
        raise
    if rows:
        sentences.append(_sentence_from_rows(rows, first_line, path))
    return Corpus(tuple(sentences))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write strict IOB2. read_corpus(write_corpus(c)) round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for idx, sentence in enumerate(corpus.sentences):
            if idx:
                handle.write("\n")
            chunk_tags = [O_TAG] * len(sentence)
            for start, end in sentence.gold_spans:
                chunk_tags[start:end] = [B_TAG] + [I_TAG] * (end - start - 1)
            for row in zip(sentence.words, sentence.pos_tags, chunk_tags):
                handle.write("\t".join(row) + "\n")


# ---------------------------------------------------------------------------
# Synthetic genre grammars

Pattern = tuple[str, ...]
WeightedPattern = tuple[Pattern, float]


@dataclass(frozen=True)
class GenreGrammar:
    """Parameterizes one synthetic genre.

    A sentence is built as glue / NP alternation: for each of k NPs one glue
    pattern then one NP pattern are drawn by weight, with a final trailing
    glue pattern; k follows a min/max-bounded integer distribution with the
    given mean. Words are synthesized from the POS tag plus a small index so
    the word column stays format-compatible while carrying no signal.
    """

    name: str
    np_patterns: tuple[WeightedPattern, ...]
    glue_patterns: tuple[WeightedPattern, ...]
    mean_nps: float
    min_nps: int = 0
    max_nps: int = 12
    words_per_pos: int = 20

    def __post_init__(self):
        if not self.np_patterns or not self.glue_patterns:
            raise ValueError("np_patterns and glue_patterns must be non-empty")
        for _, weight in self.np_patterns + self.glue_patterns:
            if weight <= 0:
                raise ValueError("pattern weights must be positive")
        if not (self.min_nps <= self.mean_nps <= self.max_nps):
            raise ValueError("mean_nps must lie within [min_nps, max_nps]")


def _weighted_choice(patterns: Sequence[WeightedPattern], rng: PrngStream) -> Pattern:
    total = sum(w for _, w in patterns)
    r = rng.next_float() * total
    acc = 0.0
    for pattern, weight in patterns:
        acc += weight
        if r < acc:
            return pattern
    return patterns[-1][0]


def _draw_np_count(grammar: GenreGrammar, rng: PrngStream) -> int:
    lo, hi = grammar.min_nps, grammar.max_nps
    if hi == lo:
        return lo
    p = (grammar.mean_nps - lo) / (hi - lo)
    return lo + sum(1 for _ in range(hi - lo) if rng.next_float() < p)


def generate_corpus(grammar: GenreGrammar, n_sentences: int, rng: PrngStream) -> Corpus:
    """Deterministically generate a corpus from a genre grammar."""
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    sentences = []
    for _ in range(n_sentences):
        k = _draw_np_count(grammar, rng)
        words: list[str] = []
        tags: list[str] = []
        spans: list[ChunkSpan] = []

        def emit(pattern: Pattern) -> None:
            for pos in pattern:
                words.append(f"{pos.lower()}{rng.next_below(grammar.words_per_pos)}")
            tags.extend(pattern)

        for _ in range(k):
            emit(_weighted_choice(grammar.glue_patterns, rng))
            np = _weighted_choice(grammar.np_patterns, rng)
            spans.append(ChunkSpan(len(tags), len(tags) + len(np)))
            emit(np)
        emit(_weighted_choice(grammar.glue_patterns, rng))
        sentences.append(Sentence(tuple(words), tuple(tags), tuple(spans)))
    return Corpus(tuple(sentences))


# Two built-in genres mirroring the newswire-vs-dialogue contrast: elaborate
# sentences with ~6 NPs against short requests with ~3 NPs and different
# glue-tag distribution. The rare NN-NN noun compound is common in the
# atis-like genre but marginal (and ambiguous) in the wsj-like one.
WSJ_LIKE = GenreGrammar(
    name="wsj-like",
    np_patterns=(
        (("DT", "NN"), 30.0),
        (("DT", "JJ", "NN"), 18.0),
        (("NNS",), 10.0),
        (("PRP",), 8.0),
        (("DT", "NN", "NN"), 6.0),
        (("JJ", "NNS"), 8.0),
        (("DT", "JJ", "JJ", "NN"), 4.0),
        # Genuinely ambiguous constructions: CD CD and FW FW occur both as
        # chunks and (below, in glue) as non-chunk material, with weights
        # chosen so positive and negative evidence are balanced in
        # expectation. Their treatment therefore varies from one training
        # resample to the next.
        (("CD", "CD"), 8.0),
        (("FW", "FW"), 1.0),
    ),
    glue_patterns=(
        (("VBD",), 10.0),
        (("IN",), 10.0),
        (("VBD", "IN"), 6.0),
        (("CC",), 4.0),
        (("RB", "VBD"), 5.0),
        (("MD", "VB"), 4.0),
        # Negative evidence for the ambiguous constructions above. With
        # mean_nps m, a chunk pattern of weight w is expected m*w/W_np times
        # per sentence and a glue pattern (m+1)*g/W_glue times; the weights
        # below equate the two for CD CD and FW FW.
        (("VBD", "CD", "CD", "IN"), 3.136),
        (("IN", "FW", "FW", "VBD"), 0.392),
    ),
    mean_nps=6.0,
    min_nps=1,
    max_nps=12,
)

ATIS_LIKE = GenreGrammar(
    name="atis-like",
    np_patterns=(
        # FW FW dominates here while being rare and ambiguous in wsj-like
        # material, so models trained on the other genre treat it
        # inconsistently across resamples.
        (("FW", "FW"), 10.0),
        (("DT", "NN"), 8.0),
        (("PRP",), 6.0),
        (("NNS",), 4.0),
        (("DT", "JJ", "NN"), 2.0),
    ),
    glue_patterns=(
        (("VBD", "IN"), 6.0),
        (("VB",), 4.0),
        (("TO", "VB"), 3.0),
        (("WRB",), 2.0),
    ),
    mean_nps=3.0,
    min_nps=1,
    max_nps=6,
)

BUILTIN_GRAMMARS = {
    WSJ_LIKE.name: WSJ_LIKE,
    ATIS_LIKE.name: ATIS_LIKE,
}
