"""Data model, IOB2 file I/O, and synthetic generation for base-NP corpora.

A corpus is a list of POS-tagged sentences, each annotated with gold base-NP
spans. Base-NPs are non-recursive, so spans within a sentence are disjoint.
Files are 3-column IOB2: ``word<TAB>pos<TAB>tag`` with tag in {B-NP, I-NP, O},
one token per line, blank line between sentences.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .resample import PrngStream

B_TAG = "B-NP"
I_TAG = "I-NP"
O_TAG = "O"


class CorpusFormatError(ValueError):
    """Malformed IOB2 input. Carries the 1-based offending line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def _check_symbol(value: str, what: str) -> None:
    if not value or any(ch.isspace() for ch in value):
        raise ValueError(f"{what} must be non-empty and whitespace-free: {value!r}")


@dataclass(frozen=True)
class Token:
    word: str
    pos: str

    def __post_init__(self):
        _check_symbol(self.word, "word")
        _check_symbol(self.pos, "pos")


@dataclass(frozen=True)
class ChunkSpan:
    start: int  # inclusive token index
    end: int    # exclusive token index

    def __post_init__(self):
        if not (0 <= self.start < self.end):
            raise ValueError(f"invalid span ({self.start}, {self.end})")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]
    gold_spans: tuple[ChunkSpan, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "gold_spans", tuple(self.gold_spans))
        prev_end = 0
        for span in self.gold_spans:
            if span.start < prev_end:
                raise ValueError("spans must be sorted and disjoint")
            if span.end > len(self.tokens):
                raise ValueError("span exceeds sentence length")
            prev_end = span.end

    def __len__(self) -> int:
        return len(self.tokens)

    @property
    def pos_tags(self) -> tuple[str, ...]:
        return tuple(t.pos for t in self.tokens)

    def signature(self) -> tuple:
        """Hashable key identifying POS sequence + span layout.

        Learners in this package only look at POS tags and spans, so sentences
        with equal signatures are interchangeable for training; this enables
        caching of per-sentence work.
        """
        return (self.pos_tags, tuple((s.start, s.end) for s in self.gold_spans))


@dataclass(frozen=True)
class Corpus:
    name: str
    sentences: tuple[Sentence, ...]

    def __post_init__(self):
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def instance_count(self) -> int:
        return sum(len(s.gold_spans) for s in self.sentences)

    def max_sentence_instances(self) -> int:
        return max((len(s.gold_spans) for s in self.sentences), default=0)


# ---------------------------------------------------------------------------
# IOB2 file I/O


def _sentence_from_rows(rows: list[tuple[str, str, str]], first_line: int) -> Sentence:
    tokens = []
    spans: list[ChunkSpan] = []
    open_start = -1
    for offset, (word, pos, tag) in enumerate(rows):
        line_no = first_line + offset
        tokens.append(Token(word, pos))
        if tag == B_TAG:
            if open_start >= 0:
                spans.append(ChunkSpan(open_start, offset))
            open_start = offset
        elif tag == I_TAG:
            if open_start < 0:
                raise CorpusFormatError("I-NP not preceded by B-NP/I-NP", line_no)
        elif tag == O_TAG:
            if open_start >= 0:
                spans.append(ChunkSpan(open_start, offset))
                open_start = -1
        else:
            raise CorpusFormatError(f"unknown chunk tag {tag!r}", line_no)
    if open_start >= 0:
        spans.append(ChunkSpan(open_start, len(rows)))
    return Sentence(tuple(tokens), tuple(spans))


def read_corpus(path: str | Path, name: str | None = None) -> Corpus:
    """Read a strict-IOB2 file. Raises CorpusFormatError with a line number."""
    path = Path(path)
    sentences: list[Sentence] = []
    rows: list[tuple[str, str, str]] = []
    first_line = 1
    with open(path, encoding="utf-8", newline="") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                if rows:
                    sentences.append(_sentence_from_rows(rows, first_line))
                    rows = []
                first_line = line_no + 1
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusFormatError(
                    f"expected 3 tab-separated columns, got {len(parts)}", line_no
                )
            if not rows:
                first_line = line_no
            rows.append((parts[0], parts[1], parts[2]))
    if rows:
        sentences.append(_sentence_from_rows(rows, first_line))
    return Corpus(name if name is not None else path.stem, tuple(sentences))


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write strict IOB2. read_corpus(write_corpus(c)) round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        for idx, sentence in enumerate(corpus.sentences):
            if idx:
                handle.write("\n")
            tags = [O_TAG] * len(sentence)
            for span in sentence.gold_spans:
                tags[span.start] = B_TAG
                for i in range(span.start + 1, span.end):
                    tags[i] = I_TAG
            for token, tag in zip(sentence.tokens, tags):
                handle.write(f"{token.word}\t{token.pos}\t{tag}\n")


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


def generate_corpus(grammar: GenreGrammar, n_sentences: int, rng: PrngStream,
                    name: str | None = None) -> Corpus:
    """Deterministically generate a corpus from a genre grammar."""
    if n_sentences < 1:
        raise ValueError("n_sentences must be >= 1")
    sentences = []
    for _ in range(n_sentences):
        k = _draw_np_count(grammar, rng)
        tokens: list[Token] = []
        spans: list[ChunkSpan] = []

        def emit(pattern: Pattern) -> None:
            for pos in pattern:
                word = f"{pos.lower()}{rng.next_below(grammar.words_per_pos)}"
                tokens.append(Token(word, pos))

        for _ in range(k):
            emit(_weighted_choice(grammar.glue_patterns, rng))
            np = _weighted_choice(grammar.np_patterns, rng)
            spans.append(ChunkSpan(len(tokens), len(tokens) + len(np)))
            emit(np)
        emit(_weighted_choice(grammar.glue_patterns, rng))
        sentences.append(Sentence(tuple(tokens), tuple(spans)))
    return Corpus(name if name is not None else grammar.name, tuple(sentences))


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
