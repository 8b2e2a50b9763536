"""Data model, IOB2 file I/O, and synthetic generation for base-NP corpora.

A corpus holds a tuple of sentences; a sentence is three tuples: its words, one
POS tag per word, and its gold base-NP spans as ``ChunkSpan(start, end)``
token ranges, end exclusive. Base-NPs are non-recursive, so spans are sorted
and disjoint. Words and tags are non-empty and whitespace-free. The learners
and the scorer read only the tags and the spans. Records are named tuples,
or immutable __slots__ classes where len() counts tokens or sentences.

Files are 3-column IOB2: ``word<TAB>pos<TAB>tag`` with tag in {B-NP, I-NP, O},
one token per line, blank line between sentences. The first fault in a file,
in line order, raises ``CorpusFormatError``, whose message starts with
``<file>:<line>:``; each sentence block is checked by one regular expression,
and line by line only if it fails. In a corpus read from one file, equal
words, equal tags and equal spans are one object each: a run keeps its
corpora from the first resample to the last, and most of their tokens repeat.
The sharing goes through a dict local to the read, not ``sys.intern``, so
nothing of it outlives the corpus.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import NamedTuple, NoReturn, Sequence

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


class _Frozen:
    """An immutable record: equality, hash, repr and pickle go by its __slots__."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self.__slots__, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return _record, (type(self), *self._values())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # value's default lets it take (self, name)


def _record(cls, *values):
    """The cls record of values, unchecked."""
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record


class _Checked:
    """Listed before a NamedTuple base: _check runs on construction and _replace."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


class Sentence(_Frozen):
    __slots__ = ("words", "pos_tags", "gold_spans")

    def __new__(cls, words, pos_tags, gold_spans=()):
        words, pos_tags, gold_spans = tuple(words), tuple(pos_tags), tuple(gold_spans)
        if len(words) != len(pos_tags):
            raise ValueError(f"{len(words)} words but {len(pos_tags)} POS tags")
        for what, values in (("word", words), ("POS tag", pos_tags)):
            # one split over the joined values: equal iff none is empty or has whitespace
            if " ".join(values).split() != list(values):
                bad = next(v for v in values if v.split() != [v])
                raise ValueError(f"{what} must be non-empty and whitespace-free: {bad!r}")
        prev_end = 0
        for start, end in gold_spans:
            if not prev_end <= start < end <= len(words):
                raise ValueError(f"spans must be non-empty, sorted, disjoint and inside "
                                 f"the {len(words)} tokens: {gold_spans}")
            prev_end = end
        return _record(cls, words, pos_tags, gold_spans)

    def __len__(self) -> int:
        return len(self.words)


class Corpus(_Frozen):
    __slots__ = ("sentences",)

    def __new__(cls, sentences):
        return _record(cls, tuple(sentences))

    def __len__(self) -> int:
        return len(self.sentences)

    def instance_count(self) -> int:
        return sum(len(s.gold_spans) for s in self.sentences)


# ---------------------------------------------------------------------------
# IOB2 file I/O

# A valid block: lines of three tab-separated fields that str.split() keeps whole
# (\s is its whitespace), the last a chunk tag. read_corpus escapes bytes that are
# not UTF-8 to surrogates, so a line holding one fails here.
_LINE = r"[^\s\ud800-\udfff]+\t[^\s\ud800-\udfff]+\t(?:[BI]-NP|O)"
_VALID_BLOCK = re.compile(f"(?:{_LINE}\n)*{_LINE}")
_BLOCK = re.compile(r"[^\n]+(?:\n[^\n]+)*")  # a run of non-empty lines
_CHUNK = re.compile("BI*")  # a span, over one letter per chunk tag


def read_corpus(path: str | Path) -> Corpus:
    """Read a strict-IOB2 file. Raises CorpusFormatError naming file and line of
    the first fault, a block's chunk tags checked once all its lines are.

    Equal words, tags and spans of the file are one object each.
    """
    # universal newlines end lines at \n, \r\n and \r, as file iteration does
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        text = handle.read()
    seen: dict = {}  # word, tag or span -> its one object
    share, get = seen.setdefault, seen.get
    sentences = []
    for block in _BLOCK.finditer(text):
        lines = block.group()
        fields = lines.split()  # once the block matches, its words, tags and chunk tags
        letters = "".join(fields[2::3]).replace("-NP", "")  # B, I or O per token
        if not (_VALID_BLOCK.fullmatch(lines) and letters[0] != "I" and "OI" not in letters):
            _block_fault(path, lines.split("\n"), text.count("\n", 0, block.start()) + 1)
        words, tags = fields[0::3], fields[1::3]
        spans = [get(bounds) or share(bounds, ChunkSpan(*bounds))
                 for bounds in map(re.Match.span, _CHUNK.finditer(letters))]
        sentences.append(_record(Sentence, tuple(map(share, words, words)),
                                 tuple(map(share, tags, tags)), tuple(spans)))
    return Corpus(tuple(sentences))


def _block_fault(path: str | Path, lines: list[str], first_line: int) -> NoReturn:
    """Raise the CorpusFormatError of a faulty sentence block: its first line
    that is not UTF-8, has other than 3 columns or a bad field, else its
    first bad chunk tag."""
    for line_no, line in enumerate(lines, start=first_line):
        if re.search("[\ud800-\udfff]", line):  # escaped bytes, the file's first
            try:
                Path(path).read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:
                bad = exc.object[exc.start:exc.end]
                message = f"not UTF-8: {exc.reason} at {bad!r}"
                raise CorpusFormatError(path, line_no, message) from None
        parts = line.split("\t")
        if len(parts) != 3:
            message = f"expected 3 tab-separated columns, got {len(parts)}"
            raise CorpusFormatError(path, line_no, message)
        if line.split() != parts:
            message = f"a field is empty or contains whitespace: {line!r}"
            raise CorpusFormatError(path, line_no, message)
    open_chunk = False
    for line_no, line in enumerate(lines, start=first_line):
        tag = line.split("\t")[2]
        if tag == I_TAG and not open_chunk:
            raise CorpusFormatError(path, line_no, "I-NP not preceded by B-NP/I-NP")
        if tag not in (B_TAG, I_TAG, O_TAG):
            raise CorpusFormatError(path, line_no, f"unknown chunk tag {tag!r}")
        open_chunk = tag != O_TAG
    raise AssertionError(f"{path}:{first_line}: a block that fails no check")


def write_corpus(corpus: Corpus, path: str | Path) -> None:
    """Write strict IOB2. read_corpus(write_corpus(c)) round-trips exactly;
    a sentence with no tokens, which IOB2 cannot hold, is a ValueError."""
    for idx, sentence in enumerate(corpus.sentences):
        if not sentence.words:
            raise ValueError(f"{path}: sentence {idx} has no tokens, which IOB2 cannot hold")
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
WORDS_PER_POS = 20  # distinct synthetic words per POS tag


class _GenreGrammar(NamedTuple):
    name: str
    np_patterns: tuple[WeightedPattern, ...]
    glue_patterns: tuple[WeightedPattern, ...]
    mean_nps: float
    min_nps: int = 0
    max_nps: int = 12


class GenreGrammar(_Checked, _GenreGrammar):
    """Parameterizes one synthetic genre.

    A sentence is built as glue / NP alternation: for each of k NPs one glue
    pattern then one NP pattern are drawn by weight, with a final trailing
    glue pattern; k follows a min/max-bounded integer distribution with the
    given mean. Words are synthesized from the POS tag plus an index below
    WORDS_PER_POS so the word column stays format-compatible, without signal.
    """

    __slots__ = ()

    def _check(self):
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
                words.append(f"{pos.lower()}{rng.next_below(WORDS_PER_POS)}")
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
