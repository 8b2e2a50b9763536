import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npchunk.corpus import (
    ATIS_LIKE,
    WSJ_LIKE,
    ChunkSpan,
    Corpus,
    CorpusFormatError,
    GenreGrammar,
    Sentence,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from npchunk.resample import derive_stream


def sent(tagged, spans):
    words, tags = zip(*tagged) if tagged else ((), ())
    return Sentence(words, tags, tuple(ChunkSpan(a, b) for a, b in spans))


class TestDataModel:
    def test_sentence_rejects_bad_words_and_tags(self):
        for words, tags in [(("a b",), ("NN",)), (("dog",), ("",)), (("",), ("NN",)),
                            (("dog",), ("N\u00a0N",)), (("dog", "ran"), ("NN",))]:
            with pytest.raises(ValueError):
                Sentence(words, tags)

    def test_span_is_a_plain_pair(self):
        s = sent([("a", "DT"), ("b", "NN")], [(0, 2)])
        assert s.gold_spans == ((0, 2),)

    def test_span_ordering_enforced(self):
        with pytest.raises(ValueError):
            sent([("a", "DT"), ("b", "NN")], [(0, 2), (1, 2)])

    def test_span_bounds_enforced(self):
        with pytest.raises(ValueError):
            sent([("a", "DT")], [(0, 2)])

    def test_instance_count(self):
        c = Corpus((sent([("a", "DT"), ("b", "NN")], [(0, 2)]),
                    sent([("x", "PRP")], [(0, 1)])))
        assert c.instance_count() == 2


class TestIob2Io:
    def test_read_single_sentence(self, tmp_path):
        path = tmp_path / "c.iob2"
        path.write_text("the\tDT\tB-NP\ndog\tNN\tI-NP\nran\tVBD\tO\n")
        corpus = read_corpus(path)
        assert len(corpus) == 1
        assert corpus.sentences[0].gold_spans == (ChunkSpan(0, 2),)
        assert corpus.sentences[0].pos_tags == ("DT", "NN", "VBD")

    def test_read_empty_file(self, tmp_path):
        path = tmp_path / "empty.iob2"
        path.write_text("")
        assert len(read_corpus(path)) == 0

    def test_read_two_sentences(self, tmp_path):
        path = tmp_path / "c.iob2"
        path.write_text(
            "the\tDT\tB-NP\ndog\tNN\tI-NP\n\nI\tPRP\tB-NP\n"
        )
        corpus = read_corpus(path)
        assert len(corpus) == 2
        assert corpus.instance_count() == 2

    def test_span_open_at_sentence_end(self, tmp_path):
        path = tmp_path / "c.iob2"
        path.write_text("the\tDT\tB-NP\ndog\tNN\tI-NP\n")
        corpus = read_corpus(path)
        assert corpus.sentences[0].gold_spans == (ChunkSpan(0, 2),)

    def test_wrong_column_count_reports_line(self, tmp_path):
        path = tmp_path / "c.iob2"
        path.write_text("a\tDT\tB-NP\nbroken line\n")
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert err.value.line_no == 2

    def test_strict_iob2_rejects_dangling_i(self, tmp_path):
        path = tmp_path / "c.iob2"
        path.write_text("a\tDT\tO\nb\tNN\tI-NP\n")
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert err.value.line_no == 2

    def test_unknown_tag_rejected(self, tmp_path):
        path = tmp_path / "c.iob2"
        path.write_text("a\tDT\tB-VP\n")
        with pytest.raises(CorpusFormatError):
            read_corpus(path)

    @pytest.mark.parametrize("text", [
        "a\tDT\tB-NP\na b\tNN\tI-NP\n",
        "a\tDT\tB-NP\n\tNN\tI-NP\n",
        "a\tDT\tB-NP\nb\t\tI-NP\n",
        "a\tDT\tB-NP\nb\tN N\tI-NP\n",
    ])
    def test_bad_field_reports_line(self, tmp_path, text):
        path = tmp_path / "c.iob2"
        path.write_text(text)
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert err.value.line_no == 2

    @pytest.mark.parametrize("text", [
        "a\tDT\tO\n\nbroken line\n",
        "a\tDT\tO\n\nb\tN N\tO\n",
        "a\tDT\tO\n\nb\tNN\tI-NP\n",
        "a\tDT\tO\n\nb\tNN\tB-VP\n",
    ])
    def test_errors_name_file_and_line(self, tmp_path, text):
        path = tmp_path / "c.iob2"
        path.write_text(text)
        with pytest.raises(CorpusFormatError, match=f"^{re.escape(str(path))}:3: "):
            read_corpus(path)

    @pytest.mark.parametrize("data, line_no", [
        (b"a\tDT\tB-NP\n\xff\tNN\tO\n", 2),
        # CRLF and a lone CR each end one line; a cut-off character at the end
        (b"a\tDT\tB-NP\r\n\r\nb\tNN\tO\rc\tNN\t\xc3", 4),
        # past the decoder's first read-ahead block
        (b"a\tDT\tO\n" * 5000 + b"\xe2\x82\tNN\tO\n", 5001),
    ], ids=["bad-start-byte", "cr-and-crlf", "past-first-block"])
    def test_non_utf8_bytes_name_file_and_line(self, tmp_path, data, line_no):
        path = tmp_path / "c.iob2"
        path.write_bytes(data)
        with pytest.raises(CorpusFormatError,
                           match=f"^{re.escape(str(path))}:{line_no}: not UTF-8") as err:
            read_corpus(path)
        assert err.value.line_no == line_no

    @pytest.mark.parametrize("data, line_no, message", [
        # the undecodable byte past the decoder's first read-ahead block, then
        # within it: the first fault in the file is reported either way
        (b"broken line\n" + b"a\tDT\tO\n" * 5000 + b"\xff\tNN\tO\n", 1,
         "expected 3 tab-separated columns, got 1"),
        (b"broken line\na\tDT\tO\n\xff\tNN\tO\n", 1, "expected 3 tab-separated columns, got 1"),
        # a block's chunk tags are checked once all its lines are read
        (b"a\tDT\tI-NP\n\n\xff\tNN\tO\n", 1, "I-NP not preceded by B-NP/I-NP"),
        (b"a\tDT\tI-NP\n\xff\tNN\tO\n", 2, "not UTF-8: invalid start byte at b'\\xff'"),
    ], ids=["past-first-block", "in-first-block", "tag-in-earlier-block", "tag-in-same-block"])
    def test_first_fault_in_file_order_wins(self, tmp_path, data, line_no, message):
        path = tmp_path / "c.iob2"
        path.write_bytes(data)
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert str(err.value) == f"{path}:{line_no}: {message}"
        assert err.value.line_no == line_no

    def test_crlf_file_reads_like_lf(self, tmp_path):
        text = "the\tDT\tB-NP\ndog\tNN\tI-NP\nran\tVBD\tO\n\nI\tPRP\tB-NP\n"
        lf, crlf = tmp_path / "lf.iob2", tmp_path / "crlf.iob2"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert read_corpus(crlf) == read_corpus(lf)
        assert len(read_corpus(crlf)) == 2

    def test_write_format(self, tmp_path):
        corpus = Corpus((sent([("the", "DT"), ("dog", "NN")], [(0, 2)]),))
        path = tmp_path / "out.iob2"
        write_corpus(corpus, path)
        assert path.read_text() == "the\tDT\tB-NP\ndog\tNN\tI-NP\n"

    def test_write_empty_corpus(self, tmp_path):
        path = tmp_path / "out.iob2"
        write_corpus(Corpus(()), path)
        assert path.read_text() == ""

    def test_write_rejects_sentence_without_tokens(self, tmp_path):
        # IOB2 cannot hold it: the file would read back one sentence short
        full = sent([("the", "DT"), ("dog", "NN")], [(0, 2)])
        path = tmp_path / "out.iob2"
        path.write_text("kept\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: sentence 1 has no tokens, which IOB2 cannot hold")):
            write_corpus(Corpus((full, sent([], []), full)), path)
        assert path.read_text() == "kept\n"  # checked before the file is opened

    def test_round_trip_generated_corpora(self, tmp_path):
        for seed, grammar in enumerate((WSJ_LIKE, ATIS_LIKE)):
            corpus = generate_corpus(grammar, 60, derive_stream(seed, "rt", 7))
            path = tmp_path / f"{grammar.name}.iob2"
            write_corpus(corpus, path)
            again = read_corpus(path)
            assert again == corpus
            write_corpus(again, tmp_path / "second.iob2")
            assert (tmp_path / "second.iob2").read_bytes() == path.read_bytes()


class TestGeneration:
    def test_single_pattern_grammar(self):
        grammar = GenreGrammar(
            name="toy",
            np_patterns=((("DT", "NN"), 1.0),),
            glue_patterns=((("VBD",), 1.0),),
            mean_nps=1.0, min_nps=1, max_nps=1,
        )
        corpus = generate_corpus(grammar, 1, derive_stream(0, "gen", 0))
        sentence = corpus.sentences[0]
        assert len(sentence.gold_spans) == 1
        span = sentence.gold_spans[0]
        assert sentence.pos_tags[span.start:span.end] == ("DT", "NN")

    def test_wsj_mean_converges(self):
        corpus = generate_corpus(WSJ_LIKE, 2000, derive_stream(3, "gen", 1))
        mean = corpus.instance_count() / len(corpus)
        assert 5.5 <= mean <= 6.5

    def test_atis_mean_converges(self):
        corpus = generate_corpus(ATIS_LIKE, 2000, derive_stream(3, "gen", 2))
        mean = corpus.instance_count() / len(corpus)
        assert 2.5 <= mean <= 3.5

    def test_same_seed_same_corpus(self):
        a = generate_corpus(WSJ_LIKE, 50, derive_stream(9, "gen", 5))
        b = generate_corpus(WSJ_LIKE, 50, derive_stream(9, "gen", 5))
        assert a == b

    def test_spans_disjoint_after_generation(self):
        corpus = generate_corpus(WSJ_LIKE, 200, derive_stream(11, "gen", 0))
        for sentence in corpus.sentences:
            prev = 0
            for span in sentence.gold_spans:
                assert span.start >= prev
                prev = span.end

    def test_invalid_grammar_rejected(self):
        with pytest.raises(ValueError):
            GenreGrammar("bad", (), ((("VBD",), 1.0),), mean_nps=1.0)
        with pytest.raises(ValueError):
            GenreGrammar(
                "bad",
                ((("NN",), 0.0),),
                ((("VBD",), 1.0),),
                mean_nps=1.0,
            )


# Any non-whitespace character that UTF-8 can encode: Cc holds tab, newline,
# carriage return and the other control characters that split lines or count
# as whitespace.
_SYMBOL = st.text(
    st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1, max_size=4,
)


@st.composite
def _sentences(draw):
    segments = draw(st.lists(st.tuples(st.booleans(), st.integers(1, 3)),
                             min_size=1, max_size=5))
    spans, length = [], 0
    for is_np, size in segments:
        if is_np:
            spans.append(ChunkSpan(length, length + size))
        length += size
    symbols = st.lists(_SYMBOL, min_size=length, max_size=length)
    return Sentence(tuple(draw(symbols)), tuple(draw(symbols)), tuple(spans))


_CORPORA = st.lists(_sentences(), max_size=4).map(lambda s: Corpus(tuple(s)))


class TestIob2Property:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @example(corpus=Corpus((sent([("the", "DT"), ("dog", "NN")], [(0, 2)]),) * 2))
    @given(corpus=_CORPORA)
    def test_write_then_read_round_trips(self, tmp_path_factory, corpus):
        path = tmp_path_factory.mktemp("rt") / "c.iob2"
        write_corpus(corpus, path)
        again = read_corpus(path)
        assert again == corpus
        # equal words, tags and spans of one file are one object each
        tokens = [v for s in again.sentences for v in s.words + s.pos_tags]
        spans = [span for s in again.sentences for span in s.gold_spans]
        for values in (tokens, spans):
            assert len({id(v) for v in values}) == len(set(values))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(corpus=_CORPORA.filter(len), data=st.data())
    def test_bad_field_raises_at_its_line(self, tmp_path_factory, corpus, data):
        path = tmp_path_factory.mktemp("bad") / "c.iob2"
        write_corpus(corpus, path)
        lines = path.read_text(encoding="utf-8").split("\n")
        line_no = data.draw(st.sampled_from(
            [n for n, line in enumerate(lines, start=1) if line]))
        fields = lines[line_no - 1].split("\t")
        column = data.draw(st.integers(0, 2))
        fields[column] = data.draw(st.sampled_from(
            ["", " ", "a b", "a\u00a0b", "\x1f", "\u3000x", "x\t"]))
        lines[line_no - 1] = "\t".join(fields)
        path.write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(CorpusFormatError) as err:
            read_corpus(path)
        assert err.value.line_no == line_no


def _reference_read(path):
    """read_corpus as it was, one line at a time: the oracle for the block reader."""
    seen, sentences, rows, first_line = {}, [], [], 1

    def sentence():
        spans, open_start = [], -1
        for offset, (_, _, tag) in enumerate(rows):
            if tag == "B-NP":
                if open_start >= 0:
                    spans.append(ChunkSpan(open_start, offset))
                open_start = offset
            elif tag == "I-NP":
                if open_start < 0:
                    raise CorpusFormatError(path, first_line + offset,
                                            "I-NP not preceded by B-NP/I-NP")
            elif tag == "O":
                if open_start >= 0:
                    spans.append(ChunkSpan(open_start, offset))
                    open_start = -1
            else:
                raise CorpusFormatError(path, first_line + offset, f"unknown chunk tag {tag!r}")
        if open_start >= 0:
            spans.append(ChunkSpan(open_start, len(rows)))
        words, tags, _ = zip(*rows)
        share = seen.setdefault
        return Sentence(tuple(map(share, words, words)), tuple(map(share, tags, tags)),
                        tuple(map(share, spans, spans)))

    with open(path, encoding="utf-8", newline="") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.rstrip("\r\n")
            if not line:
                if rows:
                    sentences.append(sentence())
                    rows = []
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise CorpusFormatError(
                    path, line_no, f"expected 3 tab-separated columns, got {len(parts)}")
            if line.split() != parts:
                raise CorpusFormatError(
                    path, line_no, f"a field is empty or contains whitespace: {line!r}")
            if not rows:
                first_line = line_no
            rows.append(parts)
    if rows:
        sentences.append(sentence())
    return Corpus(tuple(sentences))


@st.composite
def _iob2_files(draw):
    """The text of an IOB2 file: a corpus with blank-line runs before, between
    and after its sentences, each line ended by LF, CRLF or CR, the last
    maybe by nothing, and at most one fault of one kind."""
    lines = [""] * draw(st.integers(0, 2))
    for idx, sentence in enumerate(draw(_CORPORA).sentences):
        lines += [""] * (idx and draw(st.integers(1, 3)))
        chunk_tags = ["O"] * len(sentence)
        for start, end in sentence.gold_spans:
            chunk_tags[start:end] = ["B-NP"] + ["I-NP"] * (end - start - 1)
        lines += map("\t".join, zip(sentence.words, sentence.pos_tags, chunk_tags))
    lines += [""] * draw(st.integers(0, 2))
    fault = draw(st.sampled_from(["none", "columns", "field", "dangling", "tag", "space"]))
    tokens = [n for n, line in enumerate(lines) if line]
    if fault == "space":
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from([" ", "\t", "\u3000", " \t ", "\x1c"])))
    elif fault != "none" and tokens:
        n = draw(st.sampled_from(tokens))
        fields = lines[n].split("\t")
        if fault == "columns":
            fields = draw(st.sampled_from([fields[:1], fields[:2], fields + ["O"]]))
        elif fault == "field":
            fields[draw(st.integers(0, 2))] = draw(st.sampled_from(["", " ", "a b", "a\u00a0b"]))
        else:  # an I-NP that may dangle, or a tag outside {B-NP, I-NP, O}
            fields[2] = "I-NP" if fault == "dangling" else draw(
                st.sampled_from(["B-VP", "i-np", "X", "B-NPX", "OO"]))
        lines[n] = "\t".join(fields)
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]),
                         min_size=len(lines), max_size=len(lines)))
    text = "".join(map(str.__add__, lines, ends))
    return text[:-len(ends[-1])] if ends and draw(st.booleans()) else text


def _outcome(read, path):
    """The corpus read and which of its words, tags and spans are one object,
    or the error's message and line."""
    try:
        corpus = read(path)
    except CorpusFormatError as err:
        return str(err), err.line_no
    values = [v for s in corpus.sentences for v in s.words + s.pos_tags + s.gold_spans]
    first: dict = {}
    return (corpus, [first.setdefault(id(v), n) for n, v in enumerate(values)],
            [type(v) for v in values])


class TestBlockReaderProperty:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @example(text="a\tDT\tB-NP\r\nb\tNN\tI-NP\r\r\n\n c\tVB\tO\n")
    @example(text="\n\na\tDT\tO\rb\tNN\tI-NP\r\ra\tDT\tB-VP")
    @given(text=_iob2_files())
    def test_equals_line_by_line_reader(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("diff") / "c.iob2"
        path.write_bytes(text.encode("utf-8"))
        assert _outcome(read_corpus, path) == _outcome(_reference_read, path)
