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
