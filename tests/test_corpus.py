import pytest

from npchunk.corpus import (
    ATIS_LIKE,
    WSJ_LIKE,
    ChunkSpan,
    Corpus,
    CorpusFormatError,
    GenreGrammar,
    Sentence,
    Token,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from npchunk.resample import derive_stream


def sent(tagged, spans):
    tokens = tuple(Token(w, p) for w, p in tagged)
    return Sentence(tokens, tuple(ChunkSpan(a, b) for a, b in spans))


class TestDataModel:
    def test_token_rejects_whitespace(self):
        with pytest.raises(ValueError):
            Token("a b", "NN")
        with pytest.raises(ValueError):
            Token("dog", "")

    def test_span_ordering_enforced(self):
        with pytest.raises(ValueError):
            sent([("a", "DT"), ("b", "NN")], [(0, 2), (1, 2)])

    def test_span_bounds_enforced(self):
        with pytest.raises(ValueError):
            sent([("a", "DT")], [(0, 2)])

    def test_instance_count(self):
        c = Corpus("c", (sent([("a", "DT"), ("b", "NN")], [(0, 2)]),
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

    def test_crlf_file_reads_like_lf(self, tmp_path):
        text = "the\tDT\tB-NP\ndog\tNN\tI-NP\nran\tVBD\tO\n\nI\tPRP\tB-NP\n"
        lf, crlf = tmp_path / "lf.iob2", tmp_path / "crlf.iob2"
        lf.write_bytes(text.encode())
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        assert read_corpus(crlf, name="c") == read_corpus(lf, name="c")
        assert len(read_corpus(crlf)) == 2

    def test_write_format(self, tmp_path):
        corpus = Corpus("c", (sent([("the", "DT"), ("dog", "NN")], [(0, 2)]),))
        path = tmp_path / "out.iob2"
        write_corpus(corpus, path)
        assert path.read_text() == "the\tDT\tB-NP\ndog\tNN\tI-NP\n"

    def test_write_empty_corpus(self, tmp_path):
        path = tmp_path / "out.iob2"
        write_corpus(Corpus("c", ()), path)
        assert path.read_text() == ""

    def test_round_trip_generated_corpora(self, tmp_path):
        for seed, grammar in enumerate((WSJ_LIKE, ATIS_LIKE)):
            corpus = generate_corpus(grammar, 60, derive_stream(seed, "rt", 7))
            path = tmp_path / f"{grammar.name}.iob2"
            write_corpus(corpus, path)
            again = read_corpus(path, name=corpus.name)
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

