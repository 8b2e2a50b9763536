import gc
import os
import re
import shutil
import signal
import subprocess
import sys
import threading
import zlib
from pathlib import Path

import pytest

from npchunk import cli, harness, mbsl
from npchunk.corpus import (
    BUILTIN_GRAMMARS,
    GenreGrammar,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from npchunk.harness import (
    ConfigError,
    ExperimentConfig,
    build_plans,
    gen_corpus_cmd,
    load_config,
    parse_system,
    replay_resample,
    run_experiment,
    stats_cmd,
)
from npchunk.resample import PrngStream, derive_stream

TOY = GenreGrammar(
    "toy",
    np_patterns=((("DT", "NN"), 3.0), (("PRP",), 1.0)),
    glue_patterns=((("VBD",), 2.0), (("IN",), 1.0)),
    mean_nps=2.0,
    min_nps=1,
    max_nps=4,
)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpora")
    train = generate_corpus(TOY, 60, derive_stream(5, "gen", 0))
    test_a = generate_corpus(TOY, 20, derive_stream(5, "gen", 1))
    test_b = generate_corpus(TOY, 20, derive_stream(5, "gen", 2))
    paths = {}
    for name, corpus in (("train", train), ("a", test_a), ("b", test_b)):
        path = root / f"{name}.iob2"
        write_corpus(corpus, path)
        paths[name] = str(path)
    return paths


@pytest.fixture(scope="module")
def wsj_corpora(tmp_path_factory):
    # a wsj-like training corpus small enough that its resamples and the
    # full corpus score apart
    root = tmp_path_factory.mktemp("wsj")
    paths = {}
    for name, sentences, index in (("train", 80, 0), ("a", 20, 1), ("b", 20, 2)):
        path = root / f"{name}.iob2"
        write_corpus(generate_corpus(BUILTIN_GRAMMARS["wsj-like"], sentences,
                                     derive_stream(5, "gen", index)), path)
        paths[name] = str(path)
    return paths


def make_config(paths, out_dir, **kw):
    defaults = dict(
        master_seed=11,
        training_corpus=paths["train"],
        test_corpora=(("a", paths["a"]), ("b", paths["b"])),
        method="bootstrap",
        b=3,
        systems=(parse_system("mbsl:c=1"), parse_system("winnow")),
        output_dir=str(out_dir),
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def assert_no_child_left():
    # every forked worker has been reaped: this process has no child at all
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestParseSystem:
    def test_aliases_and_label(self):
        spec = parse_system("mbsl:c=2")
        assert spec.kind == "mbsl"
        assert dict(spec.params)["context_size"] == "2"
        assert spec.label == "mbsl-c2"

    def test_winnow_aliases(self):
        spec = parse_system("winnow:alpha=2,theta=8")
        params = dict(spec.params)
        assert params["promotion"] == "2"
        assert params["threshold"] == "8"

    def test_explicit_label(self):
        assert parse_system("mbsl:c=3,label=wide").label == "wide"

    def test_bad_kind(self):
        with pytest.raises(ConfigError):
            parse_system("svm")

    def test_bad_param_value_rejected_eagerly(self):
        with pytest.raises((ConfigError, ValueError)):
            parse_system("winnow:alpha=0.5")

    def test_values_cast_to_field_types(self):
        cfg = parse_system("mbsl:max_tile_len=4,tile_threshold=1").build()
        assert cfg.max_tile_len == 4 and type(cfg.max_tile_len) is int
        assert cfg.tile_threshold == 1.0 and type(cfg.tile_threshold) is float

    def test_unknown_mbsl_param_rejected(self):
        with pytest.raises(ConfigError, match=r"'cc'.*known: c, context_size"):
            parse_system("mbsl:cc=3")

    def test_unknown_winnow_param_rejected(self):
        with pytest.raises(ConfigError, match=r"'epoch'.*epochs"):
            parse_system("winnow:epoch=5")

    def test_repeated_param_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_system("mbsl:c=1,c=3")

    def test_alias_and_full_name_count_as_repeat(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_system("mbsl:c=1,context_size=3")


class TestConfig:
    def test_bootstrap_needs_b(self, corpora):
        with pytest.raises(ConfigError):
            make_config(corpora, "out", b=0)

    def test_cv_needs_k(self, corpora):
        with pytest.raises(ConfigError):
            make_config(corpora, "out", method="cv", k=1)

    def test_duplicate_labels(self, corpora):
        with pytest.raises(ConfigError):
            make_config(
                corpora, "out",
                systems=(parse_system("mbsl:c=1"), parse_system("mbsl:c=1")),
            )

    @pytest.mark.parametrize("system, test, bad", [
        ("mbsl:c=1,label=x/y", "a", "x/y"),
        ("mbsl:c=1", "../a", "../a"),
        ("mbsl:c=1", "x\ty", "x\ty"),
    ])
    def test_label_with_slash_or_tab_rejected(self, corpora, system, test, bad):
        with pytest.raises(ConfigError, match=re.escape(f"label {bad!r}")):
            make_config(corpora, "out", systems=(parse_system(system),),
                        test_corpora=((test, corpora["a"]),))

    def test_colliding_sample_files_name_both_pairs(self, corpora):
        # a x b_c and a_b x c would both write samples/a_b_c.tsv
        with pytest.raises(ConfigError, match=re.escape(
                "('a', 'b_c') and ('a_b', 'c') both write samples/a_b_c.tsv")):
            make_config(
                corpora, "out",
                systems=(parse_system("mbsl:label=a"), parse_system("mbsl:c=3,label=a_b")),
                test_corpora=(("b_c", corpora["a"]), ("c", corpora["b"])),
            )

    def test_hash_insensitive_to_output_dir_and_workers(self, corpora):
        c1 = make_config(corpora, "out1", workers=1)
        c2 = make_config(corpora, "out2", workers=4)
        assert c1.config_hash() == c2.config_hash()

    def test_hash_sensitive_to_seed(self, corpora):
        c1 = make_config(corpora, "out")
        c2 = make_config(corpora, "out", master_seed=12)
        assert c1.config_hash() != c2.config_hash()

    def test_hash_covers_content_not_path(self, corpora, tmp_path):
        copies = {}
        for where in ("one", "two"):
            (tmp_path / where).mkdir()
            copies[where] = {}
            for name, path in corpora.items():
                copy = tmp_path / where / f"{name}.iob2"
                shutil.copyfile(path, copy)
                copies[where][name] = str(copy)
        assert (make_config(copies["one"], "out").config_hash()
                == make_config(copies["two"], "out").config_hash()
                == make_config(corpora, "out").config_hash())

    def test_corpus_lines_are_crc32_of_the_file_bytes(self, corpora):
        lines = make_config(corpora, "out").canonical_text().splitlines()
        for key, name in (("train", "train"), ("test.a", "a"), ("test.b", "b")):
            assert f"{key}={zlib.crc32(Path(corpora[name]).read_bytes()):08x}" in lines

    def test_crlf_copy_changes_the_hash(self, corpora, tmp_path):
        # the same sentences in other bytes: the digest is of the bytes
        crlf = tmp_path / "train.iob2"
        crlf.write_bytes(Path(corpora["train"]).read_bytes().replace(b"\n", b"\r\n"))
        assert read_corpus(crlf).sentences == read_corpus(corpora["train"]).sentences
        assert (make_config({**corpora, "train": str(crlf)}, "out").config_hash()
                != make_config(corpora, "out").config_hash())

    @pytest.mark.parametrize("key", ["master_seed", "B", "k", "repetitions", "workers"])
    def test_load_config_integer_value_names_key(self, tmp_path, key):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "master_seed=1\ntrain=t.iob2\ntest.a=a.iob2\nmethod=cv\nk=2\n"
            "systems=mbsl:c=1\n"
        )
        with pytest.raises(ConfigError, match=f"'{key}'.*'fifty'"):
            load_config(cfg_path, overrides=[f"{key}=fifty"])

    @pytest.mark.parametrize("key, value", [
        ("output_dir", "out  # tmp"), ("systems", "mbsl:c=1 # fast"), ("B", "5#"),
        ("test.a", "a#1.iob2"),
    ])
    def test_load_config_hash_in_value_names_key(self, tmp_path, key, value):
        entries = {"master_seed": "1", "train": "t.iob2", "test.a": "a.iob2",
                   "method": "bootstrap", "B": "2", "systems": "mbsl:c=1"}
        cfg_path = tmp_path / "exp.cfg"
        bad = {**entries, key: value}
        cfg_path.write_text("".join(f"{k}={v}\n" for k, v in bad.items()))
        where = re.escape(str(cfg_path))
        with pytest.raises(ConfigError, match=f"{where}:\\d+: config key '{key}'"):
            load_config(cfg_path)
        cfg_path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            load_config(cfg_path, overrides=[f"{key}={value}"])

    @pytest.mark.parametrize("key", [
        "master_seed", "train", "method", "B", "k", "repetitions", "systems",
        "output_dir", "workers", "test.a",
    ])
    def test_load_config_empty_value_names_key(self, tmp_path, key):
        # `output_dir=` would write the reports into the working directory,
        # and `train=` or `test.a=` fail as a bare OSError on ''
        entries = {"master_seed": "1", "train": "t.iob2", "test.a": "a.iob2",
                   "method": "bootstrap", "B": "2", "systems": "mbsl:c=1"}
        cfg_path = tmp_path / "exp.cfg"
        bad = {**entries, key: ""}
        cfg_path.write_text("".join(f"{k}={v}\n" for k, v in bad.items()))
        line_no = list(bad).index(key) + 1
        with pytest.raises(ConfigError, match=re.escape(
                f"{cfg_path}:{line_no}: config key {key!r} has an empty value")):
            load_config(cfg_path)
        cfg_path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
        with pytest.raises(ConfigError, match=re.escape(
                f"override '{key}= ': config key {key!r} has an empty value")):
            load_config(cfg_path, overrides=[f"{key}= "])

    def test_load_config_empty_test_label_names_line(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("master_seed=1\ntest.=a.iob2\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"{cfg_path}:2: test corpus label must be non-empty")):
            load_config(cfg_path)
        cfg_path.write_text("master_seed=1\n")
        with pytest.raises(ConfigError, match=re.escape(
                "override 'test.=a.iob2': test corpus label must be non-empty")):
            load_config(cfg_path, overrides=["test.=a.iob2"])

    def test_load_config_overrides(self, corpora, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(
            "# comment\n"
            f"master_seed=11\ntrain={corpora['train']}\n"
            f"test.a={corpora['a']}\n"
            "method=bootstrap\nB=3\nsystems=mbsl:c=1\n"
        )
        config = load_config(cfg_path, overrides=["B=5", f"test.b={corpora['b']}"])
        assert config.b == 5
        assert dict(config.test_corpora) == {"a": corpora["a"], "b": corpora["b"]}

    @pytest.mark.parametrize("line", ["methdo=cv", "worker=4"])
    def test_load_config_unknown_key(self, tmp_path, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"master_seed=1\n{line}\n")
        key = line.split("=")[0]
        with pytest.raises(ConfigError, match=f"bad.cfg:2: unknown config key '{key}'.*known:"):
            load_config(cfg_path)

    def test_load_config_unknown_override_key(self, tmp_path):
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text("master_seed=1\n")
        with pytest.raises(ConfigError, match="unknown config key 'worker'"):
            load_config(cfg_path, overrides=["worker=4"])

    @pytest.mark.parametrize("key", ["B", "test.a"])
    def test_load_config_repeated_key(self, tmp_path, key):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"master_seed=1\n{key}=3\n{key}=5\n")
        with pytest.raises(ConfigError, match=f"bad.cfg:3: duplicate config key '{key}'"):
            load_config(cfg_path)

    def test_load_config_malformed_line(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("just a line\n")
        with pytest.raises(ConfigError, match="bad.cfg:1"):
            load_config(cfg_path)

    def test_load_config_missing_key(self, tmp_path):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("method=bootstrap\n")
        with pytest.raises(ConfigError, match="master_seed"):
            load_config(cfg_path)


class TestBuildPlans:
    def test_bootstrap_ids(self, corpora):
        config = make_config(corpora, "out", b=4)
        train = read_corpus(corpora["train"])
        tasks = build_plans(config, train)
        assert [t[0] for t in tasks] == [0, 1, 2, 3]
        assert all(held is None for _, _, held in tasks)

    def test_cv_ids_and_folds(self, corpora):
        config = make_config(corpora, "out", method="cv", b=0, k=3, repetitions=2)
        train = read_corpus(corpora["train"])
        tasks = build_plans(config, train)
        assert [t[0] for t in tasks] == list(range(6))
        assert [held for _, _, held in tasks] == [0, 1, 2, 0, 1, 2]
        # both folds of one repetition share the same partition plan
        assert tasks[0][1] is tasks[1][1]
        assert tasks[0][1] is not tasks[3][1]


class TestRunExperiment:
    def test_bootstrap_outputs(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out")
        report = run_experiment(config)
        out = tmp_path / "out"
        for name in ("summary.tsv", "pairs.tsv", "xcorr.tsv", "plans.tsv", "runs.tsv"):
            text = (out / name).read_text()
            assert text.startswith(f"# config_hash={report.config_hash}\n")
        sample_files = sorted(p.name for p in (out / "samples").iterdir())
        assert sample_files == [
            "mbsl-c1_a.tsv", "mbsl-c1_b.tsv", "winnow_a.tsv", "winnow_b.tsv",
        ]
        for key, sample in report.samples.items():
            assert len(sample.values) == 3
        summary_rows = [
            line.split("\t")
            for line in (out / "summary.tsv").read_text().splitlines()[2:]
        ]
        assert len(summary_rows) == 4  # 2 systems x 2 tests
        assert all(row[2] == "bootstrap-B3" for row in summary_rows)

    @pytest.mark.parametrize("method", ["bootstrap", "cv"])
    def test_plan_digests_are_crc32_of_the_plan_lines(self, corpora, tmp_path, method):
        # a cv row's digest also covers its held-out fold, as "/<fold>"
        config = make_config(corpora, tmp_path / "out", method=method, b=3, k=3,
                             systems=(parse_system("mbsl:c=1"),))
        run_experiment(config)
        tasks = build_plans(config, read_corpus(corpora["train"]))
        _, _, *rows = (tmp_path / "out" / "plans.tsv").read_text().splitlines()
        assert len(rows) == len(tasks) == 3
        for row, (rid, plan, held) in zip(rows, tasks):
            line = plan.to_line() + ("" if held is None else f"/{held}")
            row_id, _, digest, _ = row.split("\t")
            assert (row_id, digest) == (str(rid), f"{zlib.crc32(line.encode()):08x}")

    def test_cv_sample_count(self, corpora, tmp_path):
        config = make_config(
            corpora, tmp_path / "out", method="cv", b=0, k=5, repetitions=2,
            systems=(parse_system("mbsl:c=1"),),
        )
        report = run_experiment(config)
        for sample in report.samples.values():
            assert len(sample.values) == 10

    @pytest.mark.parametrize("key, method, text", [
        ("test.b", "bootstrap", ""),
        ("test.b", "bootstrap", "a\tDT\tO\nb\tNN\tO\n"),
        ("train", "bootstrap", "a\tDT\tO\nb\tNN\tO\n"),
        ("train", "cv", "a\tDT\tO\n\nb\tNN\tO\n"),
    ])
    def test_corpus_without_instances_names_key_and_path(self, corpora, tmp_path,
                                                         key, method, text):
        bare = tmp_path / "bare.iob2"
        bare.write_text(text)
        paths = {**corpora, {"train": "train", "test.b": "b"}[key]: str(bare)}
        config = make_config(paths, tmp_path / "out", method=method, k=2)
        with pytest.raises(ConfigError, match=re.escape(
                f"config key {key!r}: {bare} has no base-NP instances")):
            run_experiment(config)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("systems, length", [
        ("mbsl:c=1;mbsl:c=3", 6),
        ("mbsl:c=1;mbsl:c=3,max_tile_len=4;winnow", 6),
        ("winnow", None),
    ])
    def test_one_mbsl_index_at_longest_tile_length(self, corpora, tmp_path, systems,
                                                    length):
        config = make_config(corpora, tmp_path / "out", systems=tuple(
            parse_system(spec) for spec in systems.split(";")))
        experiment = harness._Experiment(config)
        if length is None:
            assert experiment.mbsl_index is None
        else:
            assert experiment.mbsl_index.max_tile_len == length

    def test_worker_count_does_not_change_bytes(self, wsj_corpora, tmp_path):
        systems = tuple(parse_system(spec) for spec in ("mbsl:c=1", "mbsl:c=3", "winnow"))
        cfg1 = make_config(wsj_corpora, tmp_path / "w1", systems=systems, workers=1)
        report = run_experiment(cfg1)
        # the four tasks' results differ pairwise, so results put back in the
        # wrong task order change the bytes
        keys = sorted(report.e_full)
        results = [tuple(report.e_full[key] for key in keys)] + [
            tuple(report.samples[key].values[r] for key in keys) for r in range(cfg1.b)]
        assert len(set(results)) == len(results) == 4
        # b=3 makes four tasks: workers=2 gives the parent and its one child
        # two each; workers=3 gives the parent two, e_full's among them, and
        # each of two children one
        for workers in (2, 3):
            run_experiment(cfg1._replace(
                workers=workers, output_dir=str(tmp_path / f"w{workers}")))
        for name in ("summary.tsv", "pairs.tsv", "xcorr.tsv", "plans.tsv", "runs.tsv"):
            expected = (tmp_path / "w1" / name).read_bytes()
            assert (tmp_path / "w2" / name).read_bytes() == expected
            assert (tmp_path / "w3" / name).read_bytes() == expected

    def test_pool_starts_at_most_one_worker_per_task(self, corpora, tmp_path, monkeypatch):
        threads_at_fork = []
        fork = os.fork

        def counting_fork():
            threads_at_fork.append(threading.active_count())
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        serial = run_experiment(make_config(corpora, tmp_path / "w1", b=3))
        pooled = run_experiment(make_config(corpora, tmp_path / "w8", b=3, workers=8))
        # three resamples and the full-corpus task, less the parent's share;
        # and no thread at any fork (-W error does not surface os.fork's
        # warning about threads: CPython 3.12 and 3.13 drop it)
        assert threads_at_fork == [1, 1, 1]
        assert pooled.samples == serial.samples
        assert pooled.e_full == serial.e_full
        assert_no_child_left()

    def test_tasks_leave_tile_maps_as_built(self, corpora, tmp_path):
        # the experiment is complete when built: every task, e_full's
        # included, trains from the tile maps __init__ made
        config = make_config(corpora, tmp_path / "out", systems=tuple(
            parse_system(spec) for spec in ("mbsl:c=1", "mbsl:c=3,max_tile_len=4", "winnow")))
        experiment = harness._Experiment(config)
        tile_maps = experiment.mbsl_index._tile_maps
        built = dict(tile_maps)
        assert set(built) == {(1, 6), (3, 4)}
        assert len(experiment.run_all()) == 1 + len(experiment.tasks)
        assert tile_maps.keys() == built.keys()
        assert all(tile_maps[key] is tile_map for key, tile_map in built.items())

    def test_parent_keeps_no_worker_state(self, corpora, tmp_path):
        for workers in (1, 2):
            run_experiment(make_config(corpora, tmp_path / f"w{workers}", b=2, workers=workers))
        replay_resample(make_config(corpora, tmp_path / "w1", b=2), 0)
        assert not hasattr(harness, "_worker_experiment")
        assert_no_child_left()

    def test_rerun_is_byte_identical(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out", b=2)
        run_experiment(config)
        first = (tmp_path / "out" / "runs.tsv").read_bytes()
        run_experiment(config)
        assert (tmp_path / "out" / "runs.tsv").read_bytes() == first

    def test_no_profile_outlives_its_index(self, corpora, tmp_path):
        run_experiment(make_config(corpora, tmp_path / "out", b=2))
        assert mbsl._sentence_profiles.cache_info().currsize == 0
        # a second index over the same corpus recomputes every profile
        train = read_corpus(corpora["train"])
        for _ in range(2):
            before = mbsl._sentence_profiles.cache_info()
            mbsl.MbslIndex(train, 6)
            after = mbsl._sentence_profiles.cache_info()
            assert after.misses - before.misses == len(train)
            assert after.hits == before.hits


class TestPool:
    """workers > 1: the parent forks workers - 1 children and runs a share."""

    @staticmethod
    def fail_in(monkeypatch, where, fail):
        # forked children inherit the patch; `where` picks the parent or a child
        parent = os.getpid()
        run_resample = harness._Experiment.run_resample

        def patched(self, task):
            if (os.getpid() == parent) == (where == "parent"):
                fail()
            return run_resample(self, task)

        monkeypatch.setattr(harness._Experiment, "run_resample", patched)

    def test_child_exception_reaches_the_caller(self, corpora, tmp_path, monkeypatch):
        def fail():
            raise KeyError("lost in a child")

        self.fail_in(monkeypatch, "child", fail)
        with pytest.raises(KeyError, match="lost in a child"):
            run_experiment(make_config(corpora, tmp_path / "out", b=3, workers=2))
        assert_no_child_left()

    def test_unpicklable_child_exception_arrives_as_its_traceback(
            self, corpora, tmp_path, monkeypatch):
        class Unpicklable(Exception):
            def __reduce__(self):
                raise TypeError("no pickling")

        def fail():
            raise Unpicklable("kept as text")

        self.fail_in(monkeypatch, "child", fail)
        with pytest.raises(RuntimeError, match=r"(?s)Traceback.*Unpicklable: kept as text"):
            run_experiment(make_config(corpora, tmp_path / "out", b=3, workers=2))
        assert_no_child_left()

    def test_killed_child_names_the_signal(self, corpora, tmp_path, monkeypatch):
        self.fail_in(monkeypatch, "child", lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match="SIGKILL"):
            run_experiment(make_config(corpora, tmp_path / "out", b=3, workers=3))
        assert_no_child_left()

    def test_parent_failure_reaps_the_children(self, corpora, tmp_path, monkeypatch):
        def fail():
            raise ValueError("the parent's share failed")

        self.fail_in(monkeypatch, "parent", fail)
        with pytest.raises(ValueError, match="the parent's share failed"):
            run_experiment(make_config(corpora, tmp_path / "out", b=3, workers=4))
        assert_no_child_left()

    def test_results_larger_than_a_pipe_buffer(self, corpora, tmp_path, monkeypatch):
        # each child's pickled share exceeds a 64 KiB pipe buffer, so the parent
        # must read every pipe to its end before it waits for that child
        def run_resample(self, task):
            return {"task": task, "padding": "x" * 100_000}

        monkeypatch.setattr(harness._Experiment, "run_resample", run_resample)
        experiment = harness._Experiment(make_config(corpora, tmp_path / "out", b=4, workers=3))
        tasks = [(0, None, None), *experiment.tasks]

        def expire(signum, frame):
            raise TimeoutError("the parent waited for a child blocked on a full pipe")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            results = experiment.run_all()
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert results == [run_resample(experiment, task) for task in tasks]
        assert_no_child_left()

    def test_workers_need_fork(self, corpora, tmp_path, monkeypatch):
        monkeypatch.delattr(os, "fork")
        make_config(corpora, tmp_path / "out", workers=1)
        with pytest.raises(ConfigError, match="workers"):
            make_config(corpora, tmp_path / "out", workers=2)


class TestGcPause:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, corpora, tmp_path, enabled):
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            run_experiment(make_config(corpora, tmp_path / "out", b=2))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored_after_error(self, corpora, tmp_path, enabled):
        bare = tmp_path / "bare.iob2"
        bare.write_text("a\tDT\tO\n")
        was = gc.isenabled()
        try:
            (gc.enable if enabled else gc.disable)()
            with pytest.raises(ConfigError, match="has no base-NP instances"):
                run_experiment(make_config({**corpora, "b": str(bare)}, tmp_path / "out"))
            assert gc.isenabled() is enabled
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_leaves_no_cycles(self, corpora, tmp_path, workers):
        # the pause costs no memory only while a run makes no reference
        # cycles; the first imports of pickle and signal in a process leave
        # collectable cycles, which a pooled run's lazy imports would
        # otherwise count here, so they come first (this module imports signal)
        import pickle  # noqa: F401
        config = make_config(corpora, tmp_path / "out", b=3, workers=workers, systems=(
            parse_system("mbsl:c=1"), parse_system("mbsl:c=3"), parse_system("winnow")))
        gc.collect()
        run_experiment(config)
        assert gc.collect() == 0


class TestReplay:
    def test_replay_matches_run(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out", b=3)
        run_experiment(config)
        rows = replay_resample(config, 1)
        runs = {}
        for line in (tmp_path / "out" / "runs.tsv").read_text().splitlines()[2:]:
            system, test, rid, recall = line.split("\t")[:4]
            if rid == "1":
                runs[(system, test)] = recall
        assert len(rows) == 4
        for system, test, metrics in rows:
            assert f"{metrics.recall:.6f}" == runs[(system, test)]

    def test_replay_unknown_id(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out", b=2)
        with pytest.raises(ConfigError, match="outside"):
            replay_resample(config, 9)

    def test_digest_mismatch_detected(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out", b=2)
        run_experiment(config)
        plans = tmp_path / "out" / "plans.tsv"
        lines = plans.read_text().splitlines()
        parts = lines[2].split("\t")
        # a wrong digest of the right width: its last hex digit flipped
        parts[2] = parts[2][:-1] + f"{int(parts[2][-1], 16) ^ 1:x}"
        lines[2] = "\t".join(parts)
        plans.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match="digest mismatch"):
            replay_resample(config, 0)

    def test_plans_without_the_row_detected(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out", b=2)
        run_experiment(config)
        plans = tmp_path / "out" / "plans.tsv"
        lines = plans.read_text().splitlines()
        plans.write_text("\n".join(lines[:3]) + "\n")  # stamp, header, resample 0
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(str(plans))}: no row for resample 1$"):
            replay_resample(config, 1)
        replay_resample(config, 0)


    @pytest.mark.parametrize("field, value", [(0, "x"), (3, None)],
                             ids=["non-integer-id", "missing-field"])
    def test_malformed_plan_line_names_file_and_line(self, corpora, tmp_path,
                                                     field, value):
        # a non-integer resample id, or a line missing its plan column
        config = make_config(corpora, tmp_path / "out", b=2)
        run_experiment(config)
        plans = tmp_path / "out" / "plans.tsv"
        lines = plans.read_text().splitlines()
        parts = lines[3].split("\t")
        if value is None:
            del parts[field]
        else:
            parts[field] = value
        lines[3] = "\t".join(parts)
        plans.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(plans))}:4: expected 4 "):
            replay_resample(config, 0)

    def test_config_stamp_mismatch_detected(self, corpora, tmp_path):
        config = make_config(corpora, tmp_path / "out", b=2)
        run_experiment(config)
        other = config._replace(systems=(parse_system("winnow"),))
        with pytest.raises(ConfigError, match="config hash mismatch"):
            replay_resample(other, 0)
        # neither is part of the hash
        replay_resample(config._replace(workers=3), 0)
        replay_resample(config._replace(output_dir=f"{tmp_path / 'out'}/."), 0)


    def test_corpus_rewritten_in_place_detected(self, corpora, tmp_path):
        # same path, same sentence count, one POS tag changed throughout
        paths = {}
        for name, path in corpora.items():
            paths[name] = str(tmp_path / f"{name}.iob2")
            shutil.copyfile(path, paths[name])
        config = make_config(paths, tmp_path / "out", b=2)
        run_experiment(config)
        train = tmp_path / "train.iob2"
        train.write_text(train.read_text().replace("\tPRP\t", "\tNN\t"))
        with pytest.raises(ConfigError, match="config hash mismatch"):
            replay_resample(config, 0)


class TestGenAndStats:
    def test_gen_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.iob2", tmp_path / "b.iob2"
        gen_corpus_cmd("wsj-like", 30, 7, p1)
        gen_corpus_cmd("wsj-like", 30, 7, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert len(read_corpus(p1)) == 30

    def test_gen_unknown_grammar(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown grammar"):
            gen_corpus_cmd("nope", 5, 7, tmp_path / "x.iob2")

    def _write_sample(self, path, values):
        lines = ["# config_hash=0", "resample_id\trecall"]
        lines += [f"{i}\t{v:.6f}" for i, v in enumerate(values)]
        path.write_text("\n".join(lines) + "\n")

    def _write_samples(self, tmp_path, samples):
        """One sample file per values list, s0.tsv, s1.tsv, ...; their paths."""
        paths = [tmp_path / f"s{i}.tsv" for i in range(len(samples))]
        for path, values in zip(paths, samples):
            self._write_sample(path, values)
        return paths

    def test_stats_single_file(self, tmp_path):
        path = tmp_path / "s.tsv"
        self._write_sample(path, [0.2, 0.4, 0.6])
        out = stats_cmd([path])
        lines = out.splitlines()
        assert len(lines) == 1
        kind, label, n, mean, std = lines[0].split("\t")
        assert (kind, n, mean) == ("summary", "3", "0.400000")

    def test_stats_two_files(self, tmp_path):
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self._write_sample(pa, [0.1, 0.2, 0.3])
        self._write_sample(pb, [0.2, 0.4, 0.6])
        lines = stats_cmd([pa, pb]).splitlines()
        kinds = [line.split("\t")[0] for line in lines]
        assert kinds == ["summary", "summary", "pair"]
        assert lines[2].split("\t")[3] == "1.000000"  # rho

    def test_stats_three_files_adds_matrix(self, tmp_path):
        paths = self._write_samples(tmp_path, [[0.1, 0.2], [0.2, 0.1], [0.3, 0.5]])
        kinds = [line.split("\t")[0] for line in stats_cmd(paths).splitlines()]
        assert kinds == ["summary"] * 3 + ["pair"] * 3 + ["xcorr"] * 3

    def _xcorr(self, tmp_path, samples):
        """The cells of the xcorr rows stats prints for these samples."""
        paths = self._write_samples(tmp_path, samples)
        return [line.split("\t")[2:] for line in stats_cmd(paths).splitlines()
                if line.startswith("xcorr\t")]

    def test_xcorr_identical_vectors(self, tmp_path):
        values = [0.1, 0.5, 0.9]
        matrix = self._xcorr(tmp_path, [values, values, [0.3, 0.1, 0.2]])
        assert float(matrix[0][1]) == pytest.approx(1.0)
        assert matrix[0][0] == "1.000000"

    def test_xcorr_antithetic_vectors(self, tmp_path):
        values = [0.1, 0.5, 0.9]
        matrix = self._xcorr(tmp_path, [values, [1.0 - v for v in values], [0.3, 0.1, 0.2]])
        assert float(matrix[0][1]) == pytest.approx(-1.0)

    def test_xcorr_independent_vectors_near_zero(self, tmp_path):
        rng = PrngStream(31)
        matrix = self._xcorr(tmp_path, [[rng.next_float() for _ in range(200)]
                                        for _ in range(3)])
        for i in range(3):
            for j in range(3):
                assert matrix[i][j] == matrix[j][i]
                if i != j:
                    assert abs(float(matrix[i][j])) < 0.15

    @pytest.mark.parametrize("bad, message", [
        ("1 0.6", "expected 2 tab-separated fields"),
        ("1\tabc", "expected 2 tab-separated fields"),
        ("1\t0.6\t0.7", "expected 2 tab-separated fields"),
        ("one\t0.6", "expected 2 tab-separated fields"),
        ("1\t1.5", r"recall 1\.5 outside \[0, 1\]"),
        ("1\tnan", r"recall nan outside \[0, 1\]"),
        ("2\t0.6", "non-contiguous resample ids"),
    ], ids=["space-separated", "non-numeric", "extra-field", "non-integer-id",
            "above-one", "nan", "gap-in-ids"])
    def test_stats_bad_line_names_file_and_line(self, tmp_path, bad, message):
        path = tmp_path / "s.tsv"
        self._write_sample(path, [0.2, 0.4])
        lines = path.read_text().splitlines()
        lines[3] = bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}:4: {message}"):
            stats_cmd([path])

    def test_stats_empty_sample_file_names_file(self, tmp_path):
        path = tmp_path / "s.tsv"
        self._write_sample(path, [])
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: no samples$"):
            stats_cmd([path])

    def test_stats_one_value_files_print_summaries_only(self, tmp_path):
        # a B=1 run writes such files; pairs and correlations need 2 values
        paths = self._write_samples(tmp_path, [[0.2], [0.4], [0.6]])
        for n_files in (2, 3):
            lines = stats_cmd(paths[:n_files]).splitlines()
            assert len(lines) == n_files
            for line in lines:
                kind, _, n, _, std = line.split("\t")
                assert (kind, n, std) == ("summary", "1", "NA")

    def test_stats_length_mismatch(self, tmp_path):
        pa, pb = tmp_path / "a.tsv", tmp_path / "b.tsv"
        self._write_sample(pa, [0.1, 0.2])
        self._write_sample(pb, [0.1, 0.2, 0.3])
        with pytest.raises(ConfigError, match="disagree"):
            stats_cmd([pa, pb])


class TestCli:
    def run_python(self, *args):
        # the child imports the same npchunk as this test, installed or not
        src = str(Path(harness.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        return subprocess.run(
            [sys.executable, *args],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        )

    def run_cli(self, *args):
        return self.run_python("-m", "npchunk.cli", *args)

    def test_import_leaves_out_the_pool_library(self, corpora, tmp_path):
        # no run imports concurrent.futures or multiprocessing: a pooled run
        # forks its workers through os.fork
        pool = ("concurrent.futures", "multiprocessing")
        result = self.run_python(
            "-c", f"import sys, npchunk.cli; print({pool} & sys.modules.keys())")
        assert result.returncode == 0, result.stderr
        assert result.stdout == "set()\n"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"master_seed=2\ntrain={corpora['train']}\ntest.a={corpora['a']}\n"
            f"B=3\nsystems=mbsl:c=1;winnow\nworkers=2\noutput_dir={tmp_path / 'out'}\n"
        )
        result = self.run_python("-c", (
            "import sys; from npchunk import cli; "
            "code = cli.main(['run', '--config', sys.argv[1]]); "
            f"print(code, {pool} & sys.modules.keys())"
        ), str(cfg))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "0 set()"

    def test_run_leaves_out_hashlib(self, corpora, tmp_path):
        # the corpus and plan digests come from zlib; hashlib would load
        # OpenSSL, about 3 MiB more peak RSS per run. Nor does a run import
        # dataclasses, which brings inspect, ast, dis and tokenize with it
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"master_seed=2\ntrain={corpora['train']}\ntest.a={corpora['a']}\n"
            f"B=2\nsystems=mbsl:c=1;winnow\noutput_dir={tmp_path / 'out'}\n"
        )
        result = self.run_python("-c", (
            "import sys; from npchunk import cli; "
            "codes = [cli.main(['run', '--config', sys.argv[1]]), "
            "cli.main(['replay', '--config', sys.argv[1], '--resample-id', '1'])]; "
            "left_out = {'hashlib', '_hashlib', 'dataclasses', 'inspect'}; "
            "print(codes, sorted(left_out & set(sys.modules)))"
        ), str(cfg))
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[0, 0] []"

    def test_gen_and_run_round_trip(self, tmp_path):
        train = tmp_path / "train.iob2"
        test = tmp_path / "test.iob2"
        assert self.run_cli("gen", "atis-like", "40", "3", str(train)).returncode == 0
        assert self.run_cli("gen", "atis-like", "15", "4", str(test)).returncode == 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"master_seed=2\ntrain={train}\ntest.t={test}\n"
            "method=bootstrap\nB=2\nsystems=mbsl:c=1\n"
            f"output_dir={tmp_path / 'out'}\n"
        )
        result = self.run_cli("run", "--config", str(cfg))
        assert result.returncode == 0, result.stderr
        assert "config_hash=" in result.stdout
        assert (tmp_path / "out" / "summary.tsv").exists()
        replay = self.run_cli("replay", "--config", str(cfg), "--resample-id", "0")
        assert replay.returncode == 0, replay.stderr
        assert "recall=" in replay.stdout

    @pytest.mark.parametrize("b", [1, 2])
    def test_printed_lines_match_the_reports(self, corpora, tmp_path, capsys, b):
        # a B=1 run has no std: it prints std=NA, as summary.tsv holds NA
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"master_seed=2\ntrain={corpora['train']}\ntest.a={corpora['a']}\n"
            f"test.b={corpora['b']}\nB={b}\nsystems=mbsl:c=1;winnow\noutput_dir={out}\n"
        )
        assert cli.main(["run", "--config", str(cfg)]) == 0
        stamp, header, *rows = (out / "summary.tsv").read_text().splitlines()
        assert header == "system\ttest\tmethod\tn\tmean\tstd\te_full"
        expected = [stamp.removeprefix("# ")]
        for row in rows:
            system, test, _, n, mean, std, e_full = row.split("\t")
            expected.append(f"{system}\t{test}\tn={n}\tmean={mean}\tstd={std}\te_full={e_full}")
        expected.append(f"reports written to {out}")
        printed = capsys.readouterr().out.splitlines()
        assert printed == expected
        assert len(printed) == 6
        assert all(("\tstd=NA\t" in line) == (b == 1) for line in printed[1:-1])
        # replay prints each run's recall and precision as runs.tsv holds them
        assert cli.main(["replay", "--config", str(cfg), "--resample-id", "0"]) == 0
        _, _, *runs = (out / "runs.tsv").read_text().splitlines()
        runs = [row.split("\t") for row in runs]
        expected = sorted(f"{system}\t{test}\trecall={recall}\tprecision={precision}"
                          for system, test, rid, recall, precision, *_ in runs if rid == "0")
        assert sorted(capsys.readouterr().out.splitlines()) == expected
        assert len(expected) == 4

    def test_error_exit_code(self, tmp_path):
        result = self.run_cli("run", "--config", str(tmp_path / "missing.cfg"))
        assert result.returncode == 2
        assert "error:" in result.stderr

    def test_empty_output_dir_fails_and_writes_nothing(self, corpora, tmp_path, capsys,
                                                       monkeypatch):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"master_seed=2\ntrain={corpora['train']}\ntest.a={corpora['a']}\n"
                       "B=2\nsystems=mbsl:c=1\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["run", "--config", str(cfg), "output_dir="]) == 2
        assert capsys.readouterr() == ("", "error: override 'output_dir=': config key "
                                           "'output_dir' has an empty value\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]

    @pytest.mark.parametrize("args", [
        lambda cfg, d: ["run", "--config", d],
        lambda cfg, d: ["run", "--config", cfg, f"train={d}"],
        lambda cfg, d: ["stats", d],
    ], ids=["config", "train", "stats"])
    def test_directory_path_fails_like_missing_file(self, corpora, tmp_path, capsys, args):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"master_seed=2\ntrain={corpora['train']}\ntest.a={corpora['a']}\n"
            f"B=2\nsystems=mbsl:c=1\noutput_dir={tmp_path / 'out'}\n"
        )
        assert cli.main(args(str(cfg), str(tmp_path))) == 2
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
