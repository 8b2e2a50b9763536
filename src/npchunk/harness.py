"""Experiment orchestration: resample scheduling, training, report emission.

An experiment trains every configured system on the same training sentence
ids of every resample (pairing by resample_id is thereby guaranteed), evaluates
each trained model on every test corpus, and aggregates recall
distributions. Output is a set of TSV files; given a fixed config (seed
included) they are byte-identical across runs and across worker counts.

The training corpus is indexed, its MBSL tile maps made and every test
corpus interned once per experiment, before any worker is forked; e_full's
training is one more task, and a pooled run's parent computes a share of the
tasks. A run makes no reference cycles, so run_experiment keeps the cyclic
garbage collector off while it runs.
"""

from __future__ import annotations

import gc
import itertools
import os
import zlib
from collections import defaultdict
from pathlib import Path
from typing import Iterable, NamedTuple, NoReturn, Sequence

from . import evalstats, mbsl, winnow
from .corpus import BUILTIN_GRAMMARS, Corpus, _Checked, generate_corpus, read_corpus, write_corpus
from .evalstats import PairedComparison, RecallSamples, RunMetrics
from .resample import (
    BootstrapPlan,
    CvPlan,
    derive_stream,
    fnv1a64,
    plan_bootstrap,
    plan_cv,
    training_ids,
)


class ConfigError(ValueError):
    pass


# system kind -> (learner config class, parameter aliases)
_KINDS = {
    "mbsl": (mbsl.MbslConfig, {"c": "context_size"}),
    "winnow": (
        winnow.WinnowConfig,
        {"alpha": "promotion", "beta": "demotion", "theta": "threshold"},
    ),
}
# parameter -> the alias that names it in generated labels
_SHORT = {name: alias for _, aliases in _KINDS.values() for alias, name in aliases.items()}


class SystemSpec(NamedTuple):
    """One configured learner: kind plus canonicalized parameter overrides."""

    label: str
    kind: str  # "mbsl" | "winnow"
    params: tuple[tuple[str, str], ...]

    def build(self):
        """The learner config. Parameters are the config class's fields,
        each value cast to its default's type; any other name is an error."""
        if self.kind not in _KINDS:
            raise ConfigError(f"unknown system kind {self.kind!r}")
        config_cls, aliases = _KINDS[self.kind]
        defaults = config_cls._field_defaults
        for name, _ in self.params:
            if name not in defaults:
                known = ", ".join([*aliases, *defaults, "label"])
                raise ConfigError(
                    f"unknown {self.kind} parameter {name!r} (known: {known})"
                )
        try:
            return config_cls(
                **{name: type(defaults[name])(value) for name, value in self.params}
            )
        except ValueError as exc:
            raise ConfigError(f"system {self.spec_string()!r}: {exc}") from exc

    def spec_string(self) -> str:
        if not self.params:
            return self.kind
        return self.kind + ":" + ",".join(f"{k}={v}" for k, v in self.params)


def parse_system(spec: str) -> SystemSpec:
    """Parse e.g. ``mbsl:c=1`` or ``winnow:alpha=1.5,epochs=2``.

    A parameter given twice is an error, also when once by its alias
    (``mbsl:c=1,context_size=3``).
    """
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip()
    if kind not in _KINDS:
        raise ConfigError(f"unknown system kind {kind!r} in {spec!r}")
    aliases = _KINDS[kind][1]
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = aliases.get(key.strip(), key.strip())
            value = value.strip()
            if not value:
                raise ConfigError(f"malformed system parameter {item!r}")
            if key in params:
                raise ConfigError(f"duplicate system parameter {key!r} in {spec!r}")
            params[key] = value
    label = params.pop("label", None)
    canonical = tuple(sorted(params.items()))
    if label is None:
        label = kind + "".join(f"-{_SHORT.get(k, k)}{v}" for k, v in canonical)
    spec_obj = SystemSpec(label, kind, canonical)
    spec_obj.build()  # validate eagerly
    return spec_obj


class _ExperimentConfig(NamedTuple):
    master_seed: int
    training_corpus: str
    test_corpora: tuple[tuple[str, str], ...]  # (label, path)
    method: str  # "bootstrap" | "cv"
    b: int = 0
    k: int = 0
    repetitions: int = 1
    systems: tuple[SystemSpec, ...] = ()
    output_dir: str = "out"
    workers: int = 1


class ExperimentConfig(_Checked, _ExperimentConfig):
    __slots__ = ()

    def _check(self):
        if self.method == "bootstrap":
            if self.b < 1:
                raise ConfigError("bootstrap needs B >= 1")
        elif self.method == "cv":
            if self.k < 2:
                raise ConfigError("cv needs k >= 2")
            if self.repetitions < 1:
                raise ConfigError("cv needs repetitions >= 1")
        else:
            raise ConfigError(f"unknown method {self.method!r}")
        if not self.test_corpora:
            raise ConfigError("at least one test corpus is required")
        if not self.systems:
            raise ConfigError("at least one system is required")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        if self.workers > 1 and not hasattr(os, "fork"):
            raise ConfigError("workers > 1 needs os.fork, which this platform lacks")
        labels = [s.label for s in self.systems]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate system labels: {labels}")
        # each (system, test) pair writes samples/<system>_<test>.tsv
        tests = [label for label, _ in self.test_corpora]
        for label in labels + tests:
            if set(label) & set("/\t\n"):
                raise ConfigError(f"label {label!r} contains '/', a tab or a newline")
        named: dict[str, tuple[str, str]] = {}
        for pair in itertools.product(labels, tests):
            name = "_".join(pair)
            if name in named:
                raise ConfigError(f"(system, test) pairs {named[name]} and {pair} "
                                  f"both write samples/{name}.tsv")
            named[name] = pair

    def method_string(self) -> str:
        if self.method == "bootstrap":
            return f"bootstrap-B{self.b}"
        return f"cv-k{self.k}x{self.repetitions}"

    def canonical_text(self) -> str:
        """The hashed settings. Each corpus stands by a digest of its bytes,
        so a copied corpus keeps the hash and an in-place rewrite changes it."""
        def content(path: str) -> str:
            # CRC-32 in C, over the raw bytes: `import npchunk.cli` has loaded
            # zlib already, and it hashes a 2.5 MB corpus in under a
            # millisecond. hashlib would load OpenSSL, about 3 MiB more peak
            # RSS per run (CPython 3.11, Linux x86-64).
            return f"{zlib.crc32(Path(path).read_bytes()):08x}"

        lines = [
            f"master_seed={self.master_seed}",
            f"method={self.method}",
            f"B={self.b}",
            f"k={self.k}",
            f"repetitions={self.repetitions}",
            f"train={content(self.training_corpus)}",
            f"systems={';'.join(s.spec_string() for s in self.systems)}",
        ]
        for label, path in self.test_corpora:
            lines.append(f"test.{label}={content(path)}")
        return "\n".join(sorted(lines)) + "\n"

    def config_hash(self) -> str:
        return f"{fnv1a64(self.canonical_text()):016x}"


_CONFIG_KEYS = (
    "master_seed", "train", "method", "B", "k", "repetitions", "systems",
    "output_dir", "workers",
)


def load_config(path: str | Path, overrides: Sequence[str] = ()) -> ExperimentConfig:
    """Flat key=value config file plus command-line overrides.

    Unknown keys, keys repeated within the file, empty values and values
    containing `#` are errors naming the line or override and the key; an
    override replaces the file's value.
    """
    entries: dict[str, str] = {}

    def absorb(key: str, value: str, where: str) -> None:
        if key not in _CONFIG_KEYS and not key.startswith("test."):
            known = ", ".join(_CONFIG_KEYS)
            raise ConfigError(
                f"{where}: unknown config key {key!r} (known: {known}, test.<label>)"
            )
        if key == "test.":
            raise ConfigError(f"{where}: test corpus label must be non-empty")
        if not value:
            raise ConfigError(f"{where}: config key {key!r} has an empty value")
        if "#" in value:
            raise ConfigError(f"{where}: config key {key!r}: '#' in value {value!r} "
                              "(a comment needs a line of its own)")
        # an override re-inserts its key, so an overridden test corpus moves last
        entries.pop(key, None)
        entries[key] = value

    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{line_no}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                raise ConfigError(f"{path}:{line_no}: duplicate config key {key!r}")
            absorb(key, value.strip(), f"{path}:{line_no}")
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, _, value = item.partition("=")
        absorb(key.strip(), value.strip(), f"override {item!r}")

    def integer(key: str, default: str | None = None) -> int:
        value = entries[key] if default is None else entries.get(key, default)
        try:
            return int(value)
        except ValueError:
            raise ConfigError(
                f"config key {key!r}: expected an integer, got {value!r}"
            ) from None

    try:
        systems = tuple(
            parse_system(s) for s in entries.get("systems", "").split(";") if s.strip()
        )
        return ExperimentConfig(
            master_seed=integer("master_seed"),
            training_corpus=entries["train"],
            test_corpora=tuple(
                (key[len("test."):], value)
                for key, value in entries.items() if key.startswith("test.")
            ),
            method=entries.get("method", "bootstrap"),
            b=integer("B", "0"),
            k=integer("k", "0"),
            repetitions=integer("repetitions", "1"),
            systems=systems,
            output_dir=entries.get("output_dir", "out"),
            workers=integer("workers", "1"),
        )
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc


def build_plans(config: ExperimentConfig, train: Corpus
                ) -> list[tuple[int, BootstrapPlan | CvPlan, int | None]]:
    """(resample_id, plan, held_out_fold) tasks, in resample_id order."""
    tasks: list[tuple[int, BootstrapPlan | CvPlan, int | None]] = []
    if config.method == "bootstrap":
        n0 = train.instance_count()
        for b in range(config.b):
            rng = derive_stream(config.master_seed, "bootstrap", b)
            tasks.append((b, plan_bootstrap(train, n0, rng, resample_id=b), None))
    else:
        for rep in range(config.repetitions):
            rng = derive_stream(config.master_seed, "cv", rep)
            plan = plan_cv(train, config.k, rng)
            for fold in range(config.k):
                tasks.append((rep * config.k + fold, plan, fold))
    return tasks


class ExperimentReport(NamedTuple):
    config_hash: str
    samples: dict[tuple[str, str], RecallSamples]
    summaries: dict[tuple[str, str], evalstats.DistributionSummary]
    e_full: dict[tuple[str, str], float]
    pairs: dict[tuple[str, str, str], PairedComparison]
    xcorr: dict[tuple[str, str, str], float | None]


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


class _Experiment:
    """One config's corpora, resolved systems, training indexes and MBSL
    tile maps, interned test corpora, resampling tasks and plan digests.

    `run` and `replay` each build one, and no task adds to it. Every
    resample, and the full-corpus training behind e_full, goes through
    run_resample.
    """

    def __init__(self, config: ExperimentConfig):
        self.config = config

        def load(key: str, path: str) -> Corpus:
            corpus = read_corpus(path)
            if not corpus.instance_count():
                raise ConfigError(f"config key {key!r}: {path} has no base-NP instances")
            return corpus

        self.train = load("train", config.training_corpus)
        self.tests = tuple(
            (label, load(f"test.{label}", path)) for label, path in config.test_corpora
        )
        self.tasks = build_plans(config, self.train)
        self.systems = tuple((spec, spec.build()) for spec in config.systems)
        # interned once, before any worker starts, for every training: one
        # MBSL index at the longest tile length, with every MBSL system's tile map
        mbsl_cfgs = [cfg for spec, cfg in self.systems if spec.kind == "mbsl"]
        self.mbsl_index = (mbsl.MbslIndex(self.train, max(c.max_tile_len for c in mbsl_cfgs))
                           if mbsl_cfgs else None)
        for cfg in mbsl_cfgs:
            self.mbsl_index.tile_map(cfg.context_size, cfg.max_tile_len)
        self.winnow_index = (
            winnow.WinnowIndex(self.train)
            if any(spec.kind == "winnow" for spec in config.systems) else None
        )
        # every test corpus interned once, for every trained model, per learner
        self.interned: dict[str, tuple] = {}
        if self.mbsl_index is not None:
            self.interned["mbsl"] = tuple(
                [self.mbsl_index.intern(s.pos_tags) for s in corpus.sentences]
                for _, corpus in self.tests
            )
        if self.winnow_index is not None:
            self.interned["winnow"] = tuple(
                winnow.intern_windows(corpus.sentences) for _, corpus in self.tests
            )
        self.plan_digests = tuple(
            f"{zlib.crc32(line.encode()):08x}"
            for line in (plan.to_line() + (f"/{held}" if held is not None else "")
                         for _, plan, held in self.tasks)
        )

    def run_resample(self, task) -> dict[tuple[str, str], RunMetrics]:
        """Train every system on a task's training ids; score it on every test corpus.

        A task is (resample_id, plan, held_out_fold). Plan None stands for
        the full training corpus, whose Winnow shuffles come from the
        "train-full" streams rather than the "train" ones.
        """
        resample_id, plan, held_out = task
        if plan is None:
            ids, purpose = range(len(self.train)), "train-full"
        else:
            ids, purpose = training_ids(plan, held_out), "train"
        # one profile-count vector, shared by every MBSL system
        counts = self.mbsl_index.counts(ids) if self.mbsl_index else None
        results = {}
        for spec, cfg in self.systems:
            if spec.kind == "mbsl":
                model = mbsl.mbsl_train_counts(self.mbsl_index, counts, cfg)
            else:
                rng = derive_stream(
                    self.config.master_seed, f"{purpose}:{spec.label}", resample_id
                )
                model = winnow.winnow_train_ids(self.winnow_index, ids, cfg, rng)
            for (label, corpus), interned in zip(self.tests, self.interned[spec.kind]):
                if spec.kind == "mbsl":
                    predictions = [mbsl.mbsl_predict_interned(model, s) for s in interned]
                else:
                    predictions = winnow.winnow_predict_interned(model, interned)
                results[(spec.label, label)] = evalstats.score_run(corpus, predictions)
        return results

    def run_all(self) -> list[dict[tuple[str, str], RunMetrics]]:
        """run_resample for the full-corpus task (0, None, None), then for every
        task, results in that order. With w = min(workers, tasks) above 1, the
        parent forks w - 1 children: child i runs tasks[i::w] and pipes back
        its results, and the parent runs tasks[0::w], the full task among them.
        A child's exception is raised here; on any error each child left is killed."""
        tasks = [(0, None, None), *self.tasks]
        if self.config.workers == 1:
            return [self.run_resample(task) for task in tasks]
        import pickle, signal  # here, so that only a pooled run imports them

        w = min(self.config.workers, len(tasks))
        results, children = [None] * len(tasks), []  # children: (pid, read end), not reaped
        try:
            for i in range(1, w):
                read_end, write_end = os.pipe()
                if (pid := os.fork()) == 0:
                    _serve(self, tasks[i::w], write_end)  # never returns
                os.close(write_end)  # so EOF comes at the child's exit: no later child has it
                children.append((pid, open(read_end, "rb")))
            results[0::w] = [self.run_resample(task) for task in tasks[0::w]]
            for i in range(1, w):
                pid, pipe = children[0]
                data = pipe.read()  # to EOF before the wait: a child blocks on a full pipe
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                pipe.close()
                del children[0]
                if code < 0:
                    raise RuntimeError(f"worker {pid} was killed by {signal.Signals(-code).name}")
                share = pickle.loads(data)  # its results, or the exception it exited 1 with
                if code:
                    raise share
                results[i::w] = share
            return results
        finally:
            for pid, pipe in children:
                pipe.close()
                os.kill(pid, signal.SIGKILL)  # not reaped, so at least a zombie
                os.waitpid(pid, 0)


def _serve(experiment: _Experiment, tasks, write_end: int) -> NoReturn:
    """A forked child: pickle its tasks' results, or the exception one raised
    (a RuntimeError with its traceback if that will not pickle), into write_end;
    leave by os._exit, so no finally block, atexit hook or buffer runs twice."""
    import pickle
    code = 1
    try:
        try:
            payload, code = [experiment.run_resample(task) for task in tasks], 0
        except BaseException as exc:
            payload = exc
            try:
                pickle.loads(pickle.dumps(exc))
            except Exception:
                import traceback
                payload = RuntimeError("".join(traceback.format_exception(exc)))
        with open(write_end, "wb") as pipe:
            pickle.dump(payload, pipe)
    finally:
        os._exit(code)


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Run config's experiment and write its report.

    The cyclic garbage collector is off for the run and restored afterwards,
    as timeit does: a run makes no reference cycles, so the collector's
    passes would only walk the heap the run builds.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _run_experiment(config)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_experiment(config: ExperimentConfig) -> ExperimentReport:
    experiment = _Experiment(config)
    full, *resamples = experiment.run_all()
    e_full = {key: metrics.recall for key, metrics in full.items()}
    run_metrics: dict[tuple[str, str], list[RunMetrics]] = defaultdict(list)
    for results in resamples:
        for key, metrics in results.items():
            run_metrics[key].append(metrics)

    test_labels = [label for label, _ in config.test_corpora]
    samples: dict[tuple[str, str], RecallSamples] = {}
    summaries = {}
    for spec in config.systems:
        for test_label in test_labels:
            key = (spec.label, test_label)
            values = tuple(m.recall for m in run_metrics[key])
            samples[key] = RecallSamples(f"{spec.label}/{test_label}", values)
            summaries[key] = evalstats.summarize(samples[key])

    # paired system comparisons per test corpus, and cross-dataset
    # correlations per system; both need at least two resamples
    pairs: dict[tuple[str, str, str], PairedComparison] = {}
    xcorr: dict[tuple[str, str, str], float | None] = {}
    if len(experiment.tasks) >= 2:
        for spec_a, spec_b in itertools.combinations(config.systems, 2):
            for test_label in test_labels:
                pairs[(spec_a.label, spec_b.label, test_label)] = evalstats.compare_paired(
                    samples[(spec_a.label, test_label)], samples[(spec_b.label, test_label)])
        for spec in config.systems:
            for label_a, label_b in itertools.combinations(test_labels, 2):
                xcorr[(spec.label, label_a, label_b)] = evalstats.compare_paired(
                    samples[(spec.label, label_a)], samples[(spec.label, label_b)]).rho

    report = ExperimentReport(config.config_hash(), samples, summaries, e_full, pairs, xcorr)
    _write_report(experiment, report, run_metrics)
    return report


def _write_report(experiment: _Experiment, report: ExperimentReport, run_metrics) -> None:
    config = experiment.config
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "samples").mkdir(exist_ok=True)
    stamp = f"# config_hash={report.config_hash}\n"

    def write(path: Path, header: str, rows: Iterable[Iterable]) -> None:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(stamp)
            handle.write(header + "\n")
            for row in rows:
                handle.write("\t".join(_fmt(v) for v in row) + "\n")

    method = config.method_string()
    write(
        out_dir / "summary.tsv",
        "system\ttest\tmethod\tn\tmean\tstd\te_full",
        (
            (system, test, method, summary.n, summary.mean, summary.std,
             report.e_full[(system, test)])
            for (system, test), summary in sorted(report.summaries.items())
        ),
    )
    write(
        out_dir / "pairs.tsv",
        "system_a\tsystem_b\ttest\trho\tp_a_gt_b\tp_tie\tsigma_diff",
        (
            (a, b, test, c.rho, c.p_a_gt_b, c.p_tie, c.sigma_diff)
            for (a, b, test), c in sorted(report.pairs.items())
        ),
    )
    write(
        out_dir / "xcorr.tsv",
        "system\ttest_a\ttest_b\trho",
        (
            (system, ta, tb, rho)
            for (system, ta, tb), rho in sorted(report.xcorr.items())
        ),
    )
    write(
        out_dir / "plans.tsv",
        "resample_id\theld_out\tdigest\tplan",
        (
            (rid, held, digest, plan.to_line().replace("\t", " "))
            for (rid, plan, held), digest in zip(experiment.tasks, experiment.plan_digests)
        ),
    )
    write(
        out_dir / "runs.tsv",
        "system\ttest\tresample_id\trecall\tprecision\tn_gold\tn_predicted\tn_correct",
        (
            (system, test, rid, *m)  # recall, precision and the counts
            for (system, test), metrics in sorted(run_metrics.items())
            for rid, m in enumerate(metrics)
        ),
    )
    for (system, test), sample in sorted(report.samples.items()):
        write(
            out_dir / "samples" / f"{system}_{test}.tsv",
            "resample_id\trecall",
            ((rid, value) for rid, value in enumerate(sample.values)),
        )


def replay_resample(config: ExperimentConfig, resample_id: int) -> list[tuple[str, str, RunMetrics]]:
    """Re-run one resample from its deterministic plan; returns run metrics.

    When the experiment's plans.tsv exists, its config-hash stamp and the
    recorded plan digest are checked against this config's; a plans.tsv
    without a row for resample_id raises ConfigError.
    """
    experiment = _Experiment(config)
    if not 0 <= resample_id < len(experiment.tasks):
        raise ConfigError(f"resample_id {resample_id} outside this experiment")
    digest = experiment.plan_digests[resample_id]
    plans_path = Path(config.output_dir) / "plans.tsv"
    if plans_path.exists():
        lines = plans_path.read_text(encoding="utf-8").splitlines()
        stamp = f"# config_hash={config.config_hash()}"
        if lines[:1] != [stamp]:
            recorded = lines[0] if lines else "no stamp"
            raise ConfigError(
                f"config hash mismatch: {plans_path} has {recorded!r}, "
                f"this config gives {stamp!r}"
            )
        found = False
        for line_no, line in enumerate(lines, start=1):
            if line.startswith("#") or line.startswith("resample_id"):
                continue
            rid, _, recorded, _ = _row(f"{plans_path}:{line_no}", line, (int, str, str, str))
            if rid == resample_id:
                found = True
                if recorded != digest:
                    raise ConfigError(
                        f"plan digest mismatch for resample {resample_id}: "
                        f"{digest} vs recorded {recorded}"
                    )
        if not found:
            raise ConfigError(f"{plans_path}: no row for resample {resample_id}")
    results = experiment.run_resample(experiment.tasks[resample_id])
    return [
        (system, test, metrics)
        for (system, test), metrics in sorted(results.items())
    ]


def gen_corpus_cmd(grammar_name: str, n_sentences: int, seed: int,
                   out_path: str | Path) -> Corpus:
    """Deterministically generate and write a built-in genre corpus."""
    try:
        grammar = BUILTIN_GRAMMARS[grammar_name]
    except KeyError:
        known = ", ".join(sorted(BUILTIN_GRAMMARS))
        raise ConfigError(f"unknown grammar {grammar_name!r} (known: {known})")
    rng = derive_stream(seed, f"gen:{grammar_name}", 0)
    corpus = generate_corpus(grammar, n_sentences, rng)
    write_corpus(corpus, out_path)
    return corpus


def _row(where: str, line: str, kinds: tuple) -> list:
    """The tab-separated fields of a report line, each cast by its kind; a
    wrong field count or a field that does not cast raises ConfigError."""
    fields = line.split("\t")
    if len(fields) == len(kinds):
        try:
            return [kind(field) for kind, field in zip(kinds, fields)]
        except ValueError:
            pass
    names = ", ".join(kind.__name__ for kind in kinds)
    raise ConfigError(f"{where}: expected {len(kinds)} tab-separated fields ({names}), "
                      f"got {line!r}")


def read_sample_file(path: str | Path) -> RecallSamples:
    """A resample_id<TAB>recall file; ids run 0, 1, ... and recalls lie in
    [0, 1]. A bad line raises ConfigError naming the file and the line, and
    a file without samples one naming the file."""
    values = []
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    for line_no, line in enumerate(lines, start=1):
        if line.startswith("#") or line.startswith("resample_id"):
            continue
        where = f"{path}:{line_no}"
        rid, value = _row(where, line, (int, float))
        if rid != len(values):
            raise ConfigError(f"{where}: non-contiguous resample ids: "
                              f"{rid} where {len(values)} was expected")
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{where}: recall {value} outside [0, 1]")
        values.append(value)
    if not values:
        raise ConfigError(f"{path}: no samples")
    return RecallSamples(Path(path).stem, tuple(values))


def stats_cmd(paths: Sequence[str | Path]) -> str:
    """Summary/comparison/correlation TSV for previously saved sample files.

    Comparisons and correlations need at least two resamples, as in `run`;
    with one, only the summaries are printed."""
    samples = [read_sample_file(p) for p in paths]
    lengths = {len(s.values) for s in samples}
    if len(samples) > 1 and len(lengths) != 1:
        raise ConfigError(f"sample files disagree on length: {sorted(lengths)}")
    rows = []
    for sample in samples:
        summary = evalstats.summarize(sample)
        rows.append(("summary", sample.label, summary.n, summary.mean, summary.std))
    compared = [s for s in samples if len(s.values) >= 2]  # all or none
    matrix = [[1.0] * len(compared) for _ in compared]  # xcorr: each pair's rho off the diagonal
    for i, sample_a in enumerate(compared):
        for j in range(i + 1, len(compared)):
            c = evalstats.compare_paired(sample_a, compared[j])
            matrix[i][j] = matrix[j][i] = c.rho
            rows.append(("pair", sample_a.label, compared[j].label,
                         c.rho, c.p_a_gt_b, c.p_tie, c.sigma_diff))
    if len(compared) >= 3:
        for sample, row in zip(compared, matrix):
            rows.append(("xcorr", sample.label, *row))
    return "\n".join("\t".join(_fmt(v) for v in row) for row in rows) + "\n"
