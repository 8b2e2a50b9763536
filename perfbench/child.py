"""Probes that run in a fresh interpreter, in a workload's job directory.

    python3 child.py setup job.cfg            # prints set-up seconds
    python3 child.py trace job.cfg trace.json # traced run, spans to trace.json

`setup` times `import npchunk`, `load_config`, `read_corpus` on every input
and `build_plans`, as one `npchunk run` does before its first resample.

`trace` drives the configured experiment through the package's public
functions in `run_experiment`'s order: read and plan; per resample the
training view, training, prediction over each test corpus and scoring;
full-corpus training for `e_full`; then `summarize` and `compare_paired`.
Resamples go through a process pool when the config asks for workers, so
each worker starts from its own cold caches as in the real run. A span
(name, start, end, parent, resample) is recorded around every call into a
layer; spans are kept in memory and written out when the run ends, together
with the per-run metrics the benchmark compares with the job's `runs.tsv`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from contextlib import contextmanager

_t0 = time.perf_counter()

from npchunk import (  # noqa: E402
    compare_paired,
    derive_stream,
    mbsl,
    mbsl_predict,
    mbsl_train,
    read_corpus,
    score_run,
    summarize,
    training_view,
    winnow_predict,
    winnow_train,
)
from npchunk.evalstats import RecallSamples  # noqa: E402
from npchunk.harness import build_plans, load_config  # noqa: E402

# Per-sentence caches whose hit ratio explains cold versus warm MBSL training.
_MBSL_CACHES = ("_sentence_tiles", "_sentence_profiles")


def _cache_counts() -> tuple[int, int] | None:
    """(hits, misses) summed over the MBSL per-sentence caches, if present."""
    hits = misses = 0
    for name in _MBSL_CACHES:
        info = getattr(getattr(mbsl, name, None), "cache_info", None)
        if info is None:
            return None
        stats = info()
        hits += stats.hits
        misses += stats.misses
    return hits, misses


class Tracer:
    def __init__(self, resample):
        self.resample = resample
        self.spans: list[dict] = []
        self.counters: dict[str, list[float]] = {}
        self._stack: list[str] = []

    @contextmanager
    def span(self, name: str):
        span_id = f"{os.getpid()}:{len(self.spans)}"
        record = {"id": span_id, "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "resample": self.resample}
        self.spans.append(record)
        self._stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters.setdefault(name, []).append(value)


# Per-process experiment state, installed by the pool initializer as the
# harness does, so that each worker receives the corpora once.
_CTX: dict = {}


def _init(train, tests, systems, master_seed) -> None:
    _CTX.update(train=train, tests=tests, systems=systems, seed=master_seed)


def _train_and_evaluate(tracer: Tracer, view, purpose: str, stream_index: int) -> dict:
    results = {}
    for spec in _CTX["systems"]:
        cfg = spec.build()
        if spec.kind == "mbsl":
            with tracer.span("mbsl.train"):
                model = mbsl_train(view, cfg)
            tracer.count("mbsl.tiles", len(model.table))
            predict = mbsl_predict
        else:
            rng = derive_stream(_CTX["seed"], f"{purpose}:{spec.label}", stream_index)
            with tracer.span("winnow.train"):
                model = winnow_train(view, cfg, rng)
            tracer.count("winnow.features",
                         len(model.begin_unit.weights) + len(model.end_unit.weights))
            positions = sum(len(s) for s in view.sentences)
            tracer.count("winnow.updates", positions * cfg.epochs * 2)
            predict = winnow_predict
        for label, corpus in _CTX["tests"]:
            with tracer.span(f"{spec.kind}.predict"):
                predictions = [predict(model, s) for s in corpus.sentences]
            tracer.count(f"{spec.kind}.predicted_sentences", len(corpus))
            with tracer.span("evalstats.score"):
                results[(spec.label, label)] = score_run(corpus, predictions)
    return results


def _with_cache_delta(tracer: Tracer, work):
    before = _cache_counts()
    out = work()
    after = _cache_counts()
    if before is not None and after is not None:
        tracer.count("mbsl.cache_hits", after[0] - before[0])
        tracer.count("mbsl.cache_misses", after[1] - before[1])
    return out


def _run_resample(task):
    resample_id, plan, held_out = task
    tracer = Tracer(resample_id)

    def work():
        with tracer.span("harness.resample"):
            with tracer.span("resample.view"):
                view = training_view(_CTX["train"], plan, held_out)
            tracer.count("resample.view_unique_frac",
                         len({id(s) for s in view.sentences}) / len(view))
            return _train_and_evaluate(tracer, view, "train", resample_id)

    results = _with_cache_delta(tracer, work)
    return resample_id, results, tracer.spans, tracer.counters


def trace(cfg_path: str, out_path: str) -> None:
    import concurrent.futures

    tracer = Tracer("setup")
    with tracer.span("harness.setup"):
        config = load_config(cfg_path)
        with tracer.span("corpus.read"):
            train = read_corpus(config.training_corpus)
        tests = []
        for label, path in config.test_corpora:
            with tracer.span("corpus.read"):
                tests.append((label, read_corpus(path)))
        tests = tuple(tests)
        with tracer.span("resample.plan"):
            tasks = build_plans(config, train)
    tracer.count("corpus.tokens_read",
                 sum(len(s) for c in (train, *(c for _, c in tests)) for s in c.sentences))

    _init(train, tests, config.systems, config.master_seed)
    if config.workers == 1 or len(tasks) <= 1:
        raw = [_run_resample(task) for task in tasks]
    else:
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=config.workers, initializer=_init,
            initargs=(train, tests, config.systems, config.master_seed),
        ) as pool:
            raw = list(pool.map(_run_resample, tasks, chunksize=1))
    raw.sort(key=lambda item: item[0])

    spans = list(tracer.spans)
    counters = tracer.counters
    runs: dict[tuple[str, str], list] = {}
    for _, results, task_spans, task_counters in raw:
        spans.extend(task_spans)
        for name, values in task_counters.items():
            counters.setdefault(name, []).extend(values)
        for key, metrics in results.items():
            runs.setdefault(key, []).append(metrics)

    full = Tracer("full")
    with full.span("harness.full"):
        e_full = _with_cache_delta(full, lambda: _train_and_evaluate(full, train, "train-full", 0))

    stats = Tracer("stats")
    with stats.span("harness.stats"):
        samples = {}
        for spec in config.systems:
            for label, _ in tests:
                key = (spec.label, label)
                samples[key] = RecallSamples(f"{spec.label}/{label}",
                                             tuple(m.recall for m in runs[key]))
                with stats.span("evalstats.summarize"):
                    summarize(samples[key])
        if len(tasks) >= 2:
            systems = config.systems
            for i, spec_a in enumerate(systems):
                for spec_b in systems[i + 1:]:
                    for label, _ in tests:
                        with stats.span("evalstats.compare"):
                            compare_paired(samples[(spec_a.label, label)],
                                           samples[(spec_b.label, label)])
            for spec in systems:
                for i, (label_a, _) in enumerate(tests):
                    for label_b, _ in tests[i + 1:]:
                        with stats.span("evalstats.compare"):
                            compare_paired(samples[(spec.label, label_a)],
                                           samples[(spec.label, label_b)])

    for extra in (full, stats):
        spans.extend(extra.spans)
        for name, values in extra.counters.items():
            counters.setdefault(name, []).extend(values)

    out = {
        "spans": spans,
        "counters": counters,
        "runs": [
            [system, test, rid, m.recall, m.precision, m.n_gold, m.n_predicted, m.n_correct]
            for (system, test), metrics in sorted(runs.items())
            for rid, m in enumerate(metrics)
        ],
        "e_full": [[system, test, m.recall] for (system, test), m in sorted(e_full.items())],
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)


def setup(cfg_path: str) -> float:
    config = load_config(cfg_path)
    train = read_corpus(config.training_corpus)
    for _, path in config.test_corpora:
        read_corpus(path)
    build_plans(config, train)
    return time.perf_counter() - _t0


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        print(repr(setup(sys.argv[2])))
    else:
        trace(sys.argv[2], sys.argv[3])
