"""The names that documentation and the benchmark import must exist.

A deletion that breaks the README's "Library" example or a benchmark probe
fails here instead of only when someone runs them.
"""

import ast
import importlib
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _npchunk_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every `from npchunk... import name` in source."""
    return [
        (node.module, alias.name)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "npchunk"
        for alias in node.names
    ]


def _readme_library_block() -> str:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _benchmark_imports() -> list[tuple[str, str]]:
    return [
        pair
        for path in sorted((ROOT / "perfbench").glob("*.py"))
        for pair in _npchunk_imports(path.read_text(encoding="utf-8"))
    ]


@pytest.mark.parametrize(
    "module, name",
    sorted(set(_npchunk_imports(_readme_library_block()) + _benchmark_imports())),
)
def test_documented_and_benchmarked_names_exist(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_readme_library_block_runs():
    exec(compile(_readme_library_block(), "README.md", "exec"), {})


def test_benchmark_imports_found():
    names = {name for _, name in _benchmark_imports()}
    assert {"build_plans", "load_config", "training_view", "mbsl_train",
            "winnow_train", "RecallSamples", "mbsl"} <= names


def _child_mbsl_caches() -> tuple[str, ...]:
    """The mbsl attribute names perfbench/child.py reads cache counts from."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    return next(
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and node.targets[0].id == "_MBSL_CACHES"
    )


@pytest.mark.parametrize("name", _child_mbsl_caches())
def test_benchmark_cache_counts_readable(name):
    # child.py drops mbsl.cache_hit_ratio, a declared metric, if any name is missing
    from npchunk import mbsl

    info = getattr(mbsl, name).cache_info()
    assert isinstance(info.hits, int) and isinstance(info.misses, int)


def test_benchmark_cache_divisor_counts_each_indexed_sentence():
    # perfbench/run.py divides mbsl.cache_hit_ratio's hits by hits + misses:
    # each sentence an MbslIndex reads must count one _sentence_profiles miss
    from npchunk import WSJ_LIKE, derive_stream, generate_corpus, mbsl

    corpus = generate_corpus(WSJ_LIKE, 30, derive_stream(1, "gen", 0))
    before = mbsl._sentence_profiles.cache_info().misses
    mbsl.MbslIndex(corpus, 6)
    assert mbsl._sentence_profiles.cache_info().misses - before == len(corpus)


def test_benchmark_model_reads():
    # perfbench/child.py counts mbsl.tiles and winnow.features through these
    # reads of the models it trains, and trains them through these calls
    from npchunk import WSJ_LIKE, derive_stream, generate_corpus, mbsl_train, winnow_train
    from npchunk.harness import parse_system

    corpus = generate_corpus(WSJ_LIKE, 30, derive_stream(1, "gen", 0))
    model = mbsl_train(corpus, parse_system("mbsl:c=3").build())
    assert isinstance(len(model.table), int) and len(model.table) > 0
    net = winnow_train(corpus, parse_system("winnow").build(), derive_stream(1, "train", 0))
    features = len(net.begin_unit.weights) + len(net.end_unit.weights)
    assert isinstance(features, int) and features > 0


# positional call shapes used by perfbench/child.py and perfbench/workloads.py
@pytest.mark.parametrize("module, name, n_args", [
    ("npchunk", "mbsl_train", 2),
    ("npchunk", "mbsl_predict", 2),
    ("npchunk", "winnow_train", 3),
    ("npchunk", "winnow_predict", 2),
    ("npchunk", "score_run", 2),
    ("npchunk", "summarize", 1),
    ("npchunk", "compare_paired", 2),
    ("npchunk", "derive_stream", 3),
    ("npchunk", "training_view", 3),
    ("npchunk", "read_corpus", 1),
    ("npchunk", "generate_corpus", 3),
    ("npchunk", "write_corpus", 2),
    ("npchunk.harness", "build_plans", 2),
    ("npchunk.harness", "load_config", 1),
])
def test_benchmark_call_shapes(module, name, n_args):
    func = getattr(importlib.import_module(module), name)
    inspect.signature(func).bind(*[None] * n_args)
