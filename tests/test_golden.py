"""Frozen output digests for one small fixed experiment.

The digests were recorded from a run of this exact config. A refactor that
changes any byte of the reports fails here, even when reruns still agree
with each other. The `# config_hash=` stamp lines are left out of the digests
and checked on their own against `STAMP`: the hash covers a CRC-32 of each
corpus file's bytes, not their tmp_path locations, so it is fixed too.
plans.tsv's digest column holds the CRC-32 of each plan line, so its digest
here pins those too.
"""

import hashlib

from npchunk.corpus import ATIS_LIKE, WSJ_LIKE, generate_corpus, write_corpus
from npchunk.harness import load_config, run_experiment
from npchunk.resample import derive_stream

STAMP = b"# config_hash=0b8023c23eda1505\n"

GOLDEN = {
    "pairs.tsv": "e02425a774e414d656a4f95eed99d87bb216d47ad93ad90b9d7a4353272d3c0e",
    "plans.tsv": "61dc3fa8fc730958ce32e5259fc3c96d49ff720da0c8d535e3d8910406dd4d1a",
    "runs.tsv": "328eefaa7da4b423c6b7af661e08888ca4fb3b831df363c77a98c1a9dbaab156",
    "samples/mbsl-c1_atis1.tsv": "a0b87e0b30dec6da2cbfa379a28f4abdc36f55341483c1d824844d80dd0d3d63",
    "samples/mbsl-c1_atis2.tsv": "6303f40e2fb83e88cdf901eaed4afcd43c9ff696726a1d6cfa5e8dfaf16cb734",
    "samples/mbsl-c1_wsj1.tsv": "32828fa5a1240532e05e0afaa22c49bd9811a69a24f6e68fe6744a73ad8a5e21",
    "samples/mbsl-c1_wsj2.tsv": "717e22d2cf366d3044bca1a7eafcb23a1cddd848e005dc12ae35e4e347ba1652",
    "samples/mbsl-c3_atis1.tsv": "34e81be494c6455fe48e2b3cb21b8a353ebb40f8de9d88fcd921e4d4957826ea",
    "samples/mbsl-c3_atis2.tsv": "e85154a8ae4490310f9f9b7c27c555bc6a1328def3d2442c823c8c1ee22fc01b",
    "samples/mbsl-c3_wsj1.tsv": "32828fa5a1240532e05e0afaa22c49bd9811a69a24f6e68fe6744a73ad8a5e21",
    "samples/mbsl-c3_wsj2.tsv": "717e22d2cf366d3044bca1a7eafcb23a1cddd848e005dc12ae35e4e347ba1652",
    "samples/winnow_atis1.tsv": "f625c26400d62b2c758328e56e805b2e00a47a8c9edc1841a5de02c0bf24640b",
    "samples/winnow_atis2.tsv": "901f553577ea8c0a184e5f953a934531f94e412903f05b83c4b7bd0e9ab516f9",
    "samples/winnow_wsj1.tsv": "a13df8990bf0aa5cbe3097c9140a9a78d2e0008bd46792e85ebda02ca1bbdc6a",
    "samples/winnow_wsj2.tsv": "70b2272f9bdcf060f1554b67a6f771a2c14e700de3c26ef152b3dc4d35745ab6",
    "summary.tsv": "93327aef018fb8d4717e1d8377380bc3aedc8ae660a336822bb64cdf7c7ffd47",
    "xcorr.tsv": "85db1e15be60710da3b235f7c25fe578ff5b75be8a507fadf4abea8570c9d747",
}


def _digest(path):
    lines = path.read_bytes().splitlines(keepends=True)
    body = b"".join(line for line in lines if not line.startswith(b"# config_hash="))
    return hashlib.sha256(body).hexdigest()


def test_fixed_config_outputs_match_recorded_digests(tmp_path):
    corpora = {
        "train": generate_corpus(WSJ_LIKE, 80, derive_stream(31, "golden", 0)),
        "wsj1": generate_corpus(WSJ_LIKE, 10, derive_stream(31, "golden", 1)),
        "wsj2": generate_corpus(WSJ_LIKE, 10, derive_stream(31, "golden", 2)),
        "atis1": generate_corpus(ATIS_LIKE, 10, derive_stream(31, "golden", 3)),
        "atis2": generate_corpus(ATIS_LIKE, 10, derive_stream(31, "golden", 4)),
    }
    lines = ["master_seed=27", "method=bootstrap", "B=3", "workers=2",
             "systems=mbsl:c=1;mbsl:c=3;winnow", f"output_dir={tmp_path / 'out'}"]
    for name, corpus in corpora.items():
        path = tmp_path / f"{name}.iob2"
        write_corpus(corpus, path)
        lines.append(f"train={path}" if name == "train" else f"test.{name}={path}")
    cfg = tmp_path / "golden.cfg"
    cfg.write_text("\n".join(lines) + "\n")

    run_experiment(load_config(cfg))
    out = tmp_path / "out"
    got = {
        str(path.relative_to(out)): _digest(path)
        for path in sorted(out.rglob("*.tsv"))
    }
    assert got == GOLDEN
    for path in out.rglob("*.tsv"):
        stamps = [line for line in path.read_bytes().splitlines(keepends=True)
                  if line.startswith(b"# config_hash=")]
        assert stamps == [STAMP], path
