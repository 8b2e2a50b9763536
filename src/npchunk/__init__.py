"""Resampled evaluation of base-NP chunkers.

Train a memory-based tiler and a Winnow begin/end classifier on bootstrap or
cross-validation resamples of a training corpus, collect recall
distributions, and compute the comparison statistics (mean, std, paired
correlation, P(A>B)) needed to compare systems, probe train/test adequacy,
and measure dataset similarity.
"""

from .corpus import (
    ATIS_LIKE,
    BUILTIN_GRAMMARS,
    ChunkSpan,
    Corpus,
    CorpusFormatError,
    GenreGrammar,
    Sentence,
    WSJ_LIKE,
    generate_corpus,
    read_corpus,
    write_corpus,
)
from .evalstats import (
    DistributionSummary,
    PairedComparison,
    RecallSamples,
    RunMetrics,
    compare_paired,
    score_run,
    summarize,
)
from .mbsl import MbslConfig, MbslModel, Tile, mbsl_predict, mbsl_train
from .resample import (
    BootstrapPlan,
    CvPlan,
    PlanningError,
    PrngStream,
    derive_stream,
    fnv1a64,
    plan_bootstrap,
    plan_cv,
    training_ids,
    training_view,
)
from .winnow import (
    WinnowConfig,
    WinnowNetwork,
    WinnowUnit,
    winnow_predict,
    winnow_train,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
