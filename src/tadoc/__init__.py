"""Text analytics on grammar-compressed corpora, without decompression."""

from .corpus import (
    CorpusError,
    Dictionary,
    EmptyCorpusError,
    EncodedCorpus,
    FileEntry,
    MalformedStreamError,
    decode_stream,
    encode_corpus,
    tokenize,
)
from .sequitur import Grammar, GrammarError, expand, grammar_stats, infer_grammar
from .container import (
    BadMagicError,
    CompressionReport,
    ContainerError,
    ContainerHeader,
    DeflateError,
    FeatureMismatchError,
    TruncatedContainerError,
    compression_report,
    read_container,
    read_header,
    write_container,
)
from .dag import Dag, DatasetFeatures, coarsen, extract_features, load_merge_graph
from .scheduler import (
    PartitionPlan,
    plan_partitions,
    run_parallel,
    select_variant,
)

__version__ = "0.1.0"

__all__ = [
    "CorpusError",
    "Dictionary",
    "EmptyCorpusError",
    "EncodedCorpus",
    "FileEntry",
    "MalformedStreamError",
    "decode_stream",
    "encode_corpus",
    "tokenize",
    "Grammar",
    "GrammarError",
    "expand",
    "grammar_stats",
    "infer_grammar",
    "BadMagicError",
    "CompressionReport",
    "ContainerError",
    "ContainerHeader",
    "DeflateError",
    "FeatureMismatchError",
    "TruncatedContainerError",
    "compression_report",
    "read_container",
    "read_header",
    "write_container",
    "Dag",
    "DatasetFeatures",
    "coarsen",
    "extract_features",
    "load_merge_graph",
    "PartitionPlan",
    "plan_partitions",
    "run_parallel",
    "select_variant",
    "__version__",
]
