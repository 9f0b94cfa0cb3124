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
    ChecksumError,
    ContainerError,
    ContainerHeader,
    DeflateError,
    FeatureMismatchError,
    TruncatedContainerError,
    load_container,
    read_container,
    read_header,
    write_container,
)
from .dag import Dag, coarsen, load_merge_graph
from .scheduler import PartitionPlan, plan_partitions, run_parallel

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
    "ChecksumError",
    "ContainerError",
    "ContainerHeader",
    "DeflateError",
    "FeatureMismatchError",
    "TruncatedContainerError",
    "load_container",
    "read_container",
    "read_header",
    "write_container",
    "Dag",
    "coarsen",
    "load_merge_graph",
    "PartitionPlan",
    "plan_partitions",
    "run_parallel",
    "__version__",
]
