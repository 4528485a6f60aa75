"""Associative reranking for dense retrieval.

Two-stage pipeline: exact inner-product search produces a candidate pool,
then a small residual-gated MLP rescores each candidate with a learned
query-passage association signal that is blended with the dense similarity.
"""

from assocrank.embeddings import EmbeddingMatrix, load_matrix, save_matrix
from assocrank.model import AssocModel, forward, load_model, param_count, save_model, transform_matrix
from assocrank.pairs import AssocPairSet, QuestionRecord, extract_pairs, split_policy
from assocrank.rerank import RerankConfig, rerank_query
from assocrank.search import top_k
from assocrank.training import TrainConfig, TrainReport, train, training_accuracy

__version__ = "0.1.0"

__all__ = [
    "AssocModel",
    "AssocPairSet",
    "EmbeddingMatrix",
    "QuestionRecord",
    "RerankConfig",
    "TrainConfig",
    "TrainReport",
    "extract_pairs",
    "forward",
    "load_matrix",
    "load_model",
    "param_count",
    "rerank_query",
    "save_matrix",
    "save_model",
    "split_policy",
    "top_k",
    "train",
    "training_accuracy",
    "transform_matrix",
]
