"""Document distances via exact optimal transport, classical baselines, and
the evaluation/analysis harness around them."""

__version__ = "0.5.0"

from .ot_core import TransportPlan, TransportProblem, solve_transport
from .textrep import (
    NormScheme,
    SparseVector,
    VectorMetric,
    Vocabulary,
    bow_vector,
    build_vocabulary,
    normalize,
    tfidf_vector,
    vector_distance,
)
from .embeddings import EmbeddingStore, cost_submatrix, l2_normalize, \
    load_embeddings, project_pca
from .wmd import (
    DistanceMatrix,
    DocumentMeasure,
    Method,
    Resources,
    make_measure,
    pairwise_distances,
    wmd_distance,
)
from .knn_eval import (
    Hyperparams,
    LabeledSplit,
    TuningGrid,
    evaluate,
    knn_predict,
    relative_performance,
    tune,
    wknn_predict,
)
from .corpus import Corpus, DuplicateReport, deduplicate, filter_vocabulary, \
    find_duplicates, load_corpus, make_folds
from .analysis import TransportHistogram, dim_comparison, \
    nearest_neighbor_pairs, pearson, transport_histogram
