"""Data-free multi-label intent classification.

The pipeline synthesizes labelled queries from per-class prompt templates,
embeds them through a pluggable provider, pretrains a projection head with a
focal-contrastive loss over mined hard pairs, fine-tunes a sigmoid
multi-label classifier, and serves predictions for agentic routing.
"""

from .dataset import (
    Dataset,
    LabelSet,
    LabelVocabulary,
    TextSample,
    encode_labels,
    label_matrix,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    split,
    split_indices,
)
from .datagen import (
    GenerationResult,
    LLMClientConfig,
    PromptTemplate,
    build_prompt,
    compose_multilabel,
    default_taxonomy,
    llm_generate,
    offline_generate,
    parse_generation,
    two_label_combos,
)
from .embedding import (
    ProviderConfig,
    embed_dataset,
    embed_remote,
    embed_texts,
    l2_normalize,
    load_embeddings,
    save_embeddings,
    toy_embed,
)
from .errors import (
    DegenerateAucError,
    DegenerateEmbeddingError,
    DegenerateProjectionError,
    FileFormatError,
    GenerationError,
    NoPairsError,
    PipelineError,
    RemoteServiceError,
    ValidationError,
)
from .gradcheck import GradCheckReport, grad_check
from .losses import (
    LossOutput,
    OFCConfig,
    cs_loss,
    negative_loss,
    ofc_loss,
    oc_loss,
    positive_loss,
)
from .metrics import (
    EvalReport,
    MicroCounts,
    auc,
    evaluate,
    hamming_loss,
    jaccard,
    mcc,
    micro_prf,
    prf_from_counts,
    subset_accuracy,
)
from .mining import (
    MinedCounts,
    MinedPairs,
    MiningConfig,
    PairSet,
    PairSims,
    SimilarityTable,
    batch_similarity_table,
    build_pairs,
    mine,
    select_top,
)
from .trainer import (
    ClassifierHead,
    ModelArtifact,
    ProjectionHead,
    TrainConfig,
    bce_loss,
    finetune,
    load_artifact,
    predict,
    pretrain,
    projection_margin_gap,
    save_artifact,
    score_samples,
)

__version__ = "0.1.0"
