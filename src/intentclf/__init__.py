"""Data-free multi-label intent classification.

The pipeline synthesizes labelled queries from per-class prompt templates,
embeds them through a pluggable provider, pretrains a projection head with a
focal-contrastive loss over mined hard pairs, fine-tunes a sigmoid
multi-label classifier, and serves predictions for agentic routing.

The package root exports each stage's entry points, the data types and
config dataclasses they take, and the error classes; everything else is
imported from its module.
"""

from .dataset import (
    Dataset,
    LabelVocabulary,
    load_dataset,
    load_vocabulary,
    save_dataset,
    save_vocabulary,
    split_indices,
)
from .datagen import (
    LLMClientConfig,
    default_taxonomy,
    llm_generate,
    offline_generate,
    two_label_combos,
)
from .embedding import (
    ProviderConfig,
    embed_texts,
    load_embeddings,
    save_embeddings,
)
from .errors import (
    FileFormatError,
    PipelineError,
    RemoteServiceError,
    ValidationError,
)
from .losses import OFCConfig
from .metrics import evaluate
from .mining import MiningConfig
from .trainer import (
    TrainConfig,
    finetune,
    load_artifact,
    predict,
    pretrain,
    save_artifact,
    score_samples,
)

__version__ = "0.1.0"
