"""BiLSTM sequence tagger with Softmax or CRF inference heads.

Single-task NER or joint POS+NER over a shared encoder; trained with
Adam, inverted dropout, and early stopping. All math is numpy in double
precision with hand-written reverse-mode gradients.
"""

from seqtag.neural.adam import AdamState, adam_step, adam_step_rows
from seqtag.neural.heads import (
    crf_head_loss,
    joint_loss,
    softmax_head_loss,
)
from seqtag.neural.lstm import LstmParams, bilstm_encode
from seqtag.neural.tagger import (
    Architecture,
    Head,
    NeuralTagger,
    NeuralTrainConfig,
    Prediction,
    batch_loss_and_gradients,
    build_tagger,
    sentence_loss,
    tag_neural,
    train_neural,
)

__all__ = [
    "AdamState",
    "Architecture",
    "Head",
    "LstmParams",
    "NeuralTagger",
    "NeuralTrainConfig",
    "Prediction",
    "adam_step",
    "adam_step_rows",
    "batch_loss_and_gradients",
    "bilstm_encode",
    "build_tagger",
    "crf_head_loss",
    "joint_loss",
    "sentence_loss",
    "softmax_head_loss",
    "tag_neural",
    "train_neural",
]
