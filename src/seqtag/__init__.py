"""Word-level sequence labeling toolkit.

Feature-based linear-chain CRF and BiLSTM taggers (Softmax or CRF
inference) for NER, with optional joint POS+NER training, subword-aware
word embeddings, BIOES corpus tools, and token-level evaluation.
"""

import math

import numpy as np

__version__ = "0.1.0"


class NonFiniteLossError(ArithmeticError):
    """A training or validation loss became NaN or infinite."""


def check_finite_losses(epoch, train_loss, valid_loss):
    """Raise NonFiniteLossError unless both epoch losses are finite."""
    if not (math.isfinite(train_loss) and math.isfinite(valid_loss)):
        raise NonFiniteLossError(
            f"epoch {epoch}: loss is not finite (training {train_loss}, "
            f"validation {valid_loss})"
        )


def check_finite_gradients(epoch, gradients):
    """Raise NonFiniteLossError unless every gradient array is finite.

    One sum per array: a NaN or infinite entry makes the sum non-finite.
    Only then, as finite entries may also overflow the sum, are the
    entries checked one by one.
    """
    for grad in gradients:
        if not math.isfinite(grad.sum()) and not np.isfinite(grad).all():
            raise NonFiniteLossError(f"epoch {epoch}: gradient is not finite")


def sum_rows(rows, entry_gradients):
    """Entry gradients summed per row: (distinct rows, ascending; sums).
    Entries of one row are added in their given order."""
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    return rows[starts], np.add.reduceat(entry_gradients[order], starts)
