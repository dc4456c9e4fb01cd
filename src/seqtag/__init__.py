"""Word-level sequence labeling toolkit.

Feature-based linear-chain CRF and BiLSTM taggers (Softmax or CRF
inference) for NER, with optional joint POS+NER training, subword-aware
word embeddings, BIOES corpus tools, and token-level evaluation.
"""

import math
import time

import numpy as np

__version__ = "0.1.0"

# NER alone, or NER and POS trained jointly
TASKS = ("single", "joint")


class NonFiniteLossError(ArithmeticError):
    """A training or validation loss became NaN or infinite."""


def check_finite_losses(epoch, train_loss, valid_loss):
    """Raise NonFiniteLossError unless both epoch losses are finite."""
    if not (math.isfinite(train_loss) and math.isfinite(valid_loss)):
        raise NonFiniteLossError(
            f"epoch {epoch}: loss is not finite (training {train_loss}, "
            f"validation {valid_loss})"
        )


class EarlyStopping:
    """The epoch schedule both trainers share.

    Iterating yields epoch numbers 1..max_epochs and stops once the
    validation loss has not improved for patience epochs. improved()
    closes an epoch: it appends the epoch's record to log, raises
    NonFiniteLossError on a non-finite loss and says whether the epoch
    is a new best; best_loss is the best validation loss so far.
    """

    def __init__(self, max_epochs, patience, log=None):
        self.max_epochs = max_epochs
        self.patience = patience
        self.log = [] if log is None else log
        self.best_loss = math.inf
        self._since_best = 0
        self._started = None

    def __iter__(self):
        for epoch in range(1, self.max_epochs + 1):
            self._started = time.perf_counter()
            yield epoch
            if self._since_best >= self.patience:
                return

    def improved(self, epoch, train_loss, valid_losses):
        """Record the epoch; True when its validation loss, the mean of
        valid_losses (the training loss when there are none), is the
        best so far."""
        if valid_losses:
            valid_loss = sum(valid_losses) / len(valid_losses)
        else:
            valid_loss = train_loss
        self.log.append(
            {
                "epoch": epoch,
                "train_loss": train_loss,
                "valid_loss": valid_loss,
                "seconds": time.perf_counter() - self._started,
            }
        )
        check_finite_losses(epoch, train_loss, valid_loss)
        if valid_loss < self.best_loss:
            self.best_loss = valid_loss
            self._since_best = 0
            return True
        self._since_best += 1
        return False


def format_training_log(records):
    """One ``epoch=… train_loss=… valid_loss=… seconds=…`` line per record."""
    return [
        "epoch={epoch} train_loss={train_loss:.6f} valid_loss={valid_loss:.6f} "
        "seconds={seconds:.3f}".format(**r)
        for r in records
    ]


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
