"""The deterministic label vocabulary.

The vocabulary fixes an integer index for every activity label, lexicographic
with the completion label END forced to the last slot; the whole pipeline
(predictors, beam tie-breaking, serialized models) leans on that ordering
being reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .eventlog import END, EventLog


@dataclass(frozen=True)
class Vocabulary:
    labels: tuple  # all activity labels, lexicographic, END last

    def __post_init__(self):
        if self.labels.count(END) != 1 or self.labels[-1] != END:
            raise ValueError("vocabulary must contain END exactly once, in last position")
        if not all(isinstance(lab, str) for lab in self.labels) or len(set(self.labels)) != len(self.labels):
            raise ValueError("vocabulary labels must be unique strings")

    def __len__(self):
        return len(self.labels)

    @cached_property
    def index(self) -> dict:
        # built on first use and kept beside the fields, outside eq and hash
        return {lab: i for i, lab in enumerate(self.labels)}

    def index_of(self, label: str) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise ValueError(f"label {label!r} is not in the vocabulary") from None

    def encode_labels(self, labels) -> tuple:
        """Map a label sequence to its index tuple (beam tie-break key)."""
        idx = self.index
        try:
            return tuple(idx[lab] for lab in labels)
        except KeyError as exc:
            raise ValueError(f"label {exc.args[0]!r} is not in the vocabulary") from None


def build_vocabulary(log: EventLog) -> Vocabulary:
    """Sorted alphabet of the log plus the END label in last position."""
    if not log.alphabet:
        raise ValueError("cannot build a vocabulary from an empty alphabet")
    return Vocabulary(labels=tuple(sorted(log.alphabet)) + (END,))
