"""Retrieval-quality metrics: P/R/F per topic and averaged over topics."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def __post_init__(self):
        if min(self.tp, self.fp, self.fn) < 0:
            raise ValueError("counts must be non-negative")

    def __add__(self, other: "ConfusionCounts") -> "ConfusionCounts":
        return ConfusionCounts(
            self.tp + other.tp, self.fp + other.fp, self.fn + other.fn
        )


def prf(counts: ConfusionCounts) -> tuple[float, float, float]:
    """Precision, recall and F-score; 0/0 is 0 by convention."""
    p = counts.tp / (counts.tp + counts.fp) if counts.tp + counts.fp else 0.0
    r = counts.tp / (counts.tp + counts.fn) if counts.tp + counts.fn else 0.0
    f = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def confusion(retrieved: list[int], gold: set[int]) -> ConfusionCounts:
    retrieved_set = set(retrieved)
    tp = len(retrieved_set & gold)
    return ConfusionCounts(tp=tp, fp=len(retrieved_set) - tp, fn=len(gold) - tp)


def aggregate_topics(
    per_topic_counts: list[ConfusionCounts],
) -> tuple[float, float, float]:
    """Micro-average: sum counts across topics, then P/R/F."""
    total = ConfusionCounts()
    for counts in per_topic_counts:
        total = total + counts
    return prf(total)


def macro_average(
    per_topic_counts: list[ConfusionCounts],
) -> tuple[float, float, float]:
    """Mean of per-topic P/R/F (reported alongside the micro-average)."""
    if not per_topic_counts:
        return 0.0, 0.0, 0.0
    scores = [prf(c) for c in per_topic_counts]
    n = len(scores)
    return tuple(sum(s[i] for s in scores) / n for i in range(3))
