"""Synthetic site generator shared by the diagnostics/pipeline/acceptance tests.

Rows are drawn from the shipped four-predictor model: a site is "coherent"
with probability ``coherence`` (its four features move together, the way
real outlets either have a full editorial apparatus or none), otherwise
the features are independent fair coins; the label is then Bernoulli in
the model probability.  ``coherence=0.35`` makes the asymptotic pseudo
R-squared of a refit match the shipped model's reference value (~0.466).
"""

from __future__ import annotations

import numpy as np

from sourcescope.features import FEATURE_NAMES, FeatureVector
from sourcescope.model import MODEL_II, LabeledDataset

MODEL_II_FEATURES = tuple(MODEL_II.coefficients)
_BETA = np.array(list(MODEL_II.coefficients.values()))
DEFAULT_COHERENCE = 0.35


def draw_row(rng: np.random.Generator, coherence: float = DEFAULT_COHERENCE):
    """One (FeatureVector, label) draw from the generative law."""
    if rng.random() < coherence:
        bits = np.full(4, int(rng.integers(0, 2)))
    else:
        bits = rng.integers(0, 2, size=4)
    z = MODEL_II.intercept + float(bits @ _BETA)
    p = 1.0 / (1.0 + np.exp(-z))
    label = int(rng.random() < p)
    # 'about' does not enter the scoring model; keep it an independent coin
    features = FeatureVector(about=int(rng.integers(0, 2)),
                             **dict(zip(MODEL_II_FEATURES, map(int, bits))))
    return features, label


def balanced_dataset(rng: np.random.Generator, per_class: int = 200,
                     coherence: float = DEFAULT_COHERENCE) -> LabeledDataset:
    """Stratified rejection sampling until both classes hold ``per_class`` rows."""
    counts = {0: 0, 1: 0}
    rows = []
    while counts[0] < per_class or counts[1] < per_class:
        features, label = draw_row(rng, coherence)
        if counts[label] < per_class:
            counts[label] += 1
            rows.append((features, label))
    return LabeledDataset(tuple(rows))


def unbalanced_dataset(rng: np.random.Generator, n: int,
                       coherence: float = DEFAULT_COHERENCE) -> LabeledDataset:
    rows = [draw_row(rng, coherence) for _ in range(n)]
    return LabeledDataset(tuple(rows))


def write_csv(path, data: LabeledDataset) -> None:
    """One CSV line per row of the dataset's count table, in table order."""
    lines = ["label,padlock,contact,telephone,about,terms"]
    for bits, label, count in data.cells(FEATURE_NAMES):
        lines += [",".join(map(str, (label, *bits)))] * count
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
