import numpy as np
import pytest

from fraudkit.data import Dataset, Feature, FeatureSchema, dataset_from_matrix


@pytest.fixture
def mixed_schema() -> FeatureSchema:
    return FeatureSchema(
        [
            Feature("color", "categorical", categories=("red", "blue")),
            Feature("amount", "numeric"),
            Feature("hour", "numeric"),
        ]
    )


@pytest.fixture
def imbalanced_blobs() -> Dataset:
    """88 negatives around (0.3, 0.3), 12 positives around (0.7, 0.7)."""
    rng = np.random.default_rng(7)
    neg = np.clip(rng.normal(0.3, 0.05, size=(88, 2)), 0, 1)
    pos = np.clip(rng.normal(0.7, 0.05, size=(12, 2)), 0, 1)
    x = np.vstack([neg, pos])
    y = np.array([0] * 88 + [1] * 12)
    return dataset_from_matrix(x, y)
