import numpy as np
import pytest

from clusterseg.annotation import annotate
from clusterseg.geometry import CameraIntrinsics
from clusterseg.losses import LogitPrediction
from clusterseg.scenegen import GeneratorConfig, render, sample_scene


def small_config(**overrides) -> GeneratorConfig:
    defaults = dict(
        count_range=(2, 4),
        size_range=(0.08, 0.18),
        camera=CameraIntrinsics(32.0, 32.0, 16.0, 16.0, 32, 32),
    )
    defaults.update(overrides)
    return GeneratorConfig(**defaults)


def make_example(seed=0, **overrides):
    """(scene, frame, annotation) for one small generated scene."""
    scene = sample_scene(seed, small_config(**overrides))
    frame = render(scene)
    return scene, frame, annotate(scene, frame)


def oracle_logits(ann, magnitude: float = 50.0) -> LogitPrediction:
    """Ground truth with saturated classification logits, for loss tests."""
    def to_logits(binary):
        out = np.where(binary[..., None], [-magnitude, magnitude],
                       [magnitude, -magnitude])
        return out.astype(np.float64)
    return LogitPrediction(
        xi_hat=ann.xi_map.copy(),
        b_hat=ann.b_map.copy(),
        eta_logits=to_logits(ann.eta_gt.astype(bool)),
        mask_logits=to_logits(ann.fg_mask.astype(bool)),
    )


def canonical_labels(labels: np.ndarray) -> np.ndarray:
    """Relabel instances by first appearance so partitions compare equal."""
    values, first, inverse = np.unique(labels.ravel(), return_index=True, return_inverse=True)
    instance = values != 0
    canon = np.zeros(values.size, dtype=labels.dtype)
    canon[instance] = np.argsort(np.argsort(first[instance])) + 1
    return canon[inverse].reshape(labels.shape)


def same_partition(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.array_equal(canonical_labels(a), canonical_labels(b)))


@pytest.fixture
def example_scene():
    return make_example(seed=3)
