"""Proposal-free 3D instance segmentation on synthetic RGB-D scenes.

Pipeline: render analytic scenes (scenegen) -> per-pixel ground truth
(annotation) -> predictions (predictor) -> two-stage clustering
(clustering) -> COCO-style metrics (evaluation), with training losses and
gradients (losses), bit-exact bundles (dataio) and the dataset and
segmentation directories (dataset). The cli module wires everything into
the `clusterseg` command.
"""

from .annotation import Annotation, annotate
from .clustering import Prediction, Segmentation, gmm_refine, seed_segmentation, segment
from .errors import ClusterSegError
from .evaluation import EvalConfig, EvalResult, compute_metrics
from .geometry import (CameraIntrinsics, compute_object_feature, depth_to_xyz,
                       feature_distance)
from .losses import LogitPrediction, LossBreakdown, LossWeights, finite_diff_check, total_loss
from .predictor import (AdamState, MlpModel, NoiseSpec, adam_step, init_model,
                        mlp_backward, mlp_forward, noisy_predict, oracle_predict)
from .scenegen import (FrameBundle, GeneratorConfig, Primitive, Scene, occlusion_score,
                       render, sample_scene)

__version__ = "0.1.0"

__all__ = [
    "Annotation", "annotate",
    "Prediction", "Segmentation", "gmm_refine", "seed_segmentation", "segment",
    "ClusterSegError",
    "EvalConfig", "EvalResult", "compute_metrics",
    "CameraIntrinsics", "compute_object_feature", "depth_to_xyz", "feature_distance",
    "LogitPrediction", "LossBreakdown", "LossWeights", "finite_diff_check", "total_loss",
    "AdamState", "MlpModel", "NoiseSpec", "adam_step", "init_model",
    "mlp_backward", "mlp_forward", "noisy_predict", "oracle_predict",
    "FrameBundle", "GeneratorConfig", "Primitive", "Scene", "occlusion_score",
    "render", "sample_scene",
    "__version__",
]
