"""Screening pipeline for synthetic tomosynthesis stacks.

The package condenses a slice stack into one composite 2D image built
from its most suspicious patches, scores images through box-level MIL
aggregation rules up to study level, trains a toy weakly supervised box
scorer, and evaluates everything with a reader-study statistics suite
(ROC/AUC, bootstrap, paired AUC comparison, reader panels, tumor-size
matched resampling) on phantom cohorts with exact ground truth.
"""

from .boxes import ScoredBox, iou, nms, read_boxes_csv, write_boxes_csv
from .condense import (
    OptimizedImage,
    aggregate_boxes,
    build_optimized_image,
    choose_score_threshold,
    condense_volume,
    slice_max_score,
    slice_range,
    study_max_box_score,
)
from .errors import ConfigError, NumericError
from .imaging import (
    ImageGrid,
    Volume,
    normalize_range,
    normalize_volume,
    normalize_with_range,
    read_pgm,
    read_volume,
    volume_range,
    write_pgm,
    write_volume,
)
from .miltrain import (
    DatasetPool,
    MilRescorer,
    ToyScorer,
    TrainConfig,
    TrainingCase,
    TrainResult,
    balanced_sample,
    extract_patch_features,
    load_scorer,
    mil_forward,
    mil_loss_grad,
    save_scorer,
    train,
)
from .phantom import (
    LesionSpec,
    PhantomConfig,
    PhantomTruth,
    generate_case,
    generate_volume,
    project_dm,
    read_truth,
    sample_lesion,
    write_truth,
)
from .scorer import (
    BlobScorer,
    ScorerHandle,
    ViewScore,
    breast_score,
    default_condense_scorer,
    default_ensemble,
    ensemble_image_score,
    mil_image_score,
    study_score,
)
from .seeds import mix_seed, rng_stream
from .stats import (
    BootstrapResult,
    CaseRecord,
    DelongResult,
    PairedDeltaResult,
    PanelPoint,
    RocAnalysis,
    SizeHistogram,
    SizeMatchedResult,
    auc_mann_whitney,
    bootstrap_ci,
    delong_test,
    enumerate_panels,
    paired_delta_pvalue,
    read_cases_csv,
    reader_operating_point,
    reader_panel_combine,
    roc_and_auc,
    sensitivity_at_specificity,
    size_matched_auc,
    source_histogram,
    specificity_at_sensitivity,
    write_cases_csv,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
