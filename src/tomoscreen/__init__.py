"""Screening pipeline for synthetic tomosynthesis stacks.

The package condenses a slice stack into one composite 2D image built
from its most suspicious patches, scores images through box-level MIL
aggregation rules up to study level, trains a toy weakly supervised box
scorer, and evaluates everything with a reader-study statistics suite
(ROC/AUC, bootstrap, paired AUC comparison, reader panels, tumor-size
matched resampling) on phantom cohorts with exact ground truth.
"""

__version__ = "0.1.0"
