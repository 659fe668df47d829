"""gapsense: univariate outlier detection from gap structure.

The core detector grows a "normal" set over sorted data and stops at the
first gap whose inconsistency score crosses a threshold derived from
Weber's law.  The package also ships the classical comparison detectors,
a seeded Monte Carlo breakdown harness, a partner-set resonance
clustering algorithm for point data, bundled benchmark datasets, and a
command-line interface (``gapsense``).
"""

from .baselines import (METHODS, boxplot_detect, chauvenet_detect,
                        mad_detect, mean_sigma_detect, run_method)
from .datasets import (CatalogError, DataFormatError, builtin_dataset,
                       load_points2d, load_univariate)
from .expanding import (DEFAULT_SENSITIVITY, DEFAULT_THRESHOLD, Detection,
                        IirRecord, Sensitivity, detect_high_side,
                        detect_two_sided, iir_closed_form,
                        threshold_to_weber, weber_to_threshold)
from .oscillator import (ClusterPartition, ClusterSummary, PointSet,
                         cluster_all, cluster_points, pairwise_distances,
                         partner_links)
from .samples import GapSeries, Sample, gap_series
from .simulate import (CurvePoint, SimScenario, breakdown_curve,
                       contamination_sweep, polar_normals, pure_normal_curve,
                       substream_seed)

__version__ = "0.1.0"

__all__ = [
    "METHODS", "boxplot_detect", "chauvenet_detect", "mad_detect",
    "mean_sigma_detect", "run_method",
    "CatalogError", "DataFormatError", "builtin_dataset", "load_points2d",
    "load_univariate",
    "DEFAULT_SENSITIVITY", "DEFAULT_THRESHOLD", "Detection", "IirRecord",
    "Sensitivity", "detect_high_side", "detect_two_sided", "iir_closed_form",
    "threshold_to_weber", "weber_to_threshold",
    "ClusterPartition", "ClusterSummary", "PointSet", "cluster_all",
    "cluster_points", "pairwise_distances", "partner_links",
    "GapSeries", "Sample", "gap_series",
    "CurvePoint", "SimScenario", "breakdown_curve", "contamination_sweep",
    "polar_normals", "pure_normal_curve", "substream_seed",
]
