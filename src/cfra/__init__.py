"""Grant-based random access for cell-free massive MIMO networks.

Monte-Carlo simulator and analytical toolkit covering the cell-free
strongest-user collision-resolution protocol, a baseline cell-free
protocol relying on spatial separability alone, and a single-BS baseline,
together with uplink-power estimators, serving-cap training and
closed-form separability predictions.
"""

__version__ = "1.0.0"

from .access import (DownlinkObservation, ServingSets, build_serving_sets,
                     conditional_channels, downlink_observation, large_n_observation,
                     precoder_weights, true_alpha_lt)
from .analysis import (SeparabilityPrediction, distance_cdf, distance_pdf,
                       expected_overlap_area, overlap_area,
                       separability_prediction)
from .bench import BenchResult, run_estimator_bench
from .calibration import TrainingConfig, calibrate_delta, train_lmax
from .channel import (complex_noise, correlate_uplink, draw_channels,
                      draw_uplink, pilot_activity, received_energy,
                      select_pilots)
from .contention import (PROTOCOLS, AttemptOutcome, CampaignResult,
                         run_access_campaign, run_attempt,
                         spatial_separability_admit, sucre_decision)
from .estimators import (BEST_PAIRS, CF_ESTIMATORS, ESTIMATOR_KINDS,
                         NEARBY_METHODS, EstimatorSpec, UEKnowledge,
                         best_pair, cpu_alpha_hat, estimate, estimate_1, estimate_2,
                         estimate_2_per_ap, estimate_3, estimate_cellular,
                         greedy_flexible_decide, knowledge_for,
                         preprocess_est3)
from .metrics import (CSV_COLUMNS, MetricsReport, iqr, read_reports, tcp,
                      write_reports)
from .scenario import (NearbySet, ScenarioConfig, Topology, ap_grid,
                       bs_topology, build_topology, db_to_linear,
                       limit_distance, linear_to_db, load_config,
                       natural_sets, nearby_set, pathloss_beta)
from .sweeps import FIGURE_CLASSES, SweepDescriptor, run_sweep

__all__ = [name for name in dir() if not name.startswith("_")]
