"""Positional voting over finite metric spaces with representative candidates.

Core surface: metric spaces with point masses (`spaces`), positional scoring
families (`scoring`), single elections with an independent brute-force oracle
(`elections`), seeded Monte Carlo distortion estimation (`montecarlo`), exact
rational evaluation of the constant-distortion characterization inequality
(`condition`), and the two-cluster adversarial lower-bound construction
(`adversarial`).
"""

from .adversarial import (
    AdversarialParams,
    EventStatus,
    ExperimentReport,
    build_instance,
    check_event,
    run_experiment,
    solve_parameters,
)
from .condition import (
    ConditionReport,
    DEFAULT_Y_GRID,
    classify_by_limit,
    condition_sides,
    scan,
    shifted_sides,
)
from .elections import (
    ElectionOutcome,
    brute_force_outcome,
    one_median,
    oracle_sweep,
    rankings,
    run_election,
    social_cost,
)
from .montecarlo import (
    Estimate,
    SufficiencyCheck,
    estimate_distortion,
    exact_expected_distortion,
    merge_estimates,
    probe_estimate,
    sample_candidates,
    sufficiency_probe,
)
from .scoring import (
    RuleFamily,
    ScoringVector,
    normalize,
    parse_family,
)
from .spaces import (
    MetricSpace,
    ValidationReport,
    load_space,
    outside_mass,
    random_space,
    save_space,
    validate,
)

__version__ = "0.1.0"
