"""ospkit: deadline-aware observer scheduling for state estimation.

Each decision cycle, a centralized executive picks the sequence of sensor
observations that minimizes the Kalman-predicted estimation MSE at the
cycle boundary, subject to all transmissions finishing before the
harvesting budget runs out.  The package provides the continuous-time
discretization primitives, the multirate Kalman operators, the
branch-and-bound search (plus greedy and exhaustive baselines), a seeded
closed-loop simulator, and a CLI.
"""

from .errors import (
    ConfigError,
    DimensionError,
    DomainError,
    NumericError,
    OrderingError,
    OspkitError,
)
from .model import SystemModel
from .kalman import (
    Candidate,
    cycle_candidates,
    first_obs_timestamp,
    g_step,
    predict_cov,
    propagate_estimate,
    sequence_mse,
    update_estimate,
)
from .scheduler import (
    CycleContext,
    ScheduleEvaluation,
    bnb_search,
    end_of_harvest,
    exhaustive_oracle,
    greedy_search,
    harvesting_budget,
    is_schedulable,
    order_observations,
)
from .sim import (
    ChannelConfig,
    CycleLog,
    decision_cycles,
    run_simulation,
    sample_airtimes,
    selection_stats,
    step_true_state,
)
from .config import ExperimentConfig, load_config, preset_config, write_csv

__version__ = "0.1.0"
