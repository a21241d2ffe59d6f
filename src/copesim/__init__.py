"""copesim: decentralized data-acquisition mechanisms for Gaussian prediction.

A principal wants to predict a latent Gaussian state and can pay privately
informed agents to collect noisy observations.  This package implements the
screening mechanism that elicits cost types and estimates in one shot (menu of
effort schedules plus accuracy-scored transfers), the centralized full
-information benchmark, the posted homogeneous contract benchmark, and a
seeded Monte-Carlo engine that compares them.
"""

from .model import (GaussianPrior, CostTypeDistribution, Scenario,
                    NO_OBSERVATION, posterior_mean_var, principal_bayes_risk,
                    agent_bayes_risk)
from .costs import (CostModel, linear_cost, quadratic_cost, general_cost, cost,
                    check_regularity, LINEAR, QUADRATIC, GENERAL)
from .mechanism import (PaymentRule, SolverError, effort_linear,
                        effort_quadratic, effort_general, cubic_root,
                        payment_rule_linear, payment_rule_quadratic,
                        payment_rule_general, predict_batch)
from .agents import (truthful_report_obs, interim_payoff, best_response_type,
                     best_response_effort, information_rent)
from .benchmarks import (centralized_efforts, HomogeneousContract,
                         homogeneous_contract, homogeneous_predict,
                         homogeneous_expected_payoff, homogeneous_fallback)
from .engine import (MechanismSpec, EngineSettings, TrialRecord, MetricStat,
                     ExperimentResult, run_trial, run_batch, run_experiment,
                     normalize_payoff, COPE_LINEAR, COPE_QUADRATIC,
                     COPE_GENERAL, CENTRALIZED, homogeneous_spec, TRUTHFUL,
                     METRICS)
from .config import ExperimentConfig, ConfigError, load_config, save_config

__version__ = "0.1.0"
