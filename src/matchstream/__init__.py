"""Streaming local search for submodular maximization under p-matchoid
constraints: multi-pass drivers with online certified approximation
factors, a randomized buffered variant for non-monotone objectives, exact
baselines, and an experiment harness."""

from .baselines import (ExactResult, brute_force_opt, compute_rank,
                        max_feasible_subset, offline_greedy)
from .errors import (ConfigError, DomainError, InfeasibilityError,
                     MatchstreamError, PreconditionError, SizeError)
from .experiments import (ExperimentConfig, build_schedule, report_rows,
                          run_experiment, write_trace)
from .instances import (FAMILIES, Instance, generate_instance, load_instance,
                        save_instance, stream_order)
from .matchoids import (GraphicMatroid, Matroid, PartitionMatroid, PMatchoid,
                        TransversalMatroid, UniformMatroid)
from .multipass import (GuaranteeCertificate, MultipassResult, Schedule,
                        certified_gamma, multipass_run)
from .objectives import (CoverageOracle, DirectedCutOracle, ModularOracle,
                         RunningValue, SubmodularOracle, TableOracle,
                         brute_force_check_submodular)
from .randomized import (BufferState, GuessGrid, LambdaCopyResult,
                         RandomizedPassRunner, RandomizedRunResult,
                         guess_grid, multipass_randomized, offline_solve,
                         randomized_pass)
from .streaming import (PassRunner, SolutionState, exchange_set, recompute_nu,
                        streaming_pass)

__version__ = "0.1.0"
