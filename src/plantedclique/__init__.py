"""Planted-clique recovery via relaxed-Hamiltonian gradient descent and Gibbs
chains: graph models, exact integer-scaled energies, the chain dynamics,
landscape analysis, and an experiment harness with a CLI."""

from .chains import (CoupledResult, GibbsChain, GradientDescent, Move,
                     PeelDiagnostics, Trajectory,
                     gd_step, gibbs_step, replay, run_chain, run_coupled_gd,
                     run_peel)
from .energy import GammaParam, SubsetState, apply_flip, init_state
from .graphs import (Contamination, Graph, PlantedInstance, gen_contaminated,
                     gen_coupled, gen_er, gen_planted, load_graph, read_edge_list,
                     save_graph, stream_rng, write_edge_list)
from .harness import (ConfigError, ExperimentConfig, LandscapeConfig,
                      RunSummary, load_preset, parse_config, preset_names,
                      run_experiment, run_landscape, run_sweep, write_config)
from .landscape import (ComplexityEstimate, LocalMinReport, binary_entropy,
                        brute_force_min, enumerate_local_minima,
                        local_min_check, scan_local_minima)

__version__ = "0.1.0"
