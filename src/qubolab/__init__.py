"""QUBO workbench: problem core, classical solvers, self-supervised data
generation, a differentiable reaction-diffusion graph network, and an
evaluation harness with a single CLI."""

from .autodiff import AdamState, Tape, Tensor, adam_step, backward
from .datagen import (DataGenParams, DataPair, Dataset, barrier_observed_vector,
                      generate_dataset, generate_pair, read_dataset,
                      write_dataset)
from .evaluate import (EvalRecord, IsingSweep, LandscapeGrid, accuracy,
                       benchmark, evaluate_method, homophily, hybrid_infer,
                       ising_sweep, plateau_fraction, probe_landscape,
                       rel_qubo, write_eval_records, write_landscape,
                       write_sweep)
from .io import read_instance, read_vector, write_instance, write_vector
from .model import (HISTORY_COLUMNS, BpgnnConfig, BpgnnModel, TrainConfig,
                    build_laplacian, load_checkpoint, save_checkpoint,
                    train, write_history)
from .qubo import (GraphView, QuboInstance, gen_ising, gen_lattice_laplacian,
                   gen_random_dense, ising_energy, lattice_adjacency,
                   qubo_to_ising)
from .solvers import (IntractableSizeError, SabParams, SolverResult, TabuParams,
                      exhaustive_argmins, exhaustive_solve, refine_with_tabu,
                      sab_solve, tabu_rows, tabu_solve)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "Tape", "Tensor", "adam_step", "backward",
    "DataGenParams", "DataPair", "Dataset", "barrier_observed_vector",
    "generate_dataset", "generate_pair", "read_dataset", "write_dataset",
    "EvalRecord", "IsingSweep", "LandscapeGrid", "accuracy", "benchmark",
    "evaluate_method", "homophily", "hybrid_infer", "ising_sweep",
    "plateau_fraction", "probe_landscape", "rel_qubo", "write_eval_records",
    "write_landscape", "write_sweep",
    "read_instance", "read_vector", "write_instance", "write_vector",
    "HISTORY_COLUMNS", "BpgnnConfig", "BpgnnModel", "TrainConfig",
    "build_laplacian", "load_checkpoint", "save_checkpoint",
    "train", "write_history",
    "GraphView", "QuboInstance", "gen_ising", "gen_lattice_laplacian",
    "gen_random_dense", "ising_energy", "lattice_adjacency", "qubo_to_ising",
    "IntractableSizeError", "SabParams", "SolverResult", "TabuParams",
    "exhaustive_argmins", "exhaustive_solve", "refine_with_tabu", "sab_solve",
    "tabu_rows", "tabu_solve", "__version__",
]
