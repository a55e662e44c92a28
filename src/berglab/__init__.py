"""Numerical laboratory for Toeplitz operators on the Bergman space of
the complex unit ball: ball geometry, separated boundary sequences,
quadrature, truncated kernels and operators, composition unitaries, and
the ideal-separating witness experiment."""

from .basis import Expansion, TruncatedBasis, kernel, kernel_expansion, project
from .config import ExperimentConfig, load_config
from .geometry import (EllipsoidParams, delta_for, disjoint_threshold,
                       ellipsoid_params, in_ellipsoid, in_metric_ball,
                       metric_combined_bound, moebius, pseudo_metric)
from .quadrature import QuadratureRule, build_rule, integrate, rule_for_basis
from .sequences import SeparatedSequence, SequenceUnderflowError, build_sequence
from .toeplitz import (OperatorMatrix, Symbol, op_norm, toeplitz_matrix,
                       toeplitz_monomial_radial, toeplitz_radial)
from .unitaries import unitary_matrix, weak_pairing_exact
from .witness import (Prop1Config, SphereSet, boundary_trace_check,
                      build_prop1_config, in_region_W, lemma3_lower_bound,
                      prop1_decay, separation_experiment, witness_operator,
                      witness_symbol)

__version__ = "0.1.0"
