"""Convolutional networks with symmetric stable parameters: finite-channel
simulation, infinite-channel limit laws via spectral-measure recursion, and
characteristic-function verification of the convergence."""

from .tensors import ConvLayerConfig, PatchMap, input_tensor, patch_map_for
from .stable import (
    SpectralMeasure,
    cf_multivariate,
    compress_measure,
    dump_measure,
    empty_measure,
    load_measure,
    read_measure,
    sample_multivariate,
    sample_standard,
    save_measure,
)
from .network import (
    ACTIVATIONS,
    ActivationSpec,
    FiniteOutputs,
    NetworkSpec,
    ReplicaSet,
    channel_mixture,
    forward_finite,
    get_activation,
    load_replicas,
    replica_block_size,
    replica_pool,
    sample_replicas,
    save_replicas,
)
from .limits import (
    LimitConfig,
    cf_conditional_closed_form,
    cf_layer1_closed_form,
    gamma_conditional,
    gamma_first,
    gamma_next_mc,
    limit_measures,
    mixture_measure,
    readout_measure,
)
from .verify import (
    ConvergenceReport,
    NonFiniteReplicas,
    ProbeSet,
    SweepRow,
    cf_distance,
    cf_standard_error,
    convergence_sweep,
    empirical_cf,
    gaussian_kernel_recursion,
    gaussian_oracle_check,
    generate_probes,
    implied_covariance,
    independence_check,
)

__version__ = "0.1.0"
