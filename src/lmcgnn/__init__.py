"""Mini-batch GNN training with locally compensated message passing.

The package trains two node-classification models on a shared sparse
message-passing substrate:

* a multi-layer graph convolution network, and
* a recurrent model whose embeddings solve a contractive fixed-point
  equation (forward and backward passes are both Picard iterations).

Training partitions the graph, samples groups of parts as mini-batches,
and corrects the truncated neighborhood aggregations on both the forward
and the backward pass with compensation terms read from historical
embedding and pullback caches.  Restricting the compensation recovers the
historical-embedding and induced-subgraph baselines exactly, and running
a single batch that covers every part recovers full-batch gradient
descent exactly.
"""
from .convnet import (ConvParams, forward_full, full_gradients, gd_step,
                      init_conv_params, loss_full)
from .engine import (SCORE_KINDS, ZERO_SCHEDULE, BlendSchedule, ConvHistory,
                     RecHistory, backward_sgd_grads, blend_weights,
                     cluster_step, gas_conv_step, gas_rec_step,
                     induced_subgraph, lmc_conv_step, lmc_rec_step,
                     rec_backward_sgd_grads)
from .gradset import GradSet
from .graph import (Graph, MiniBatch, NormalizedAdjacency, Partition,
                    batch_from_parts, build_graph, cut_edges, epoch_batches,
                    normalized_adjacency, partition_clustered,
                    partition_random, read_edge_list, sample_minibatch)
from .kernels import spectral_radius
from .recnet import (RecParams, SolverDiverged, SolverStalled,
                     full_rec_gradients, gd_rec_step, init_rec_params,
                     project_wellposed, solve_backward, solve_forward)
from .report import OpCounter, StepReport

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ConvParams", "forward_full", "full_gradients", "gd_step",
    "init_conv_params", "loss_full",
    "SCORE_KINDS", "ZERO_SCHEDULE", "BlendSchedule", "ConvHistory",
    "RecHistory", "backward_sgd_grads", "blend_weights", "cluster_step",
    "gas_conv_step", "gas_rec_step", "induced_subgraph", "lmc_conv_step",
    "lmc_rec_step", "rec_backward_sgd_grads",
    "GradSet",
    "Graph", "MiniBatch", "NormalizedAdjacency", "Partition",
    "batch_from_parts", "build_graph", "cut_edges", "epoch_batches",
    "normalized_adjacency", "partition_clustered", "partition_random",
    "read_edge_list", "sample_minibatch", "spectral_radius",
    "RecParams", "SolverDiverged", "SolverStalled", "full_rec_gradients",
    "gd_rec_step", "init_rec_params", "project_wellposed", "solve_backward",
    "solve_forward",
    "OpCounter", "StepReport",
]
