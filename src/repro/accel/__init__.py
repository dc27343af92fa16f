"""Acceleration modes: phase-sampled fast-forward and sharded execution.

Two composable ways to trade a little fidelity for a lot of wall-clock:

* :class:`SamplingConfig` -- skip steady-state kernel repeats and
  extrapolate their counters with per-counter error estimates
  (:mod:`repro.accel.sampling`).
* :class:`ShardConfig` -- run the partitioned streams of a serving mix
  as independent worker processes and merge their reports
  (:mod:`repro.accel.shard`).

Both default to *off*; exact mode (sampling disabled, one shard) is
bit-identical to a run that never heard of this package.
"""

from repro.accel.config import SHARD_AXES, SamplingConfig, ShardConfig
from repro.accel.sampling import ExtrapolationResult, KernelSampler, kernel_signature

__all__ = [
    "SHARD_AXES",
    "SamplingConfig",
    "ShardConfig",
    "ExtrapolationResult",
    "KernelSampler",
    "kernel_signature",
]
