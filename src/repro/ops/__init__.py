"""First-class distributed element ops: the allreduce-based kernels."""

from repro.ops.normalization import DistributedRMSNorm, DistributedSoftmax

__all__ = ["DistributedRMSNorm", "DistributedSoftmax"]
