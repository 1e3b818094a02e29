"""Distributed GEMM kernels: MeshGEMM and the paper's baselines."""

from repro.gemm.base import (
    GemmKernel,
    GemmShape,
    best_grid,
    gather_with_placement,
)
from repro.gemm.meshgemm import MeshGEMM
from repro.gemm.cannon import CannonGEMM
from repro.gemm.summa import SummaGEMM
from repro.gemm.allgather_gemm import AllgatherGEMM
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.nonsquare import LogicalGrid, MeshGEMMNonSquare

#: Kernels compared in Figure 9 (plus allgather from Figure 6).
GEMM_KERNELS = {
    kernel.name: kernel
    for kernel in (MeshGEMM, CannonGEMM, SummaGEMM, AllgatherGEMM)
}

__all__ = [
    "GemmKernel",
    "GemmShape",
    "best_grid",
    "gather_with_placement",
    "MeshGEMM",
    "CannonGEMM",
    "SummaGEMM",
    "AllgatherGEMM",
    "MeshGEMMTransposed",
    "MeshGEMMNonSquare",
    "LogicalGrid",
    "GEMM_KERNELS",
]
