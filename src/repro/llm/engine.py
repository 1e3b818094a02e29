"""The WaferLLM engine: functional inference through the mesh kernels.

:class:`WaferLLMEngine` runs *functional* distributed inference (every
matmul and reduction through the mesh kernels) for models small enough
to simulate, validated against the dense reference.  Wafer-scale
performance and energy estimates at any model size come from the
calibrated cost model, :class:`~repro.llm.wafer_system.WaferLLMSystem`
(the Tables 2-4/8 numbers); the pipeline structure from
:class:`~repro.runtime.scheduler.PipelineSchedule`; the prefill ->
decode re-placement cost from
:func:`repro.placement.transition.transition_cost`.

Example::

    from repro.core import WSE2
    from repro.llm import LLAMA3_8B, TINY_GQA, WaferLLMEngine, WaferLLMSystem

    result = WaferLLMSystem(WSE2).generation(LLAMA3_8B, 4096, 4096)
    print(result.decode_tokens_per_s)
    tokens = WaferLLMEngine(TINY_GQA).generate(prompt, num_tokens=8)
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.device_presets import WSE2
from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import ModelConfig
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext
from repro.llm.reference import ModelWeights

#: Above this many parameters the functional simulator refuses to run —
#: ``WaferLLMSystem`` estimates remain available at any size.
FUNCTIONAL_PARAM_LIMIT = 5_000_000


class WaferLLMEngine:
    """Functional WaferLLM inference for one simulable model."""

    def __init__(
        self,
        model: ModelConfig,
        device: PLMRDevice = WSE2,
        weights: Optional[ModelWeights] = None,
        seed: int = 0,
    ):
        self.model = model
        self.device = device
        self._weights = weights
        self._seed = seed
        self._transformer: Optional[WaferTransformer] = None

    def _ensure_transformer(self) -> WaferTransformer:
        if self.model.total_params > FUNCTIONAL_PARAM_LIMIT:
            raise ConfigurationError(
                f"{self.model.name} has {self.model.total_params:,} params — "
                f"too large for functional mesh simulation; estimate it with "
                f"WaferLLMSystem, or use a TINY_* config for functional runs"
            )
        if self._transformer is None:
            if self._weights is None:
                self._weights = synthesize_weights(self.model, seed=self._seed)
            self._transformer = WaferTransformer(
                self._weights, ops=MeshOpContext()
            )
        return self._transformer

    def generate(self, prompt: np.ndarray, num_tokens: int) -> np.ndarray:
        """Greedy generation through the functional distributed kernels."""
        transformer = self._ensure_transformer()
        transformer.reset()
        return transformer.generate(np.asarray(prompt), num_tokens)

    @property
    def transformer(self) -> WaferTransformer:
        """The functional distributed transformer (builds it on demand)."""
        return self._ensure_transformer()
