"""Wafer-scale LLM parallelism: configs, kernels-to-model glue, engine."""

from repro.llm.config import (
    CODELLAMA_34B,
    LLAMA2_13B,
    LLAMA3_8B,
    MODELS,
    QWEN2_72B,
    TINY_GQA,
    TINY_MHA,
    TINY_MQA,
    AttentionVariant,
    ModelConfig,
    get_model,
)
from repro.llm.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    synthesize_weights,
)
from repro.llm.reference import (
    ModelWeights,
    ReferenceTransformer,
    rms_norm,
    softmax,
)
from repro.llm.tensor_layout import (
    AxisMap,
    TensorLayout,
    activation_decode_layout,
    activation_prefill_layout,
    weight_layout,
    weight_layout_decode,
)
from repro.llm.kvcache import (
    ConcatKVCache,
    KVCacheGeometry,
    KVTokenLedger,
    ShiftKVCache,
    capacity_geometry,
    kv_budget_per_core,
    measure_max_tokens,
    region_token_capacity,
)
from repro.llm.mesh_ops import MeshOpContext
from repro.llm.distributed import WaferTransformer
from repro.llm.ops_schedule import (
    LayerOp,
    OpKind,
    decode_layer_schedule,
    lm_head_schedule,
    prefill_layer_schedule,
    schedule_macs,
)
from repro.llm.system_base import GenerationResult, SystemModel
from repro.llm.wafer_system import WaferLLMSystem
from repro.llm.engine import WaferLLMEngine
from repro.llm.quantize import (
    QuantizedModelWeights,
    QuantizedTensor,
    quantization_error,
    quantize_tensor,
    quantize_weights,
    quantized_config,
)
from repro.llm.projections import (
    ResidentDecodeProjection,
    cross_device_kernels,
    resident_decode_projection,
    sow_density_projection,
    wider_variant,
    width_study,
)

__all__ = [
    "ModelConfig",
    "AttentionVariant",
    "get_model",
    "MODELS",
    "LLAMA3_8B",
    "LLAMA2_13B",
    "CODELLAMA_34B",
    "QWEN2_72B",
    "TINY_MHA",
    "TINY_GQA",
    "TINY_MQA",
    "synthesize_weights",
    "save_checkpoint",
    "load_checkpoint",
    "ModelWeights",
    "ReferenceTransformer",
    "rms_norm",
    "softmax",
    "TensorLayout",
    "AxisMap",
    "activation_prefill_layout",
    "activation_decode_layout",
    "weight_layout",
    "weight_layout_decode",
    "ShiftKVCache",
    "ConcatKVCache",
    "KVCacheGeometry",
    "capacity_geometry",
    "kv_budget_per_core",
    "measure_max_tokens",
    "region_token_capacity",
    "KVTokenLedger",
    "MeshOpContext",
    "WaferTransformer",
    "LayerOp",
    "OpKind",
    "prefill_layer_schedule",
    "decode_layer_schedule",
    "lm_head_schedule",
    "schedule_macs",
    "SystemModel",
    "GenerationResult",
    "WaferLLMSystem",
    "WaferLLMEngine",
    "resident_decode_projection",
    "ResidentDecodeProjection",
    "wider_variant",
    "width_study",
    "cross_device_kernels",
    "sow_density_projection",
    "QuantizedTensor",
    "QuantizedModelWeights",
    "quantize_tensor",
    "quantize_weights",
    "quantization_error",
    "quantized_config",
]
