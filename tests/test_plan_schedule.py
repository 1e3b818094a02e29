"""The functional forward pass runs the ops the cost model schedules.

One decode step and one 16-token prefill of :class:`WaferTransformer`
must launch exactly the kernels that ``decode_layer_schedule``,
``prefill_layer_schedule`` and ``lm_head_schedule`` imply: each GEMV,
GEMM or GEMM_T row is one kernel launch, a NORM row one ``ktree-add``
line reduction, and a SOFTMAX row one ``ktree-max`` plus one
``ktree-add``.  Element-wise, KV-append and transfer rows launch
nothing.
"""

from collections import Counter

import numpy as np
import pytest

from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.meshgemv import MeshGEMV
from repro.llm.checkpoint import synthesize_weights
from repro.llm.config import TINY_GQA, TINY_MHA, TINY_MQA
from repro.llm.distributed import WaferTransformer
from repro.llm.mesh_ops import MeshOpContext
from repro.llm.ops_schedule import (
    OpKind,
    decode_layer_schedule,
    lm_head_schedule,
    prefill_layer_schedule,
)

PROMPT_TOKENS = 16

KERNELS = {
    OpKind.GEMV: (MeshGEMV.name,),
    OpKind.GEMM: (MeshGEMM.name,),
    OpKind.GEMM_T: (MeshGEMMTransposed.name,),
    OpKind.NORM: ("ktree-add",),
    OpKind.SOFTMAX: ("ktree-max", "ktree-add"),
}


def _launches(schedule) -> Counter:
    """Launch labels a schedule implies, ``rows`` launches per kernel."""
    counts = Counter()
    for op in schedule:
        for label in KERNELS.get(op.kind, ()):
            counts[label] += op.rows
    return counts


def _labels(ops, since: int) -> Counter:
    return Counter(label for label, _trace in ops.traces[since:])


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "eager"])
@pytest.mark.parametrize("config", [TINY_GQA, TINY_MHA, TINY_MQA],
                         ids=lambda c: c.name)
def test_launches_match_the_schedules(config, compiled):
    model = WaferTransformer(synthesize_weights(config, seed=1),
                             ops=MeshOpContext(compiled=compiled))
    prompt = np.arange(PROMPT_TOKENS) % config.vocab_size
    logits = model.prefill(prompt)
    prefill = (config.num_layers
               * prefill_layer_schedule(config, PROMPT_TOKENS)
               + lm_head_schedule(config, PROMPT_TOKENS))
    assert _labels(model.ops, 0) == _launches(prefill)

    before = model.ops.total_kernels()
    model.decode_step(int(np.argmax(logits[-1])))
    decode = (config.num_layers
              * decode_layer_schedule(config, PROMPT_TOKENS + 1)
              + lm_head_schedule(config))
    assert _labels(model.ops, before) == _launches(decode)

