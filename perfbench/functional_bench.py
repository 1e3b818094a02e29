"""Functional generation: ``TINY_GQA`` through the mesh kernels.

The engine is built the way users build it, ``WaferLLMEngine(TINY_GQA,
seed=0)``, so it runs whatever ``MeshOpContext`` mode is the default.
A timed run is three seeded 16-token prompts, each greedily decoded to
``max_seq_len``: the loop of ``WaferTransformer.generate`` with every
``decode_step`` timed on its own.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.llm.config import TINY_GQA
from repro.llm.distributed import WaferTransformer
from repro.llm.engine import WaferLLMEngine
from repro.llm.reference import ReferenceTransformer

from common import Outcome

N_PROMPTS = 3
PROMPT_TOKENS = 16
#: Tokens generated per prompt: prompt plus output fill ``max_seq_len``
#: minus one, i.e. 47 ``decode_step`` calls per prompt.
NEW_TOKENS = TINY_GQA.max_seq_len - PROMPT_TOKENS - 1


class FunctionalGenerate:
    """Three prompts, prefill plus 47 decode steps each."""

    name = "functional_generate"

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.prompts = [
            rng.integers(0, TINY_GQA.vocab_size, PROMPT_TOKENS)
            for _ in range(N_PROMPTS)
        ]
        self._reference: List[List[int]] = []

    def build(self) -> WaferTransformer:
        """Per-run set-up: a fresh engine, so traces start empty."""
        return WaferLLMEngine(TINY_GQA, seed=0).transformer

    def run(self, transformer: WaferTransformer):
        clock = time.perf_counter
        outputs: List[List[int]] = []
        step_s: List[float] = []
        for prompt in self.prompts:
            transformer.reset()
            logits = transformer.prefill(prompt)
            token = int(np.argmax(logits[-1]))
            out = []
            for _ in range(NEW_TOKENS):
                out.append(token)
                start = clock()
                logits = transformer.decode_step(token)
                step_s.append(clock() - start)
                token = int(np.argmax(logits))
            outputs.append(out)
        return outputs, step_s

    def reference(self, transformer: WaferTransformer) -> List[List[int]]:
        """Dense reference tokens; one fresh transformer per prompt,
        because ``ReferenceTransformer.generate`` never resets its cache."""
        if not self._reference:
            self._reference = [
                ReferenceTransformer(transformer.weights)
                .generate(prompt, NEW_TOKENS).tolist()
                for prompt in self.prompts
            ]
        return self._reference

    def outcome(self, transformer: WaferTransformer, result) -> Outcome:
        outputs, step_s = result
        reference = self.reference(transformer)
        failed = 0
        problems = []
        for i, (got, want) in enumerate(zip(outputs, reference)):
            wrong = sum(a != b for a, b in zip(got, want))
            wrong += abs(len(got) - len(want))
            if wrong:
                problems.append(
                    f"prompt {i}: {wrong} tokens differ from the reference")
            failed += wrong
        tokens = sum(len(out) for out in outputs)
        return Outcome(
            requests=len(outputs),
            tokens=tokens,
            attempted=tokens,
            failed=failed,
            problems=problems,
            record={"tokens": outputs, **mesh_work(transformer)},
            step_s=step_s,
        )

    def facts(self, transformer: WaferTransformer, result,
              outcome: Outcome) -> Dict[str, float]:
        """Per-layer inputs counted from the run's own outputs."""
        return {
            "tokens": outcome.tokens,
            "programs": transformer.ops.program_cache_stats()["programs"],
            **{key: outcome.record[key] for key in MESH_WORK_KEYS},
        }


MESH_WORK_KEYS = ("launches", "flows", "hop_bytes", "macs")


def mesh_work(transformer: WaferTransformer) -> Dict[str, float]:
    """Modelled mesh work of every kernel the transformer launched.

    ``hop_bytes`` is computed from tile sizes and route lengths (payload
    bytes times hops, per flow), not measured.
    """
    ops = transformer.ops
    flows = hop_bytes = 0
    macs = 0.0
    for _label, trace in ops.traces:
        for comm in trace.comms:
            flows += comm.num_flows
            hop_bytes += sum(f.hops * f.nbytes for f in comm.flows)
        macs += trace.total_macs
    return {
        "launches": ops.total_kernels(),
        "flows": flows,
        "hop_bytes": hop_bytes,
        "macs": macs,
    }
