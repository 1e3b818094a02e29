"""Grid/K autotuning on the pristine mesh (Section 4.4's future work).

The pristine-mesh entry points, built on the planner's single scoring
path (:class:`~repro.placement.score.ThroughputScorer`) and search
driver (:func:`~repro.placement.search.coarse_then_refine`).
``autotune`` on a pristine fabric is the degenerate case of the
defect-aware planner, and both sides of
``compare_with_paper_configs``'s report read the same memoized scorer,
so they cannot drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.plmr import PLMRDevice
from repro.errors import ConfigurationError
from repro.llm.config import ModelConfig
from repro.placement.score import ThroughputScorer
from repro.placement.search import (
    coarse_then_refine,
    min_decode_grid,
    sweep_ktree,
)


@dataclass(frozen=True)
class AutotuneResult:
    """Chosen configuration and the predicted rates at that choice."""

    model: str
    prefill_grid: int
    decode_grid: int
    ktree_k: int
    prefill_tokens_per_s: float
    decode_tokens_per_s: float
    candidates_evaluated: int


def _autotune_on(scorer: ThroughputScorer, coarse_step: int) -> AutotuneResult:
    """Run the grid/K search against an existing (shared) scorer."""
    model, device = scorer.model, scorer.device
    side = min(device.mesh_width, device.mesh_height)
    if side < 8:
        raise ConfigurationError(
            f"device fabric {side} too small for parallelism search"
        )

    lo = max(8, min(60, side // 4))
    prefill = coarse_then_refine(scorer.prefill, lo, side, coarse_step)

    decode_lo = max(
        min_decode_grid(model, device, scorer.context_len), lo
    )
    decode = coarse_then_refine(scorer.decode, decode_lo, side, coarse_step)

    best_k, k_evals = sweep_ktree(model, device, decode.best)

    return AutotuneResult(
        model=model.name,
        prefill_grid=prefill.best,
        decode_grid=decode.best,
        ktree_k=best_k,
        prefill_tokens_per_s=prefill.value,
        decode_tokens_per_s=decode.value,
        candidates_evaluated=(
            prefill.evaluations + decode.evaluations + k_evals
        ),
    )


def autotune(
    model: ModelConfig,
    device: PLMRDevice,
    seq_len: int = 4096,
    context_len: int = 2048,
    coarse_step: int = 60,
) -> AutotuneResult:
    """Search grids and K for the best prefill/decode configuration."""
    scorer = ThroughputScorer(model, device, seq_len=seq_len,
                              context_len=context_len)
    return _autotune_on(scorer, coarse_step)


def compare_with_paper_configs(
    model: ModelConfig, device: PLMRDevice
) -> dict:
    """Autotuned vs paper-chosen configurations, as a report dict.

    One :class:`ThroughputScorer` prices both columns: the paper grids
    hit the cache the search already filled, and a scoring change can
    never skew one side of the comparison.
    """
    scorer = ThroughputScorer(model, device)
    tuned = _autotune_on(scorer, coarse_step=60)
    system = scorer.system
    paper = scorer.score_pair(
        system.prefill_grid(model), system.decode_grid(model)
    )
    return {
        "model": model.name,
        "paper": paper,
        "autotuned": {
            "prefill_grid": tuned.prefill_grid,
            "decode_grid": tuned.decode_grid,
            "ktree_k": tuned.ktree_k,
            "prefill_tok_s": tuned.prefill_tokens_per_s,
            "decode_tok_s": tuned.decode_tokens_per_s,
        },
    }
