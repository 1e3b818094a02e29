"""Per-layer attribution for the traced run.

:class:`LayerTracer` replaces the public functions of each layer with
timing wrappers for the length of one run and puts the originals back
afterwards, so an untimed, unwrapped program is what the end-to-end
metrics measure.  Every wrapped call is a span; a span's *self* time is
its duration minus the durations of the wrapped calls made inside it,
so the self times of all layers add up to the time spent inside the
outermost wrapped call, with nothing counted twice.

A call is *outermost* for its layer when no other call of the same
layer is on the stack (``fused_step_cost`` calls ``decode_token_cost``:
one priced shape, not two).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

from repro.collectives import allreduce
from repro.fleet.router import FleetRouter
from repro.gemm.gemm_t import MeshGEMMTransposed
from repro.gemm.meshgemm import MeshGEMM
from repro.gemv.meshgemv import MeshGEMV
from repro.llm import mesh_ops
from repro.llm.distributed import WaferTransformer
from repro.llm.kvcache import KVTokenLedger
from repro.llm.mesh_ops import MeshOpContext
from repro.llm.system_base import SystemModel
from repro.llm.wafer_system import WaferLLMSystem
from repro.mesh.machine import MeshMachine
from repro.mesh.program import MeshProgram
from repro.serving import admission, chunked, stepcost
from repro.serving.admission import SLOAdmission
from repro.serving.chunked import ServeEngine
from repro.serving.health import HealthMonitor

#: (layer, owner, attribute names).  The owner is the class or module
#: whose attribute callers look up; a class owner may inherit the
#: attribute, in which case the defining class is patched.
LAYER_TABLE: Sequence[Tuple[str, object, Tuple[str, ...]]] = (
    ("llm.cost_model", WaferLLMSystem, ("fused_step_cost",)),
    ("llm.cost_model", SystemModel,
     ("prefill_cost", "chunked_prefill_cost", "decode_token_cost")),
    ("serving.stepcost", stepcost,
     ("fused_step_seconds", "exclusive_prefill_seconds",
      "chunk_compute_cycles")),
    ("serving.health", HealthMonitor, ("observe_step", "observe_steps")),
    ("serving.engine", ServeEngine,
     ("step", "advance_to", "submit", "drain", "finish",
      "backlog_prefill_tokens", "load_tokens")),
    ("serving.admission", SLOAdmission, ("check",)),
    # ``chunked`` imported ``backlog_tokens`` by name: patch both bindings.
    ("serving.admission", chunked, ("backlog_tokens",)),
    ("serving.admission", admission, ("backlog_tokens",)),
    ("llm.kvcache", KVTokenLedger,
     ("can_reserve", "reserve", "release", "free_tokens",
      "reserved_tokens")),
    ("fleet.router", FleetRouter, ("run",)),
    ("llm.transformer", WaferTransformer, ("prefill", "decode_step")),
    ("llm.mesh_ops", MeshOpContext,
     ("gemm", "gemm_t", "gemv", "reduce_sum", "reduce_max", "rms_norm",
      "softmax", "rms_norm_rows", "softmax_rows")),
    ("kernels", MeshGEMM, ("run", "capture_run", "replay_run")),
    ("kernels", MeshGEMMTransposed, ("run", "capture_run", "replay_run")),
    ("kernels", MeshGEMV, ("run", "capture_run", "replay_run")),
    ("kernels", mesh_ops, ("ktree_reduce",)),
    ("kernels", allreduce, ("ktree_reduce",)),
    ("mesh.program", MeshProgram, ("replay",)),
    ("mesh.machine", MeshMachine,
     ("communicate", "compute", "compute_all", "compute_stacked", "absorb",
      "place", "place_many", "scatter_grid", "scatter_matrix")),
)

#: Attribute names of ``mesh.machine`` grouped into the reported splits.
MACHINE_GROUPS: Dict[str, Tuple[str, ...]] = {
    "communicate_s": ("communicate",),
    "compute_s": ("compute", "compute_all", "compute_stacked", "absorb"),
    "place_s": ("place", "place_many", "scatter_grid", "scatter_matrix"),
}


class _Site:
    """Counters of one wrapped function."""

    __slots__ = ("layer", "name", "self_s", "outer_s", "calls", "outer_calls")

    def __init__(self, layer: str, name: str):
        self.layer = layer
        self.name = name
        self.self_s = 0.0
        self.outer_s = 0.0
        self.calls = 0
        self.outer_calls = 0


def _defining_owner(owner: object, name: str) -> object:
    """The class in ``owner``'s MRO that defines ``name`` (or the module)."""
    for klass in getattr(owner, "__mro__", (owner,)):
        if name in vars(klass):
            return klass
    raise AttributeError(f"{owner!r} has no attribute {name!r}")


class LayerTracer:
    """Wraps every function of :data:`LAYER_TABLE` while in a ``with``."""

    def __init__(self) -> None:
        self.sites: List[_Site] = []
        self._depth: Dict[str, List[int]] = {}
        self._child_s: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []
        self._cache_at_enter: Dict[str, int] = {}
        #: Step-cost cache hits and misses while the tracer was active.
        self.cache_delta: Dict[str, int] = {"hits": 0, "misses": 0}

    def _wrap(self, site: _Site, fn: Callable) -> Callable:
        clock = time.perf_counter
        child_s = self._child_s
        depth = self._depth.setdefault(site.layer, [0])

        def wrapper(*args, **kwargs):
            depth[0] += 1
            child_s.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                site.self_s += elapsed - child_s.pop()
                site.calls += 1
                depth[0] -= 1
                if not depth[0]:
                    site.outer_calls += 1
                    site.outer_s += elapsed
                if child_s:
                    child_s[-1] += elapsed

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, layer: str, owner: object, name: str) -> None:
        owner = _defining_owner(owner, name)
        original = vars(owner)[name]
        site = _Site(layer, name)
        # Properties and classmethods must be re-wrapped as such: a plain
        # function in place of a property getter raises TypeError.
        if isinstance(original, property):
            patched = property(
                self._wrap(site, original.fget), original.fset,
                original.fdel, original.__doc__,
            )
        elif isinstance(original, classmethod):
            patched = classmethod(self._wrap(site, original.__func__))
        elif isinstance(original, staticmethod):
            patched = staticmethod(self._wrap(site, original.__func__))
        else:
            patched = self._wrap(site, original)
        setattr(owner, name, patched)
        self._patches.append((owner, name, original))
        self.sites.append(site)

    def __enter__(self) -> "LayerTracer":
        self._cache_at_enter = stepcost.cache_info()
        try:
            for layer, owner, names in LAYER_TABLE:
                for name in names:
                    self._patch(layer, owner, name)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        info = stepcost.cache_info()
        self.cache_delta = {
            key: info[key] - self._cache_at_enter[key]
            for key in ("hits", "misses")
        }

    def _restore(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- readouts -------------------------------------------------------
    def _select(self, layer: str, names: Sequence[str] = ()) -> List[_Site]:
        return [
            s for s in self.sites
            if s.layer == layer and (not names or s.name in names)
        ]

    def self_s(self, layer: str, *names: str) -> float:
        return sum(s.self_s for s in self._select(layer, names))

    def calls(self, layer: str, *names: str) -> int:
        return sum(s.calls for s in self._select(layer, names))

    def outer_calls(self, layer: str, *names: str) -> int:
        """Calls made from outside ``layer`` (nested calls not counted)."""
        return sum(s.outer_calls for s in self._select(layer, names))

    def outer_s(self, layer: str, *names: str) -> float:
        """Inclusive time of the calls made from outside ``layer``."""
        return sum(s.outer_s for s in self._select(layer, names))

    def attributed_s(self) -> float:
        return sum(s.self_s for s in self.sites)


#: Workload-counted inputs of :func:`layer_metrics`; a workload
#: overrides the ones its stack produces and leaves the rest at zero.
EMPTY_FACTS: Dict[str, float] = dict.fromkeys((
    "tokens", "sim_steps",
    "dispatches", "failovers", "migrations",
    "sim_ttft_p50_s", "sim_ttft_p99_s", "sim_tpot_p99_s",
    "sim_goodput_tok_s", "sim_slo_attainment",
    "decode_step_ms_p50", "decode_step_ms_p90", "decode_steps",
    "launches", "programs", "flows", "hop_bytes", "macs",
), 0)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    tracer: LayerTracer,
    facts: Dict[str, float],
    traced_s: float,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``facts`` holds what the workload counted from its own outputs
    (simulated steps, mesh work, untraced decode step percentiles); a
    layer the workload never calls reads zero.
    """
    t = tracer
    priced = t.outer_calls("llm.cost_model")
    cost_s = t.self_s("llm.cost_model")
    hits, misses = t.cache_delta["hits"], t.cache_delta["misses"]
    step_calls = t.calls("serving.engine", "step")
    tokens = facts["tokens"]
    metrics = {
        "llm.cost_model.priced_shapes": priced,
        "llm.cost_model.self_s": cost_s,
        "llm.cost_model.ms_per_shape": 1e3 * _ratio(cost_s, priced),
        "serving.stepcost.calls": t.calls("serving.stepcost"),
        "serving.stepcost.misses": misses,
        "serving.stepcost.hit_ratio": _ratio(hits, hits + misses),
        "serving.stepcost.self_s": t.self_s("serving.stepcost"),
        "serving.health.calls": t.outer_calls("serving.health"),
        "serving.health.self_s": t.self_s("serving.health"),
        "serving.engine.calls": t.outer_calls("serving.engine"),
        "serving.engine.self_s": t.self_s("serving.engine"),
        "serving.engine.sim_steps": facts["sim_steps"],
        "serving.engine.steps_per_call": _ratio(facts["sim_steps"], step_calls),
        "serving.admission.calls": t.outer_calls("serving.admission"),
        "serving.admission.self_s": t.self_s("serving.admission"),
        "llm.kvcache.ledger_calls": t.outer_calls("llm.kvcache"),
        "llm.kvcache.ledger_self_s": t.self_s("llm.kvcache"),
        "fleet.router.self_s": t.self_s("fleet.router"),
        "fleet.router.dispatches": facts["dispatches"],
        "fleet.router.failovers": facts["failovers"],
        "fleet.router.migrations": facts["migrations"],
        "llm.transformer.prefill_s": t.outer_s("llm.transformer", "prefill"),
        "llm.transformer.decode_self_s": t.self_s(
            "llm.transformer", "decode_step"),
        "llm.transformer.decode_step_ms_p50": facts["decode_step_ms_p50"],
        "llm.transformer.decode_step_ms_p90": facts["decode_step_ms_p90"],
        "llm.transformer.decode_steps": facts["decode_steps"],
        "llm.mesh_ops.launches_per_token": _ratio(facts["launches"], tokens),
        "llm.mesh_ops.programs": facts["programs"],
        "llm.mesh_ops.self_s": t.self_s("llm.mesh_ops"),
        "kernels.calls": t.outer_calls("kernels"),
        "kernels.self_s": t.self_s("kernels"),
        "mesh.program.replays": t.calls("mesh.program"),
        "mesh.program.replay_s": t.self_s("mesh.program"),
        "mesh.flows_per_token": _ratio(facts["flows"], tokens),
        "mesh.hop_bytes_per_token": _ratio(facts["hop_bytes"], tokens),
        "mesh.macs_per_token": _ratio(facts["macs"], tokens),
        "fleet.sim_ttft_p50_s": facts["sim_ttft_p50_s"],
        "fleet.sim_ttft_p99_s": facts["sim_ttft_p99_s"],
        "fleet.sim_tpot_p99_s": facts["sim_tpot_p99_s"],
        "fleet.sim_goodput_tok_s": facts["sim_goodput_tok_s"],
        "fleet.sim_slo_attainment": facts["sim_slo_attainment"],
        "unattributed_s": traced_s - t.attributed_s(),
    }
    for metric, names in MACHINE_GROUPS.items():
        metrics[f"mesh.machine.{metric}"] = t.self_s("mesh.machine", *names)
    return metrics
