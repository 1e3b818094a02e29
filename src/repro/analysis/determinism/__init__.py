"""Determinism conformance analysis: the third leg of ``repro check``.

Everything the repo promises about replay — bit-exact
:class:`~repro.mesh.program.MeshProgram` replay, eager-identical batched
flows, and the fleet's sha256 ``timeline_signature`` identity — rests on
determinism invariants.  This package checks them instead of assuming
them, from three directions:

* :mod:`repro.analysis.determinism.rules` — static AST lint rules
  registered in the shared :mod:`repro.analysis.lint` engine:
  ``wall-clock-read``, ``unordered-iteration``,
  ``object-identity-ordering``, ``mutable-module-state``, and
  ``hashseed-dependent``;
* :mod:`repro.analysis.determinism.cachekeys` — a cross-module
  cache-key *version dataflow* pass that generalizes the PR-6
  ``retrain_link``/``links_version`` bug: every field a cached value
  depends on must either appear in the cache key or be shadowed by a
  version counter the key consumes, and every mutation of such a field
  must bump that counter;
* :mod:`repro.analysis.determinism.audit` — the dynamic
  :class:`ReplayAuditor`: run a serve / fleet / kernel scenario twice
  from the same seed, compare phase-granular timeline signatures, and
  localize the first divergent event with a readable diff.

Both static sides read the lint engine's shared module records
(:class:`~repro.analysis.lint.engine.ModuleRecord`): each file is
parsed and walked once per process, whichever side reaches it first.
``repro check --determinism`` (see :mod:`repro.cli`) wires all three;
the static sides also run under plain ``repro check``.
"""

from repro.analysis.determinism.audit import (
    SCENARIOS,
    AuditEvent,
    AuditReport,
    Divergence,
    ScenarioRun,
    audit_all,
    audit_scenario,
    run_scenario,
)
from repro.analysis.determinism.cachekeys import (
    CacheSite,
    MutationSite,
    check_cache_keys,
    collect_cache_sites,
    collect_mutations,
)
from repro.analysis.determinism import rules  # noqa: F401  (registers lint rules)

__all__ = [
    "SCENARIOS",
    "AuditEvent",
    "AuditReport",
    "CacheSite",
    "Divergence",
    "MutationSite",
    "ScenarioRun",
    "audit_all",
    "audit_scenario",
    "check_cache_keys",
    "collect_cache_sites",
    "collect_mutations",
    "run_scenario",
]
