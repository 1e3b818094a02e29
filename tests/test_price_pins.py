"""Pinned component prices of every system model.

Each hash covers ``float.hex`` of ``compute_cycles``, ``comm_cycles``
and ``total_cycles`` for chunk lengths 1..256, decode contexts 1..2304
and prefill lengths {1, 300, 2048, 4096}, at the system's default
grids.  The digests were captured from the per-shape scalar pricing
that the vector axis pass replaced, so a drift in the one shared cycle
formula fails here even though both sides of the ``==``-to-``estimate``
oracles would move together.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.baselines.ladder import LadderSystem
from repro.baselines.t10 import T10System
from repro.core import WSE2
from repro.core.device_presets import get_device
from repro.llm.config import get_model
from repro.llm.wafer_system import WaferLLMSystem
from repro.serving import stepcost

FABRICS = (
    (WSE2, get_model("llama3-8b")),
    (get_device("ipu-like-crossbar"), get_model("tiny-gqa")),
)
SYSTEMS = (WaferLLMSystem, T10System, LadderSystem)

CHUNKS = range(1, 257)
CONTEXTS = range(1, 2305)
PREFILLS = (1, 300, 2048, 4096)

#: sha256 digests, keyed by (system class name, device name).
PINNED = {
    ("WaferLLMSystem", "cerebras-wse2"):
        "25c87e7e4d45e32b6655fd9eba64f6d4b64b436b1fbe60b1a6d21f1a1c9b39a1",
    ("WaferLLMSystem", "ipu-like-crossbar"):
        "f317003b7fac6937634188110c160e9174b18b2f47c05942bd18c51104b02e23",
    ("T10System", "cerebras-wse2"):
        "079044d28d010e419c9978e648bbada9f7680a2caf9a715e70ea1285fa3b1bfc",
    ("T10System", "ipu-like-crossbar"):
        "58cfe501cc8f62babff053024485c0643fec345638fd9b61a097b8a89bac1ff9",
    ("LadderSystem", "cerebras-wse2"):
        "2d9c2b853769397109d45dac3d45c9a4fa840c15836da86430e0f96bef1b4262",
    ("LadderSystem", "ipu-like-crossbar"):
        "982512ba2683c4d53b99b7f0e4320de29c6672a8919acd0b65758fb2d21547ff",
}


def _digest(system, model) -> str:
    stepcost.invalidate()
    rows = []
    for kind, method, args in (
        ("chunk", system.chunked_prefill_cost, CHUNKS),
        ("decode", system.decode_token_cost, CONTEXTS),
        ("prefill", system.prefill_cost, PREFILLS),
    ):
        for arg in args:
            cost = method(model, arg)
            fields = (cost.compute_cycles, cost.comm_cycles,
                      cost.total_cycles)
            assert all(type(x) is float for x in fields), (kind, arg)
            rows.append(f"{kind} {arg} " + " ".join(x.hex() for x in fields))
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


@pytest.mark.parametrize("system_cls", SYSTEMS, ids=lambda c: c.__name__)
@pytest.mark.parametrize("fabric", FABRICS, ids=lambda f: f[0].name)
def test_prices_match_pinned_digest(system_cls, fabric):
    device, model = fabric
    digest = _digest(system_cls(device), model)
    assert digest == PINNED[(system_cls.__name__, device.name)]
