"""What every workload reports about one run, and the recorded outputs."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


@dataclass
class Outcome:
    """The checked result of one run of a workload.

    ``record`` holds exact facts of the simulation (signatures,
    simulated-time metrics, counts, tokens): every run of one seed must
    reproduce it, and for the recorded seeds it must equal
    ``expected.json``.
    """

    requests: int
    tokens: int
    attempted: int
    failed: int
    problems: List[str]
    record: Dict[str, object]
    #: Host seconds of each ``decode_step`` call (functional stack only).
    step_s: List[float] = field(default_factory=list)


def expected_record(workload: str, seed: int) -> Optional[Dict[str, object]]:
    """The recorded outputs of ``workload`` at ``seed``, if any."""
    with EXPECTED_PATH.open() as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def record_problems(
    record: Dict[str, object], expected: Dict[str, object]
) -> List[str]:
    """Every field of ``expected`` that ``record`` does not reproduce."""
    return [
        f"{key}: expected {want!r}, got {record.get(key)!r}"
        for key, want in expected.items()
        if record.get(key) != want
    ]
