"""Potential-outcome schedules for hypothetical violence-reduction programs.

For every unit we build latent act counts under control (``y0``) and under
treatment (``y1``).  Units with no violence on the targeted acts under
control stay violence free under treatment (programs are assumed not to
initiate violence).  Each remaining ("violent") unit draws one of four
response types: no effect, cessation (all targeted violence stops),
reduction (each positive targeted count drops by a fixed amount), or
increase (each positive targeted count rises by that amount).

This module holds the effect scenario and the target resolution.
``harness.CellKernel`` applies these rules to a block of replications at
once, through lookup tables; the tests' reference pipeline
(``tests/reference.py``) builds each schedule stage by stage, with its
response-type labels, to check the kernel against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .joint import ActSpec

TARGET_PRESETS = ("all", "physical", "sexual", "moderate")
# The largest magnitude x for which 2 x + 6, in harness.CellKernel's effect tables, fits in int64
MAX_MAGNITUDE = (2**63 - 1 - 6) // 2


@dataclass(frozen=True)
class EffectScenario:
    """Distribution of response types and how effects are applied.

    Attributes:
        probs: probabilities of (no effect, cessation, reduction, increase)
            among violent units; must sum to 1.
        magnitude: fixed count change for reduction/increase types, 1..MAX_MAGNITUDE.
        target: which acts the program affects: "all", "physical", "sexual",
            "moderate", or an explicit sequence of 1-based act indices.
        floor: lower bound for reduced counts.  The default 1 keeps
            "reduction" disjoint from "cessation" (violence continues);
            set 0 to let large reductions reach zero.
        name: optional preset label for reports.
    """

    probs: tuple[float, float, float, float]
    magnitude: int = 2
    target: str | tuple[int, ...] = "all"
    floor: int = 1
    name: str | None = None

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=float)
        if p.shape != (4,) or not np.all(p >= 0) or abs(p.sum() - 1.0) > 1e-9:
            raise ValueError("probs must be 4 non-negative values summing to 1")
        object.__setattr__(self, "probs", tuple(float(x) for x in p))
        for key in ("magnitude", "floor"):  # a bool would pass the value checks below
            if isinstance(getattr(self, key), (bool, np.bool_)):
                raise ValueError(f"{key} must be an integer, got a bool")
        if int(self.magnitude) != self.magnitude or not 1 <= self.magnitude <= MAX_MAGNITUDE:
            raise ValueError(f"magnitude must be an integer from 1 to {MAX_MAGNITUDE}, "
                             f"got {self.magnitude}")
        if self.floor not in (0, 1):
            raise ValueError("floor must be 0 or 1")
        if isinstance(self.target, str):
            if self.target not in TARGET_PRESETS:
                raise ValueError(f"unknown target preset {self.target!r}")
        else:
            object.__setattr__(self, "target", tuple(int(i) for i in self.target))
            if not self.target:
                raise ValueError("explicit target index list is empty")


def target_columns(acts: Sequence[ActSpec], target) -> np.ndarray:
    """0-based column indices of the acts a scenario affects."""
    if isinstance(target, str):
        if target == "all":
            cols = [i for i in range(len(acts))]
        elif target in ("physical", "sexual"):
            cols = [i for i, a in enumerate(acts) if a.category == target]
        elif target == "moderate":
            cols = [i for i, a in enumerate(acts) if a.severity == "moderate"]
        else:
            raise ValueError(f"unknown target preset {target!r}")
    else:
        by_index = {a.index: i for i, a in enumerate(acts)}
        try:
            cols = [by_index[int(i)] for i in target]
        except KeyError as exc:
            raise ValueError(f"target act index {exc.args[0]} not in act table") from None
        if len(set(cols)) != len(cols):
            raise ValueError(f"target {tuple(target)} repeats an act index")
    if not cols:
        raise ValueError(f"target {target!r} selects no acts in this act table")
    return np.asarray(cols, dtype=np.intp)

