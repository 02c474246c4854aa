"""Cluster configuration for the simulator engine.

The SimMR engine simulates the Hadoop *job master*: it only needs to know
how many map slots and reduce slots the cluster offers in aggregate (paper
Section III: "It is a non-goal to simulate details of the TaskTracker
nodes").  Node-level structure lives in :mod:`repro.hadoop`, the
fine-grained substrate used for validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ClusterConfig"]


@dataclass(frozen=True, slots=True)
class ClusterConfig:
    """Aggregate slot capacity of the simulated cluster.

    The paper's testbed is 64 worker nodes with 1 map and 1 reduce slot
    each (Section IV-B), i.e. ``ClusterConfig(64, 64)`` — the default.
    """

    map_slots: int = 64
    reduce_slots: int = 64

    def __post_init__(self) -> None:
        if self.map_slots < 1:
            raise ValueError(f"map_slots must be >= 1, got {self.map_slots}")
        if self.reduce_slots < 0:
            raise ValueError(f"reduce_slots must be >= 0, got {self.reduce_slots}")

    @property
    def total_slots(self) -> int:
        return self.map_slots + self.reduce_slots

    def slot_accounting_error(
        self,
        free_map_slots: int,
        free_reduce_slots: int,
        running_maps: int,
        running_reduces: int,
    ) -> Optional[str]:
        """Describe a violated slot-conservation invariant, or ``None``.

        At every point of a simulation ``free + running == capacity``
        must hold per slot kind, with ``0 <= free <= capacity``.  The
        runtime sanitizer (``repro.sanitize``) evaluates this after each
        handled event; a non-None return pinpoints which side leaked.
        """
        for kind, free, running, cap in (
            ("map", free_map_slots, running_maps, self.map_slots),
            ("reduce", free_reduce_slots, running_reduces, self.reduce_slots),
        ):
            if not 0 <= free <= cap:
                return f"free {kind} slots {free} outside [0, {cap}]"
            if free + running != cap:
                return (
                    f"{kind} slot conservation broken: free {free} + "
                    f"running {running} != capacity {cap}"
                )
        return None
