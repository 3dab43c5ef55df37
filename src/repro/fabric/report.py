"""Fabric-level reporting: per-device outcomes plus fabric rollups.

A :class:`FabricReport` reads a :class:`~repro.fabric.planner.FabricPlan`
and answers the operator questions a single-switch
:class:`~repro.core.reports.CompileReport` cannot: which device/app pair
scored worst, how much budget headroom each tier has left, and which
tier boundary is closest to (or past) saturation.  It adds no new
computation over the plan — everything here is aggregation, so a report
rendered from a saved plan file matches one rendered in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FabricError
from repro.fabric.planner import FabricPlan

__all__ = ["FabricReport"]


@dataclass
class FabricReport:
    """Aggregated view over one :class:`FabricPlan`."""

    plan: FabricPlan

    @staticmethod
    def from_plan(plan: FabricPlan) -> "FabricReport":
        """Build a report; the plan must carry at least one device entry."""
        if not plan.devices:
            raise FabricError("plan has no device entries to report on")
        return FabricReport(plan)

    # -- per-device rollups ---------------------------------------------
    def accuracy(self) -> dict:
        """Per (device, app): winning algorithm, metric, and objective."""
        return {
            f"{e['device']}:{e['app']}": {
                "algorithm": e["algorithm"],
                "metric": e["metric"],
                "objective": e["objective"],
            }
            for e in self.plan.devices
        }

    def latency(self) -> dict:
        """Per (device, app): estimated latency (ns) and throughput."""
        return {
            f"{e['device']}:{e['app']}": dict(e["performance"])
            for e in self.plan.devices
        }

    # -- fabric rollups --------------------------------------------------
    def worst_objective(self) -> dict:
        """The lowest-scoring (device, app) pair — the accuracy floor."""
        worst = min(self.plan.devices, key=lambda e: e["objective"])
        return {
            "device": worst["device"],
            "app": worst["app"],
            "metric": worst["metric"],
            "objective": worst["objective"],
        }

    def tier_headroom(self) -> dict:
        """Per tier: the tightest remaining budget fraction per resource."""
        return {
            tier: dict(doc["headroom"])
            for tier, doc in self.plan.placement.get("tiers", {}).items()
        }

    def worst_oversubscription(self) -> "dict | None":
        """The most-loaded boundary, or ``None`` without a traffic matrix."""
        return self.plan.traffic.get("worst") or None

    # -- rendering -------------------------------------------------------
    def summary(self) -> str:
        """A terminal-friendly rollup: one row per device-app, then totals."""
        lines = [
            f"fabric plan: {len(self.plan.devices)} placements across "
            f"{len(self.plan.tiers())} tier(s), seed={self.plan.seed}"
        ]
        for e in self.plan.devices:
            perf = e["performance"]
            lines.append(
                f"  {e['device']}:{e['app']} [{e['target']}] "
                f"{e['algorithm']} {e['metric']}={e['objective']:.4f} "
                f"lat={perf['latency_ns']:.0f}ns"
            )
        floor = self.worst_objective()
        lines.append(
            f"  accuracy floor: {floor['device']}:{floor['app']} "
            f"{floor['metric']}={floor['objective']:.4f}"
        )
        for tier, room in sorted(self.tier_headroom().items()):
            tightest = min(room, key=room.get)
            lines.append(
                f"  {tier} headroom: {room[tightest]:.1%} ({tightest})"
            )
        worst = self.worst_oversubscription()
        if worst:
            lines.append(
                f"  worst oversubscription: {worst['boundary']} "
                f"at {worst['oversubscription']:.2f}x"
            )
        return "\n".join(lines)
