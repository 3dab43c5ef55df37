"""Traffic matrices: per-app demand between tiers, oversubscription.

A :class:`TrafficMatrix` is a list of :class:`Demand` rows — "app *bd*
offers 24 Gbit/s of server-to-server traffic", "app *tc* offers
8 Gbit/s server-to-spine" — and two computations over a topology:

* **oversubscription** — how loaded each tier boundary is.  A demand
  between tiers crosses every boundary between them; a *same-tier*
  demand (the classic east-west server-to-server case) climbs to the
  tier above and back down, so it counts twice on the boundary directly
  above its tier.  Crossing load spreads uniformly over a boundary's
  links (ECMP), so per-boundary oversubscription — offered load over
  capacity — is also the worst *link* oversubscription on that
  boundary.
* **route weights** — each app's share of total demand, quantized to
  the integer weights :class:`~repro.serving.router.PipelineRouter`
  uses for its deficit-round-robin split, so the serving plane's
  capacity split mirrors the offered load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import FabricError
from repro.fabric.topology import TIER_ORDER, Topology
from repro.wire import Fields

__all__ = [
    "Demand",
    "TrafficMatrix",
]


@dataclass(frozen=True)
class Demand:
    """Offered load for one app between two tiers, in Gbit/s."""

    app: str
    src_tier: str
    dst_tier: str
    gbps: float

    def __post_init__(self) -> None:
        if not self.app:
            raise FabricError("demand needs an app name")
        for tier in (self.src_tier, self.dst_tier):
            if tier not in TIER_ORDER:
                raise FabricError(
                    f"demand {self.app!r}: unknown tier {tier!r}; "
                    f"tiers are {TIER_ORDER}"
                )
        if self.gbps <= 0:
            raise FabricError(f"demand {self.app!r}: gbps must be > 0")

    def to_dict(self) -> dict:
        """Plain-dict wire form of one demand row."""
        return {"app": self.app, "src_tier": self.src_tier,
                "dst_tier": self.dst_tier, "gbps": self.gbps}

    @staticmethod
    def from_dict(doc: dict) -> "Demand":
        """Rebuild (and re-validate) a demand from :meth:`to_dict`."""
        fields = Fields(doc, "", ("app", "src_tier", "dst_tier", "gbps"),
                        FabricError)
        return Demand(app=fields.text("app"), src_tier=fields.text("src_tier"),
                      dst_tier=fields.text("dst_tier"),
                      gbps=float(fields.number("gbps")))


@dataclass
class TrafficMatrix:
    """Per-app tier-to-tier demands plus rollups over a topology."""

    demands: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.demands:
            raise FabricError("traffic matrix needs at least one demand")

    def apps(self) -> list:
        """Distinct app names, sorted."""
        return sorted({d.app for d in self.demands})

    def _boundary_load(self, topology: Topology) -> dict:
        """Offered Gbit/s crossing each tier boundary, by boundary name."""
        positions = {t.tier: i for i, t in enumerate(topology.tiers)}
        names = [
            f"{lower.tier}-{upper.tier}"
            for lower, upper in zip(topology.tiers, topology.tiers[1:])
        ]
        load = {name: 0.0 for name in names}
        for demand in self.demands:
            for tier in (demand.src_tier, demand.dst_tier):
                if tier not in positions:
                    raise FabricError(
                        f"demand {demand.app!r} names tier {tier!r} "
                        f"not present in this topology"
                    )
            lo = min(positions[demand.src_tier], positions[demand.dst_tier])
            hi = max(positions[demand.src_tier], positions[demand.dst_tier])
            if lo == hi:
                # East-west hairpin: up to the tier above and back down.
                if lo + 1 >= len(topology.tiers):
                    raise FabricError(
                        f"demand {demand.app!r}: same-tier traffic at the "
                        f"top tier {demand.src_tier!r} has nowhere to climb"
                    )
                load[names[lo]] += 2.0 * demand.gbps
            else:
                for boundary in range(lo, hi):
                    load[names[boundary]] += demand.gbps
        return load

    def oversubscription(self, topology: Topology) -> dict:
        """Per-boundary rollup: demand, capacity, and their ratio.

        Returns ``{boundary: {"demand_gbps", "capacity_gbps", "links",
        "oversubscription"}}``.  With the uniform ECMP spread the
        boundary ratio equals the worst per-link ratio, so a value above
        1.0 means some link is offered more than it can carry.
        """
        load = self._boundary_load(topology)
        out = {}
        for name, links, capacity in topology.boundaries():
            out[name] = {
                "demand_gbps": round(load[name], 6),
                "capacity_gbps": round(capacity, 6),
                "links": links,
                "oversubscription": round(load[name] / capacity, 6),
            }
        return out

    def worst_oversubscription(self, topology: Topology) -> dict:
        """The most-loaded boundary: ``{"boundary", "oversubscription"}``."""
        rollup = self.oversubscription(topology)
        worst = max(rollup, key=lambda name: rollup[name]["oversubscription"])
        return {"boundary": worst,
                "oversubscription": rollup[worst]["oversubscription"]}

    def app_shares(self) -> dict:
        """Each app's fraction of the total offered load."""
        totals: dict = {}
        for demand in self.demands:
            totals[demand.app] = totals.get(demand.app, 0.0) + demand.gbps
        grand = sum(totals.values())
        return {app: totals[app] / grand for app in sorted(totals)}

    def route_weights(self) -> dict:
        """Integer router weights proportional to each app's demand.

        The lightest app gets weight 1 and the others scale up from it
        (rounded, floor 1) — the integer each route's
        :attr:`~repro.serving.router.Route.weight` takes.
        """
        shares = self.app_shares()
        floor = min(shares.values())
        return {
            app: max(1, round(share / floor))
            for app, share in shares.items()
        }

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict wire form: the demand list."""
        return {"demands": [d.to_dict() for d in self.demands]}

    @staticmethod
    def from_dict(doc: dict) -> "TrafficMatrix":
        """Rebuild a traffic matrix from its :meth:`to_dict` document."""
        demands = Fields(doc, "traffic", ("demands",), FabricError).each(
            "demands", Demand.from_dict
        )
        if not demands:
            raise FabricError("traffic document needs a 'demands' list")
        return TrafficMatrix(demands)
