"""Multi-tier datacenter topology: spec, expansion, validation.

A fabric is declared tier by tier — servers at the bottom, then one to
three switch tiers (leaf, spine, core) — and expanded into concrete
devices and links::

    topology = Topology([
        TierSpec("server", count=8, ports=1, link_gbps=10.0),
        TierSpec("leaf", count=2, device="tofino", ports=8, link_gbps=40.0),
        TierSpec("spine", count=1, device="taurus", ports=4, link_gbps=100.0),
    ])
    topology.devices()      # [Device("leaf0", ...), Device("spine0", ...)]
    topology.links()        # striped server uplinks + full leaf-spine mesh

Expansion is deterministic: servers stripe across leaves (server ``i``
uplinks to leaf ``i % n_leaf``) and consecutive switch tiers form a full
bipartite mesh, so the same spec always yields the same device names,
the same link set, and therefore the same plan bytes.  Validation fails
loudly: unknown device types go through the shared backend resolver
(:func:`repro.backends.registry.resolve_backend_name`), and a tier whose
port count cannot carry its own down- plus uplinks is rejected before
any model is compiled.

Specs load from JSON always, and from YAML when ``pyyaml`` is installed
(:func:`load_topology` gates the import; the container image is not
required to have it).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from repro.backends.registry import resolve_backend_name
from repro.errors import FabricError
from repro.wire import Fields

__all__ = [
    "TIER_ORDER",
    "TierSpec",
    "Device",
    "Link",
    "Topology",
    "load_topology",
]

#: The only tiers a fabric may declare, bottom to top.
TIER_ORDER = ("server", "leaf", "spine", "core")


@dataclass
class TierSpec:
    """One layer of the fabric.

    Attributes
    ----------
    tier:
        one of :data:`TIER_ORDER`.
    count:
        devices in this tier (>= 1).
    device:
        backend target running on every device of a switch tier
        (``taurus``/``tofino``/``fpga``); must be ``None`` for the
        server tier — servers originate traffic, they run no pipeline.
    ports:
        physical ports per device; validated against the expanded
        down- plus uplink count.
    link_gbps:
        bandwidth of each *uplink* from this tier to the one above
        (for servers: the NIC speed).
    resources:
        optional per-device resource-budget override in the backend's
        constraint vocabulary (e.g. ``{"mats": 16}`` to model a switch
        whose tables are half-consumed by forwarding state); ``None``
        uses the backend's full default envelope.
    """

    tier: str
    count: int
    device: "str | None" = None
    ports: int = 4
    link_gbps: float = 10.0
    resources: "dict | None" = None

    def __post_init__(self) -> None:
        if self.tier not in TIER_ORDER:
            raise FabricError(
                f"unknown tier {self.tier!r}; tiers are {TIER_ORDER}"
            )
        if self.count < 1:
            raise FabricError(f"tier {self.tier}: count must be >= 1")
        if self.ports < 1:
            raise FabricError(f"tier {self.tier}: ports must be >= 1")
        if self.link_gbps <= 0:
            raise FabricError(f"tier {self.tier}: link_gbps must be > 0")
        if self.tier == "server":
            if self.device is not None:
                raise FabricError("server tier cannot carry a device type")
        else:
            if self.device is None:
                raise FabricError(
                    f"tier {self.tier}: switch tiers need a device type"
                )
            # Shared resolver: same lookup + same error as the CLI.
            self.device = resolve_backend_name(self.device)

    def to_dict(self) -> dict:
        """Plain-dict wire form (what topology JSON/YAML files hold)."""
        doc = {
            "tier": self.tier,
            "count": self.count,
            "ports": self.ports,
            "link_gbps": self.link_gbps,
        }
        if self.device is not None:
            doc["device"] = self.device
        if self.resources is not None:
            doc["resources"] = dict(self.resources)
        return doc

    @staticmethod
    def from_dict(doc: dict) -> "TierSpec":
        """Rebuild (and re-validate) a tier spec from :meth:`to_dict`."""
        fields = Fields(doc, "", ("tier", "count", "device", "ports",
                                     "link_gbps", "resources"), FabricError)
        return TierSpec(
            tier=fields.text("tier"),
            count=fields.integer("count"),
            device=fields.text("device", None, none=True),
            ports=fields.integer("ports", 4),
            link_gbps=float(fields.number("link_gbps", 10.0)),
            resources=fields.numbers("resources", None, none=True),
        )


@dataclass(frozen=True)
class Device:
    """One expanded switch: ``leaf0``, ``spine1``, ... plus its backend."""

    name: str
    tier: str
    index: int
    target: str


@dataclass(frozen=True)
class Link:
    """One expanded link between two named endpoints."""

    src: str
    dst: str
    gbps: float


@dataclass
class Topology:
    """An ordered list of :class:`TierSpec` plus the expansion over it."""

    tiers: list = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [t.tier for t in self.tiers]
        if len(set(names)) != len(names):
            raise FabricError(f"duplicate tiers: {names}")
        order = [t for t in TIER_ORDER if t in names]
        if names != order:
            raise FabricError(
                f"tiers must appear bottom-up in {TIER_ORDER} order, got {names}"
            )
        if "server" not in names:
            raise FabricError("a fabric needs a server tier")
        if len(names) < 2:
            raise FabricError("a fabric needs at least one switch tier")
        if "spine" in names and "leaf" not in names:
            raise FabricError("a spine tier needs a leaf tier below it")
        if "core" in names and "spine" not in names:
            raise FabricError("a core tier needs a spine tier below it")
        self._check_ports()

    # -- lookup ---------------------------------------------------------
    def tier(self, name: str) -> TierSpec:
        """The :class:`TierSpec` named ``name``."""
        for spec in self.tiers:
            if spec.tier == name:
                return spec
        raise FabricError(f"no tier {name!r} in this topology")

    def switch_tiers(self) -> list:
        """The non-server tiers, bottom-up."""
        return [t for t in self.tiers if t.tier != "server"]

    # -- expansion ------------------------------------------------------
    def devices(self) -> list:
        """Every expanded switch, tier by tier, index order."""
        out = []
        for spec in self.switch_tiers():
            for index in range(spec.count):
                out.append(Device(
                    name=f"{spec.tier}{index}", tier=spec.tier,
                    index=index, target=spec.device,
                ))
        return out

    def links(self) -> list:
        """Every expanded link: striped server uplinks, bipartite meshes.

        Server ``i`` uplinks to leaf ``i % n_leaf``; consecutive switch
        tiers connect all-to-all.  Link bandwidth is the *lower* tier's
        ``link_gbps`` (a tier's spec describes its own uplinks).
        """
        out = []
        for lower, upper in zip(self.tiers, self.tiers[1:]):
            if lower.tier == "server":
                for i in range(lower.count):
                    out.append(Link(
                        src=f"server{i}",
                        dst=f"{upper.tier}{i % upper.count}",
                        gbps=lower.link_gbps,
                    ))
            else:
                for i in range(lower.count):
                    for j in range(upper.count):
                        out.append(Link(
                            src=f"{lower.tier}{i}",
                            dst=f"{upper.tier}{j}",
                            gbps=lower.link_gbps,
                        ))
        return out

    def boundaries(self) -> list:
        """Per tier boundary: ``(name, n_links, capacity_gbps)``.

        A boundary is the full set of links between two consecutive
        tiers (``server-leaf``, ``leaf-spine``, ...); its capacity is
        the sum of their bandwidths — the denominator of the
        oversubscription computation in :mod:`repro.fabric.traffic`.
        """
        out = []
        links = self.links()
        for lower, upper in zip(self.tiers, self.tiers[1:]):
            name = f"{lower.tier}-{upper.tier}"
            members = [
                link for link in links
                if link.src.startswith(lower.tier) and link.dst.startswith(upper.tier)
            ]
            out.append((name, len(members), sum(l.gbps for l in members)))
        return out

    # -- validation -----------------------------------------------------
    def _check_ports(self) -> None:
        """Reject tiers whose port count cannot carry their links."""
        for position, spec in enumerate(self.tiers):
            below = self.tiers[position - 1] if position > 0 else None
            above = (self.tiers[position + 1]
                     if position + 1 < len(self.tiers) else None)
            if spec.tier == "server":
                down = 0
            elif below is not None and below.tier == "server":
                # Striped attachment: the busiest leaf takes the ceiling.
                down = -(-below.count // spec.count)
            elif below is not None:
                down = below.count
            else:
                down = 0
            up = above.count if above is not None else 0
            if spec.tier == "server":
                up = 1 if above is not None else 0
            needed = down + up
            if needed > spec.ports:
                raise FabricError(
                    f"tier {spec.tier}: {spec.ports} ports cannot carry "
                    f"{down} downlinks + {up} uplinks"
                )

    # -- wire format ----------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-dict wire form: the tier list, nothing derived."""
        return {"tiers": [t.to_dict() for t in self.tiers]}

    @staticmethod
    def from_dict(doc: dict) -> "Topology":
        """Rebuild (and re-validate) a topology from :meth:`to_dict`."""
        tiers = Fields(doc, "topology", ("tiers",), FabricError).each(
            "tiers", TierSpec.from_dict
        )
        if not tiers:
            raise FabricError("topology document needs a 'tiers' list")
        return Topology(tiers)


def _load_doc(path: str) -> dict:
    """Parse a JSON or (when pyyaml is available) YAML document."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    if path.endswith((".yaml", ".yml")):
        try:
            import yaml
        except ImportError as exc:  # pragma: no cover - env-dependent
            raise FabricError(
                f"{path}: YAML specs need pyyaml; rewrite the spec as JSON"
            ) from exc
        doc = yaml.safe_load(text)
    else:
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FabricError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise FabricError(f"{path}: expected a mapping at top level")
    return doc


def load_topology(path: str) -> Topology:
    """Load a topology spec from a ``.json`` / ``.yaml`` file."""
    if not os.path.exists(path):
        raise FabricError(f"no topology spec at {path!r}")
    return Topology.from_dict(_load_doc(path))
