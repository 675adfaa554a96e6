"""Multi-server federation: topologies, per-server estimation, routing.

The single-server ODM picks *whether* and *at which level* to offload;
this package adds *where*.  A declarative :class:`Topology` of
heterogeneous :class:`ServerNode`\\ s (per-node compute speed, link
profile, optional §3 guarantee) is measured per server through
:mod:`repro.estimator`, expanded into server×level choice groups by
:func:`repro.core.odm.build_mckp`'s topology mode, and decided/degraded
by :class:`~repro.core.odm.OffloadingDecisionManager` with one circuit
breaker per server.
"""

from .estimation import (
    estimate_server_benefit,
    estimate_topology_benefits,
    sample_response_times,
)
from .model import (
    LINK_PRESETS,
    LINK_QUALITIES,
    LinkProfile,
    ServerNode,
    Topology,
    make_topology,
)

__all__ = [
    "LinkProfile",
    "LINK_PRESETS",
    "LINK_QUALITIES",
    "ServerNode",
    "Topology",
    "make_topology",
    "sample_response_times",
    "estimate_server_benefit",
    "estimate_topology_benefits",
]
