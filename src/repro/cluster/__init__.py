"""Multi-PM testbed orchestration.

The fleet-scale simulator lives in :mod:`repro.cluster.fleet` and is
imported from there; it is not re-exported here, because it pulls in
:mod:`repro.placement`, which itself depends on :mod:`repro.models` and
:mod:`repro.monitor` -- both of which import this package.
"""

from repro.cluster.cluster import ROUTING_PRIORITY, Cluster
from repro.cluster.deployment import (
    Deployment,
    DeploymentSpec,
    RubisRef,
    VmPlacement,
    WorkloadRef,
    build_deployment,
)

__all__ = [
    "Cluster",
    "Deployment",
    "DeploymentSpec",
    "ROUTING_PRIORITY",
    "RubisRef",
    "VmPlacement",
    "WorkloadRef",
    "build_deployment",
]
