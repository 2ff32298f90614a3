"""Network substrate: latency, bandwidth sharing, and the central server.

The paper's experiments run on two environments -- the PeerSim simulator
and the PlanetLab wide-area testbed.  Both are modelled here with the
same abstractions:

* :mod:`repro.net.latency` -- pairwise one-way latency models.  The
  simulator uses a planar embedding; the PlanetLab emulation layers
  heavy jitter and congestion episodes on top (see
  :func:`repro.experiments.config.planetlab_environment`).
* :mod:`repro.net.bandwidth` -- processor-sharing upload links for the
  server and every peer; transfer times grow when a source is busy,
  which is the mechanism behind server-overload startup delays.
* :mod:`repro.net.server` -- the central server: video store of last
  resort, tracker of online nodes per channel/category/video, and the
  popularity oracle that feeds SocialTube's prefetching.
"""

from repro.net.bandwidth import SharedUploadLink, TransferGrant
from repro.net.latency import (
    LatencyModel,
    PlanarLatencyModel,
    UniformLatencyModel,
    WanLatencyModel,
)
from repro.net.message import ChunkSource, LookupResult
from repro.net.server import CentralServer

__all__ = [
    "SharedUploadLink",
    "TransferGrant",
    "LatencyModel",
    "PlanarLatencyModel",
    "UniformLatencyModel",
    "WanLatencyModel",
    "ChunkSource",
    "LookupResult",
    "CentralServer",
]
