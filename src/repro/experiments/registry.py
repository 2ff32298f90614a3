"""Typed protocol registry: the one sanctioned way to build a stack.

The experiment layer used to hold a raw ``{name: class}`` dict and pass
free-form ``**protocol_overrides`` straight into constructors, which
made specs unpicklable (classes travel badly), overrides untypable, and
the set of runnable systems invisible to tooling.  This module replaces
that with:

* one frozen *parameter dataclass* per protocol, whose field names are
  exactly the keyword arguments of the protocol constructor, so a
  params value is a complete, hashable, picklable description of a
  stack's tuning, and the one home of every protocol setting (the
  dataclass defaults are the paper's Section V values);
* a :class:`ProtocolEntry` binding name -> (factory, params type),
  registered via :func:`register_protocol`;
* :func:`create_protocol`, the only call site that instantiates a
  ``*Protocol`` class (enforced by the ``direct-protocol-instantiation``
  lint rule).

``repro.experiments.spec.ExperimentSpec`` stores the protocol *name*
plus a params value; workers re-resolve the factory through this
registry, so specs pickle cleanly across process boundaries.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from random import Random
from typing import Any, Callable, Dict, List, Optional, Type

from repro.baselines.gridcast import GridCastProtocol
from repro.baselines.nettube import NetTubeProtocol
from repro.baselines.pavod import PaVodProtocol
from repro.baselines.protocol import VodProtocol
from repro.core.socialtube import SocialTubeProtocol
from repro.net.server import CentralServer
from repro.trace.dataset import TraceDataset

# ---------------------------------------------------------------------------
# per-protocol parameter dataclasses
#
# Field names match the protocol constructors verbatim: a params value
# expands to constructor kwargs via dataclasses.asdict().


@dataclass(frozen=True)
class SocialTubeParams:
    """SocialTube tuning (Section IV / Section V defaults).

    ``prefetch_window`` is M, the first chunks prefetched per watch; 0
    turns prefetching off (Fig 17's "w/o PF").
    """

    inner_link_limit: int = 5
    inter_link_limit: int = 10
    ttl: int = 2
    prefetch_window: int = 3


@dataclass(frozen=True)
class NetTubeParams:
    """NetTube tuning (per-video overlays); window 0 is "w/o PF"."""

    links_per_overlay: int = 5
    search_hops: int = 2
    prefetch_window: int = 3


@dataclass(frozen=True)
class PaVodParams:
    """PA-VoD tuning (server-directed peer assistance)."""

    watchers_per_referral: int = 3
    download_speedup: float = 2.0


@dataclass(frozen=True)
class GridCastParams:
    """GridCast tuning (tracker-directed multi-video caching)."""

    replicas_per_referral: int = 3


# ---------------------------------------------------------------------------
# registry


@dataclass(frozen=True)
class ProtocolEntry:
    """One runnable protocol stack: its factory and its typed knobs."""

    name: str
    factory: Callable[..., VodProtocol]
    params_type: Type[Any]


_REGISTRY: Dict[str, ProtocolEntry] = {}


def register_protocol(
    name: str,
    factory: Callable[..., VodProtocol],
    params_type: Type[Any],
) -> ProtocolEntry:
    """Register a protocol stack under ``name``; returns its entry.

    ``params_type`` must be a frozen dataclass whose fields mirror the
    factory's keyword arguments.  Re-registering a name replaces the
    entry (tests register throwaway stacks).

    Example::

        register_protocol("mystack", MyStackProtocol, MyStackParams)
        protocol = create_protocol("mystack", dataset, server, rng)
    """
    if not dataclasses.is_dataclass(params_type):
        raise TypeError(f"params_type for {name!r} must be a dataclass")
    entry = ProtocolEntry(name=name, factory=factory, params_type=params_type)
    _REGISTRY[name] = entry
    return entry


def unregister_protocol(name: str) -> None:
    """Remove a registered stack (test cleanup for throwaway entries)."""
    _REGISTRY.pop(name, None)


def get_protocol(name: str) -> ProtocolEntry:
    """The registry entry for ``name``; raises ValueError when unknown."""
    entry = _REGISTRY.get(name)
    if entry is None:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {protocol_names()}"
        )
    return entry


def protocol_names() -> List[str]:
    """Sorted names of every registered stack."""
    return sorted(_REGISTRY)


def resolve_params(name: str, overrides: Optional[Dict[str, Any]] = None) -> Any:
    """The params of ``name``: dataclass defaults with ``overrides`` applied.

    Raises TypeError on an override key the params dataclass does not
    declare -- the typo-safety the old ``**protocol_overrides`` lacked.

    Example::

        params = resolve_params("socialtube", {"ttl": 3})
        assert params.ttl == 3        # other fields keep their defaults
    """
    params_type = get_protocol(name).params_type
    try:
        return params_type(**(overrides or {}))
    except TypeError as exc:
        raise TypeError(
            f"invalid parameter for protocol {name!r}: {exc}; "
            f"valid fields are "
            f"{[f.name for f in dataclasses.fields(params_type)]}"
        ) from None


def create_protocol(
    name: str,
    dataset: TraceDataset,
    server: CentralServer,
    rng: Random,
    params: Optional[Any] = None,
) -> VodProtocol:
    """Instantiate the stack registered under ``name``.

    ``params`` defaults to the entry's params defaults; pass
    :func:`resolve_params` output to tune the stack.

    Example::

        protocol = create_protocol(
            "socialtube", dataset, server, rng,
            params=resolve_params("socialtube", {"ttl": 3}),
        )
    """
    entry = get_protocol(name)
    if params is None:
        params = entry.params_type()
    if not isinstance(params, entry.params_type):
        raise TypeError(
            f"protocol {name!r} expects params of type "
            f"{entry.params_type.__name__}, got {type(params).__name__}"
        )
    return entry.factory(dataset, server, rng, **dataclasses.asdict(params))


# ---------------------------------------------------------------------------
# the built-in stacks

register_protocol("socialtube", SocialTubeProtocol, SocialTubeParams)
register_protocol("nettube", NetTubeProtocol, NetTubeParams)
register_protocol("pavod", PaVodProtocol, PaVodParams)
register_protocol("gridcast", GridCastProtocol, GridCastParams)
