"""The Mosaic network service layer: asyncio wire server (see §5 of
``ARCHITECTURE.md``).

- :mod:`repro.server.protocol` — the framed wire protocol and the
  columnar result codec shared with :mod:`repro.client`.
- :mod:`repro.server.server` — :class:`MosaicServer`, the asyncio TCP
  server over a shared :class:`~repro.core.engine.Engine`.
- ``python -m repro.server`` — the standalone entrypoint.

:class:`MosaicServer` is resolved on first access, so importing
:mod:`repro.server.protocol` (the client, the fleet router) does not load
the engine.
"""

__all__ = ["MosaicServer"]


def __getattr__(name: str):
    if name != "MosaicServer":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from repro.server.server import MosaicServer

    globals()[name] = MosaicServer
    return MosaicServer
