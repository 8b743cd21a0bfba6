"""The Mosaic network service layer: asyncio wire server (see §5 of
``ARCHITECTURE.md``).

- :mod:`repro.server.protocol` — the framed wire protocol and the
  columnar result codec shared with :mod:`repro.client`.
- :mod:`repro.server.server` — :class:`MosaicServer`, the asyncio TCP
  server over a shared :class:`~repro.core.engine.Engine`.
- ``python -m repro.server`` — the standalone entrypoint.
"""

from repro.server.server import MosaicServer

__all__ = ["MosaicServer"]
