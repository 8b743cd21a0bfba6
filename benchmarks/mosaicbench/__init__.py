"""mosaicbench: the seeded end-to-end and per-layer benchmark of this repo.

See ``README.md`` in this directory; ``run.py`` is the one entry point.
"""
