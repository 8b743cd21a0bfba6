"""Legacy setuptools shim.

The environment has no ``wheel`` package, so PEP 517 editable installs
(``pip install -e .``) cannot build; this shim lets
``pip install -e . --no-use-pep517 --no-build-isolation`` fall back to
``setup.py develop``.  There is no ``pyproject.toml`` and no declared
metadata: development and CI use the sources via ``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
