"""Setuptools shim with no metadata.

The package runs from the source tree (``PYTHONPATH=src``, as CI and the
README do).  The repository declares no packaging metadata — there is no
pyproject.toml or setup.cfg — so this ``setup()`` names no packages.
"""

from setuptools import setup

setup()
