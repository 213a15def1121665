"""Shim for ``setup.py develop``; all metadata lives in pyproject.toml."""
from setuptools import setup

setup()
