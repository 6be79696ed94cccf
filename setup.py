"""Packaging for the ICDCS'22 AoI-aware caching reproduction.

Declares the real metadata (src layout, numpy dependency) so that
``pip install -e .`` works without PYTHONPATH tricks::

    pip install -e .
    python -m repro.cli run all --seeds 5 --workers 4
"""

import re

from setuptools import find_packages, setup

# Single source of truth for the version: the package itself.
with open("src/repro/__init__.py", encoding="utf-8") as handle:
    VERSION = re.search(r'^__version__ = "([^"]+)"', handle.read(), re.M).group(1)

DESCRIPTION = (
    "Reproduction of 'AoI-Aware Markov Decision Policies for Caching' "
    "(ICDCS 2022): MDP cache management, Lyapunov content service, "
    "vectorised simulators, and a batched parallel experiment runtime"
)

setup(
    name="repro-icdcs22-aoi-caching",
    version=VERSION,
    description=DESCRIPTION,
    long_description=DESCRIPTION,
    long_description_content_type="text/plain",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=["numpy>=1.22"],
    extras_require={
        # networkx backs the multihop topology graphs; without it the
        # multihop suites skip and the multihop CLI examples cannot run.
        "test": ["pytest", "pytest-benchmark", "hypothesis", "networkx"],
    },
    entry_points={
        "console_scripts": ["repro=repro.cli:main"],
    },
    classifiers=[
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering",
        "Intended Audience :: Science/Research",
    ],
)
