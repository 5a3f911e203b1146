"""COSMIC: node-level Xeon Phi sharing middleware (reimplementation of [6])."""

from .container import DeclaredMemoryEnforcer
from .middleware import Cosmic, CosmicStats

__all__ = [
    "Cosmic",
    "CosmicStats",
    "DeclaredMemoryEnforcer",
]
