"""chromint: simulation and analysis of chromatic intensity interferometry
with color-erasure detectors."""

__version__ = "0.1.0"
