"""Physical constants (CODATA 2018 exact values, SI units)."""

HBAR = 1.054571817e-34
"""Reduced Planck constant [J s]."""

K_B = 1.380649e-23
"""Boltzmann constant [J/K]."""

C = 2.99792458e8
"""Speed of light in vacuum [m/s]."""
