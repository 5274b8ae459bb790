"""Coefficient verification and pseudospectral simulation for a highly
nonlinear shallow-water model over a constant-vorticity shear current."""

__version__ = "0.1.0"
