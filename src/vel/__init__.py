"""Numerical laboratory for expanding gas flows with a vacuum free boundary.

The package evaluates the explicit self-similar gas profiles, integrates the
scalar dilation ODE that turns them into exact solutions of the damped
Lagrangian system, provides discrete field calculus on the reference ball
with the degenerate boundary weight, evaluates weighted energy and curl
functionals, and runs a spherically symmetric Lagrangian solver whose
discrete force is the exact gradient of the discrete internal energy.
"""

__version__ = "0.1.0"
