"""Deviation bounds for suprema of Gaussian trigonometric polynomials.

The package has three layers:

* deterministic numerics: coefficient/frequency sequences and their scalar
  aggregates (``spectrum``), closed-form deviation bounds (``bounds``),
  decoupling coefficients and quadrature identities (``decoupling``),
  rational-frequency approximation (``cyclic``) and lattice search
  (``kronecker``);
* a seeded, worker-count-independent Monte Carlo engine (``mc``) that
  estimates the probability/expectation left-hand sides;
* an experiment harness with a config format, CSV/JSON persistence and a
  CLI (``harness``, ``cli``).
"""

__version__ = "0.1.0"
