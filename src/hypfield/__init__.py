"""Hyperbolic-plane reflection tessellations, image-sum Neumann Green's
functions, the bulk-to-boundary propagator, and Monte Carlo estimation of
Wick-ordered exponential interactions, up to the decay experiment for the
boundary generating functional.

Importing any hypfield module loads numpy and no scipy module, and the
chain loads none either: ``greens.ModelParams``, the image sums,
``h_plus``, ``h_plus_forms``, ``k_table``, the audits,
``fieldmc.triviality_run`` on a bump source and ``hypfield triviality``.
A run manifest takes scipy's version from the loaded module in
``sys.modules`` and records null when the run loaded no scipy, so the
decay run's manifest reads null.  Each scipy module loads in the function
that uses it:

- ``scipy.integrate`` (``quad``) in ``greens.gk_norm`` and
  ``greens.exp_kernel_integral``;
- ``scipy.interpolate`` (``CubicSpline``) for a tabulated
  ``boundary.BoundarySource``.
"""

__version__ = "0.1.0"
