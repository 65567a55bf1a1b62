"""Hyperbolic-plane reflection tessellations, image-sum Neumann Green's
functions, the bulk-to-boundary propagator, and Monte Carlo estimation of
Wick-ordered exponential interactions, up to the decay experiment for the
boundary generating functional."""

__version__ = "0.1.0"
