"""Replicator-dynamics market modeling with input-driven payoff matrices.

The payoff matrix of a two-technology market is not fixed: external input
factors (investments, prices) move it every quarter. This package
synthesizes payoffs from inputs through a constrained coefficient matrix,
simulates market-share trajectories under replicator dynamics, and learns
the coefficients from observed data by exhaustive integer grid search.

Names are imported from the submodules (marketdyn.dataset, .influence,
.dynamics, .simulate, .learn, .svgchart, .cli); pyproject.toml holds the
version.
"""
