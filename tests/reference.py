"""numpy references for the payoff helpers, the payoff block and the share
rates, written apart from the code they check.

Every sum starts from 0.0 and runs in ascending index. A payoff is min-max
normalized with a zero minimum taken as -0.0, so every normalized zero is
+0.0.
"""

import numpy as np

from marketdyn.influence import DEGENERATE_RANGE


def ref_synthesize(coeffs: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """The raw (n, n) payoff of the (n*n, n_y) ``coeffs`` under ``values``."""
    raw = np.zeros(n * n)
    for m in range(coeffs.shape[1]):
        raw += coeffs[:, m] * values[m]
    return raw.reshape(n, n)


def ref_normalize(a: np.ndarray) -> np.ndarray:
    lo = float(a.min())
    if lo == 0.0:
        lo = -0.0
    hi = float(a.max())
    if hi - lo < DEGENERATE_RANGE:
        return np.full(a.shape, 0.5)
    return (a - lo) / (hi - lo)


def ref_rates(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    n = a.shape[0]
    fitness = np.zeros(n)
    for j in range(n):
        fitness += a[:, j] * x[j]
    mean_fitness = 0.0
    for i in range(n):
        mean_fitness += x[i] * fitness[i]
    return x * (fitness - mean_fitness)
