"""Input-driven payoff synthesis.

A coefficient matrix maps external input factors (investments, prices) to
the entries of a payoff matrix, one linear form per entry. Payoff entry
(i, j) lives at row k = n*i + j of the coefficient matrix, and each row is
dotted with the current input vector. Structural realism constraints come
in two parts:

* a zero mask: inputs owned by one product may not influence the other
  product's diagonal payoff entry;
* symmetry pairs: coefficient positions forced equal under the simultaneous
  swap of the two products and of their paired inputs.

Raw synthesized payoffs are min-max normalized to [0, 1] before they drive
the dynamics, which makes the whole pipeline invariant under positive
scaling of the coefficients. payoff_block takes many coefficient matrices
and input rows at once and is the one payoff kernel that both simulate.run
and the grid search call. Its two halves, the term sum and the
normalization, are the only payoff arithmetic: synthesize_payoff and
normalize_payoff are one-lane, one-step calls of them. The normalization
policy (DEGENERATE_RANGE) lives in the second half alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dynamics import PayoffMatrix, _readonly
from .errors import ConfigError

FULL_SYMMETRY = "full-symmetry"
CROSS_PAIRS_ONLY = "cross-pairs-only"
UNCONSTRAINED = "unconstrained"
CONSTRAINT_MODES = (FULL_SYMMETRY, CROSS_PAIRS_ONLY, UNCONSTRAINED)

DEGENERATE_RANGE = 1e-12
ALPHA_FORMAT = "influence-coefficients/1"

# A position addresses one coefficient: (payoff row index k, input index m).
Position = tuple[int, int]
Pair = tuple[Position, Position]


def payoff_index(n: int, i: int, j: int) -> int:
    """Row-major index of payoff entry (i, j) in the coefficient matrix."""
    if not (0 <= i < n and 0 <= j < n):
        raise ValueError(f"payoff entry ({i}, {j}) out of range for n={n}")
    return n * i + j


def payoff_coords(n: int, k: int) -> tuple[int, int]:
    """Inverse of payoff_index."""
    if not 0 <= k < n * n:
        raise ValueError(f"payoff row {k} out of range for n={n}")
    return divmod(k, n)


def alternating_ownership(n_y: int, n: int = 2) -> tuple[int, ...]:
    """Default owner map: input m belongs to strategy m mod n."""
    return tuple(m % n for m in range(n_y))


@dataclass(frozen=True)
class InputVector:
    """External input factors at one point in time, plus the map saying
    which strategy controls each input: the validated form in which a
    caller hands inputs in. Simulation steps read plain rows of a
    scenario's input table."""

    values: np.ndarray
    ownership: tuple[int, ...]

    def __post_init__(self):
        v = _readonly(self.values)
        if v.ndim != 1 or v.size < 1:
            raise ValueError(f"input values must be a non-empty vector, got shape {v.shape}")
        if not all(map(math.isfinite, v.tolist())):
            raise ValueError("input values must be finite")
        own = tuple(map(int, self.ownership))
        if len(own) != v.size:
            raise ValueError(
                f"ownership length {len(own)} does not match {v.size} inputs"
            )
        if min(own) < 0:
            raise ValueError("ownership entries must be strategy indices >= 0")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "ownership", own)


@dataclass(frozen=True)
class ConstraintSpec:
    """How to derive the structural constraints.

    swap is an involution on strategies (the product swap), input_pairing an
    involution on input indices saying which inputs correspond under that
    swap. The pairing must be consistent with ownership: the partner of an
    input owned by s must be owned by swap[s].
    """

    mode: str
    swap: tuple[int, ...]
    input_pairing: tuple[int, ...]
    ownership: tuple[int, ...]

    def __post_init__(self):
        if self.mode not in CONSTRAINT_MODES:
            raise ConfigError(
                f"constraint mode must be one of {CONSTRAINT_MODES}, got {self.mode!r}"
            )
        swap = tuple(int(s) for s in self.swap)
        pairing = tuple(int(p) for p in self.input_pairing)
        ownership = tuple(int(s) for s in self.ownership)
        n = len(swap)
        if sorted(swap) != list(range(n)):
            raise ConfigError(f"swap must be a permutation of 0..{n - 1}, got {swap}")
        if any(swap[swap[i]] != i for i in range(n)):
            raise ConfigError("swap must be an involution")
        n_y = len(pairing)
        if sorted(pairing) != list(range(n_y)):
            raise ConfigError(
                f"input pairing must be a permutation of 0..{n_y - 1}, got {pairing}"
            )
        if any(pairing[pairing[m]] != m for m in range(n_y)):
            raise ConfigError("input pairing must be an involution")
        if len(ownership) != n_y:
            raise ConfigError(
                f"ownership length {len(ownership)} does not match {n_y} inputs"
            )
        if any(not 0 <= s < n for s in ownership):
            raise ConfigError("ownership entries must be valid strategy indices")
        for m in range(n_y):
            if ownership[pairing[m]] != swap[ownership[m]]:
                raise ConfigError(
                    f"input pairing is inconsistent with ownership at input {m}: "
                    f"partner {pairing[m]} is owned by {ownership[pairing[m]]}, "
                    f"expected {swap[ownership[m]]}"
                )
        object.__setattr__(self, "swap", swap)
        object.__setattr__(self, "input_pairing", pairing)
        object.__setattr__(self, "ownership", ownership)

    @classmethod
    def standard_duopoly(cls, n_y: int, mode: str = FULL_SYMMETRY) -> "ConstraintSpec":
        """Two strategies, inputs alternating between them, consecutive
        inputs paired (0 with 1, 2 with 3, ...)."""
        if n_y % 2 != 0:
            raise ConfigError(f"standard duopoly constraints need an even input count, got {n_y}")
        pairing = []
        for m in range(0, n_y, 2):
            pairing += [m + 1, m]
        return cls(
            mode=mode,
            swap=(1, 0),
            input_pairing=tuple(pairing),
            ownership=alternating_ownership(n_y),
        )


def _canonical_pair(a: Position, b: Position) -> Pair:
    return (a, b) if a <= b else (b, a)


def build_constraints(
    spec: ConstraintSpec, n: int, n_y: int
) -> tuple[frozenset[Position], frozenset[Pair]]:
    """Zero mask and symmetry pairs implied by a constraint spec.

    The zero mask is independent of the mode: for every diagonal payoff
    entry (j, j), coefficients of inputs not owned by j are pinned to zero.
    full-symmetry pairs every coefficient position with its image under the
    simultaneous strategy swap and input pairing; cross-pairs-only keeps
    just the cross-entry equalities between (i, j) and (j, i) rows.
    """
    if len(spec.swap) != n:
        raise ConfigError(f"constraint spec is for {len(spec.swap)} strategies, not {n}")
    if len(spec.input_pairing) != n_y:
        raise ConfigError(
            f"constraint spec is for {len(spec.input_pairing)} inputs, not {n_y}"
        )

    zero_mask: set[Position] = set()
    if spec.mode != UNCONSTRAINED:
        for j in range(n):
            k = payoff_index(n, j, j)
            for m in range(n_y):
                if spec.ownership[m] != j:
                    zero_mask.add((k, m))

    pairs: set[Pair] = set()
    if spec.mode == FULL_SYMMETRY:
        for k in range(n * n):
            i, j = payoff_coords(n, k)
            k_img = payoff_index(n, spec.swap[i], spec.swap[j])
            for m in range(n_y):
                image = (k_img, spec.input_pairing[m])
                if image != (k, m):
                    pairs.add(_canonical_pair((k, m), image))
    elif spec.mode == CROSS_PAIRS_ONLY:
        if n != 2:
            raise ConfigError("cross-pairs-only constraints are defined for the 2-strategy case")
        # Cross-entry equalities only; the diagonal instances are tautologies.
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                k_ij = payoff_index(n, i, j)
                k_ji = payoff_index(n, j, i)
                for m in range(n_y):
                    if spec.ownership[m] == i:
                        pairs.add(_canonical_pair((k_ij, m), (k_ji, spec.input_pairing[m])))

    return frozenset(zero_mask), frozenset(pairs)


def constraint_check(
    coeffs: np.ndarray,
    zero_mask: frozenset[Position],
    symmetry_pairs: frozenset[Pair],
) -> bool:
    """Exact check that coefficient values honor the mask and the pairing."""
    c = np.asarray(coeffs, dtype=float)
    for k, m in zero_mask:
        if c[k, m] != 0.0:
            return False
    for (k1, m1), (k2, m2) in symmetry_pairs:
        if c[k1, m1] != c[k2, m2]:
            return False
    return True


@dataclass(frozen=True)
class InfluenceMatrix:
    """Coefficient matrix mapping inputs to payoff entries, with its
    structural constraints attached. Construction validates the constraints
    exactly; a violated mask or pairing raises immediately. ``coeffs`` is
    held as a read-only (n*n, n_y) array."""

    n: int
    n_y: int
    coeffs: np.ndarray
    zero_mask: frozenset[Position] = frozenset()
    symmetry_pairs: frozenset[Pair] = frozenset()

    def __post_init__(self):
        c = _readonly(self.coeffs)
        if c.shape != (self.n * self.n, self.n_y):
            raise ValueError(
                f"coefficients must have shape ({self.n * self.n}, {self.n_y}), got {c.shape}"
            )
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        mask = frozenset((int(k), int(m)) for k, m in self.zero_mask)
        pairs = frozenset(
            _canonical_pair((int(k1), int(m1)), (int(k2), int(m2)))
            for (k1, m1), (k2, m2) in self.symmetry_pairs
        )
        for k, m in mask:
            if not (0 <= k < self.n * self.n and 0 <= m < self.n_y):
                raise ValueError(f"zero-mask position {(k, m)} out of range")
        for a, b in pairs:
            for k, m in (a, b):
                if not (0 <= k < self.n * self.n and 0 <= m < self.n_y):
                    raise ValueError(f"symmetry-pair position {(k, m)} out of range")
        if not constraint_check(c, mask, pairs):
            raise ValueError("coefficients violate the attached constraints")
        object.__setattr__(self, "coeffs", c)
        object.__setattr__(self, "zero_mask", mask)
        object.__setattr__(self, "symmetry_pairs", pairs)

    @classmethod
    def from_free_values(
        cls,
        n: int,
        n_y: int,
        zero_mask: frozenset[Position],
        symmetry_pairs: frozenset[Pair],
        values,
    ) -> "InfluenceMatrix":
        """Materialize a full coefficient matrix from one value per free
        orbit, in layout order."""
        orbits = free_orbits(n, n_y, zero_mask, symmetry_pairs)
        values = list(values)
        if len(values) != len(orbits):
            raise ValueError(
                f"expected {len(orbits)} free values, got {len(values)}"
            )
        coeffs = np.zeros((n * n, n_y))
        for orbit, value in zip(orbits, values):
            for k, m in orbit:
                coeffs[k, m] = float(value)
        return cls(n=n, n_y=n_y, coeffs=coeffs,
                   zero_mask=zero_mask, symmetry_pairs=symmetry_pairs)


def _orbit_components(
    n: int, n_y: int, symmetry_pairs: frozenset[Pair]
) -> list[list[Position]]:
    """Connected components of the equality relation, every position included."""
    parent: dict[Position, Position] = {
        (k, m): (k, m) for k in range(n * n) for m in range(n_y)
    }

    def find(p: Position) -> Position:
        while parent[p] != p:
            parent[p] = parent[parent[p]]
            p = parent[p]
        return p

    for a, b in symmetry_pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    groups: dict[Position, list[Position]] = {}
    for k in range(n * n):
        for m in range(n_y):
            groups.setdefault(find((k, m)), []).append((k, m))
    return [sorted(members) for _, members in sorted(groups.items())]


def free_orbits(
    n: int,
    n_y: int,
    zero_mask: frozenset[Position],
    symmetry_pairs: frozenset[Pair],
) -> tuple[tuple[Position, ...], ...]:
    """Equality orbits that carry a free parameter, ordered row-major by
    their representative. Orbits touching the zero mask are pinned to 0 and
    carry nothing."""
    kept = [
        tuple(members)
        for members in _orbit_components(n, n_y, symmetry_pairs)
        if not any(p in zero_mask for p in members)
    ]
    return tuple(sorted(kept, key=lambda orbit: orbit[0]))


def _dense_terms(n: int, n_y: int):
    """payoff_block's terms for every coefficient (k, m), in value row k * n_y + m."""
    return [[(m, k * n_y + m) for m in range(n_y)] for k in range(n * n)]


@np.errstate(over="ignore", invalid="ignore")  # PayoffMatrix rejects what overflows
def synthesize_payoff(alpha: InfluenceMatrix, y) -> PayoffMatrix:
    """Raw payoff matrix A with entry k = coeffs[k] . y, row-major, for the
    1-d array ``y`` of input values at one time: payoff_block's term sum on
    one lane and one step. The ``+ 0.0`` turns a -0.0 sum into +0.0 and
    changes no other bit, so each entry is its sum from 0.0 in input order.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (alpha.n_y,):
        raise ValueError(
            f"dimension mismatch: coefficients expect {alpha.n_y} inputs, got shape {y.shape}"
        )
    n = alpha.n
    raw = _payoff_sums(alpha.coeffs.reshape(-1, 1), _dense_terms(n, alpha.n_y), y[None])
    return PayoffMatrix(list(raw.reshape(n, n) + 0.0))  # a list: n = 0 is shape (0,)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def normalize_payoff(payoff: PayoffMatrix) -> PayoffMatrix:
    """Min-max rescale of all entries to [0, 1]: payoff_block's
    normalization on one lane and one step. A matrix whose entries are all
    equal (range below 1e-12) maps to the uniform matrix of 0.5; every
    state is stationary under it."""
    block = _normalized(payoff.entries.reshape(-1, 1, 1).copy())
    return PayoffMatrix(block.reshape(payoff.entries.shape), normalized=True)


def payoff_block(values: np.ndarray, terms, rows: np.ndarray) -> np.ndarray:
    """The normalized payoffs of many coefficient matrices ("lanes") under
    many input rows ("steps"), as one (entry, step, lane) array.

    ``values`` holds one column per lane and the coefficient values in its
    rows, of which it reads only those that a term names; ``terms`` lists
    per payoff entry its (input m, value row f) pairs in ascending m, so
    that entry k of a lane is the sum over its terms of ``values[f] * y[m]``;
    ``rows`` is the (step, input) array of the input rows. A zero entry of
    either sign normalizes to +0.0, so leaving out a term whose value is
    zero changes no bit. A non-finite sum leaves a NaN in its (step, lane)
    column, so a column that the one-matrix helpers would reject holds an
    entry outside [0, 1]. Overflow and NaN are not trapped here; a caller
    that expects them sets ``np.errstate``.
    """
    return _normalized(_payoff_sums(values, terms, rows))


def _payoff_sums(values: np.ndarray, terms, rows: np.ndarray) -> np.ndarray:
    """The raw (entry, step, lane) payoffs: each entry's terms summed in
    input order, starting at its first term."""
    y = [rows[:, m, None] for m in range(rows.shape[1])]  # (step, 1) columns
    pay = np.zeros((len(terms), len(rows), values.shape[1]))
    for k, entry in enumerate(terms):
        if entry:
            (m, f), *rest = entry
            np.multiply(values[f], y[m], out=pay[k])
            for m, f in rest:
                pay[k] += values[f] * y[m]
    return pay


def _normalized(pay: np.ndarray) -> np.ndarray:
    """Min-max normalize each (step, lane) column of the raw block ``pay``
    in place: subtract the minimum over the entries, divide by the range,
    and fill 0.5 where the range is below DEGENERATE_RANGE. A zero minimum
    is taken as -0.0, so a zero entry of either sign leaves +0.0."""
    lo = pay.min(axis=0)
    np.copysign(lo, -1.0, out=lo, where=lo == 0.0)
    rng = pay.max(axis=0)
    rng -= lo
    degenerate = rng < DEGENERATE_RANGE
    pay -= lo
    pay /= rng
    if degenerate.any():
        pay[:, degenerate] = 0.5
    return pay


def alpha_to_dict(alpha: InfluenceMatrix, ownership: tuple[int, ...]) -> dict:
    """JSON-ready document for a coefficient matrix and its constraints."""
    if len(ownership) != alpha.n_y:
        raise ValueError(
            f"ownership length {len(ownership)} does not match {alpha.n_y} inputs"
        )
    return {
        "format": ALPHA_FORMAT,
        "n": alpha.n,
        "n_y": alpha.n_y,
        "coeffs": [[float(v) for v in row] for row in alpha.coeffs],
        "zero_mask": [list(p) for p in sorted(alpha.zero_mask)],
        "symmetry_pairs": [[list(a), list(b)] for a, b in sorted(alpha.symmetry_pairs)],
        "ownership": [int(s) for s in ownership],
    }


def alpha_from_dict(doc: dict) -> tuple[InfluenceMatrix, tuple[int, ...]]:
    """Parse a coefficient document; accepts a fit report wrapper too."""
    if "alpha" in doc and isinstance(doc["alpha"], dict):
        doc = doc["alpha"]
    try:
        if doc.get("format") != ALPHA_FORMAT:
            raise ConfigError(
                f"unsupported coefficient format {doc.get('format')!r}, expected {ALPHA_FORMAT!r}"
            )
        n = int(doc["n"])
        n_y = int(doc["n_y"])
        coeffs = np.array(doc["coeffs"], dtype=float)
        zero_mask = frozenset((int(k), int(m)) for k, m in doc["zero_mask"])
        pairs = frozenset(
            _canonical_pair((int(a[0]), int(a[1])), (int(b[0]), int(b[1])))
            for a, b in doc["symmetry_pairs"]
        )
        ownership = tuple(int(s) for s in doc["ownership"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed coefficient document: {exc}") from exc
    try:
        alpha = InfluenceMatrix(
            n=n, n_y=n_y, coeffs=coeffs, zero_mask=zero_mask, symmetry_pairs=pairs
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return alpha, ownership


def save_alpha(alpha: InfluenceMatrix, ownership: tuple[int, ...], path) -> None:
    Path(path).write_text(
        json.dumps(alpha_to_dict(alpha, ownership), indent=2) + "\n", encoding="utf-8"
    )


def load_alpha(path) -> tuple[InfluenceMatrix, tuple[int, ...]]:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"coefficient file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"coefficient file nests its JSON too deeply: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("coefficient file must contain a JSON object")
    return alpha_from_dict(doc)
