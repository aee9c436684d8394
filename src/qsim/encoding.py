"""Classical normalization, binary-tree representations and state loaders.

Two loaders are provided:

* amplitude encoding: a vector of N positive values stored as amplitudes
  over lg N qubits, prepared by a top-down ladder of uniformly controlled
  Ry rotations driven by the angle tree;
* BOE: a bidirectional encoding with a split level s that trades depth for
  width.  The primary register carries the data amplitudes, every other
  qubit belongs to the side state, and a CNOT-copied register makes the
  side states orthonormal by construction.
"""

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .sim import Circuit


def check_length(n):
    """Raise unless a series of n points fits a register: a power of two >= 2."""
    if n < 2 or (n & (n - 1)) != 0:
        raise ValueError(f"series length must be a power of two >= 2, got {n}")


def validate_raw(values):
    """Check a raw series: finite entries, length a power of two >= 2."""
    arr = np.asarray(values, dtype=float).reshape(-1)
    check_length(arr.size)
    if not np.isfinite(arr).all():
        raise ValueError("series contains non-finite entries")
    return arr


@dataclass(eq=False)
class NormalizedSeries:
    """Normalised values (read-only) with their scale rho and shift eta.

    `loaders` holds the loaders qhp.make_loader built for this series, one
    per (encoding, split level), so one evaluation loads a series with one
    loader at every power and in every readout.  `readouts` holds the
    readout laws qsim.inner computed with this series as the powered one,
    keyed by the partner series and the readout, so repeated estimates on
    one pair compute each law once.  Series compare and hash by identity:
    a distinct series with equal values gets its own entries.
    """

    values: np.ndarray
    rho: float
    eta: float
    mode: str  # "affine" or "sqrt"
    loaders: dict = field(default_factory=dict, init=False, repr=False)
    readouts: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # a kept loader or law is only valid for the values it came from
        self.values.setflags(write=False)

    @property
    def n_qubits(self):
        return int(math.log2(self.values.size))


def _shifted(raw, eta, power):
    """(raw - eta, sum (raw - eta)^power); ValueError where the sum overflows."""
    arr = validate_raw(raw)
    with np.errstate(over="ignore"):
        shifted = arr - eta
        total = float((shifted**power).sum())
    if not math.isfinite(total):
        raise ValueError(f"sum (x - eta)^{power} overflows float64 for the series "
                         f"of largest entry {float(arr.max())!r} at eta={eta!r}")
    return shifted, total


def normalize_affine(raw, eta):
    """values_j = rho * (raw_j - eta) with rho = (sum (raw-eta)^2)^(-1/2)."""
    shifted, sq = _shifted(raw, eta, 2)
    if sq <= 0.0:
        raise ValueError("all entries equal eta: zero norm")
    if (shifted <= 0.0).any():
        raise ValueError("normalized entries must be positive (shift eta below the data)")
    rho = 1.0 / math.sqrt(sq)
    return NormalizedSeries(values=rho * shifted, rho=rho, eta=float(eta), mode="affine")


def normalize_sqrt(raw, eta):
    """values_j = rho * sqrt(raw_j - eta) with rho = (sum (raw-eta))^(-1/2)."""
    shifted, total = _shifted(raw, eta, 1)
    if (shifted <= 0.0).any():
        raise ValueError("sqrt normalization requires raw_j - eta > 0")
    rho = 1.0 / math.sqrt(total)
    return NormalizedSeries(values=rho * np.sqrt(shifted), rho=rho,
                            eta=float(eta), mode="sqrt")


@dataclass
class StateDecompositionTree:
    """Bottom-up tree of subtree 2-norms; leaves are |values|.

    levels[0] is the root (length 1), levels[n] the leaves (length N).
    The derived angle at node (l, pos) is 2*atan2(right, left), so that
    Ry(angle)|0> splits the weight between the two children.
    """

    levels: list = field(default_factory=list)

    @property
    def n(self):
        return len(self.levels) - 1

    @property
    def leaves(self):
        return self.levels[-1]

    @property
    def root(self):
        return float(self.levels[0][0])

    def angles(self, level):
        child = self.levels[level + 1]
        return 2.0 * np.arctan2(child[1::2], child[0::2])


def build_tree(series_or_values):
    """Build the norm tree bottom-up from a NormalizedSeries or raw vector."""
    if isinstance(series_or_values, NormalizedSeries):
        vals = series_or_values.values
    else:
        vals = np.asarray(series_or_values, dtype=float).reshape(-1)
    level = np.abs(vals)
    levels = [level]
    while level.size > 1:
        level = np.hypot(level[0::2], level[1::2])
        levels.append(level)
    return StateDecompositionTree(levels=list(reversed(levels)))


def _load_block(circ, tree, reg, top_level, block):
    """Append the Ry ladder loading the subtree rooted at node `block` of
    tree level `top_level` onto `reg` (LSB first): its level l is one
    uniformly controlled Ry on reg[-1-l], controlled by the qubits above
    it, most-significant first."""
    for level in range(len(reg)):
        width = 1 << level
        angles = tree.angles(top_level + level)[block * width:(block + 1) * width]
        circ.ucry(reg[:-1 - level:-1], reg[-1 - level], angles)


class AmplitudeLoader:
    """Uniformly controlled Ry ladder preparing sum_j D_j |j>.

    Local qubit n-1 holds the most-significant bit of j.  `leaves` are the
    loaded |values|: the primary reads j with probability leaves_j^2.
    """

    def __init__(self, tree):
        n = tree.n
        self.leaves = tree.leaves
        self.width = n
        self.primary = tuple(range(n))  # LSB first
        self.circuit = Circuit(n)
        _load_block(self.circuit, tree, self.primary, 0, 0)


def boe_width(n_leaves, s):
    """(s+1) N 2^{-s} - 1 + lg N; ValueError unless 1 <= s <= lg N."""
    n = int(math.log2(n_leaves))
    if not 1 <= s <= n:
        raise ValueError(f"split level must be in [1, {n}], got {s}")
    return (s + 1) * n_leaves // (1 << s) - 1 + n


def boe_depth(n_leaves, s):
    """2^s + (n^2 - n - s^2 + s)/2 + 1 with n = lg N: depth of the BOE
    construction under its parallel schedule."""
    n = int(math.log2(n_leaves))
    return (1 << s) + (n * n - n - s * s + s) // 2 + 1


class BoeLoader:
    """BOE state-preparation circuit for split level s.

    Layout: M = N/2^s amplitude registers of s qubits each, M-1 tree-node
    qubits (one per internal node of the top tree over the blocks), and a
    lg N copy register.  The primary register is the leftmost spine of node
    qubits plus amplitude register 0; a CSWAP network routes the selected
    block onto it, and the copy register receives the primary via CNOTs so
    the side states are orthonormal.  As for AmplitudeLoader, the primary
    reads j with probability leaves_j^2.
    """

    def __init__(self, tree, s):
        n = tree.n
        width = boe_width(1 << n, s)  # refuses a bad split level
        m = n - s                     # depth of the top tree
        M = 1 << m                    # number of blocks

        amp_regs = tuple(tuple(range(r * s, (r + 1) * s)) for r in range(M))
        node_base = M * s

        def node_q(level, pos):
            return node_base + ((1 << level) - 1) + pos

        copy_base = node_base + (M - 1)
        copy = tuple(range(copy_base, copy_base + n))

        # primary bits: low s bits from amplitude register 0, then the
        # leftmost spine node of each level, bottom level first
        primary = amp_regs[0] + tuple(node_q(n - 1 - b, 0) for b in range(s, n))

        assert width == copy_base + n

        circ = Circuit(width)
        # 1. unconditional rotations on every top-tree node qubit
        for level in range(m):
            angles = tree.angles(level)
            for pos in range(1 << level):
                circ.ry(node_q(level, pos), angles[pos])
        # 2. each block loads its (implicitly normalized) sub-vector
        for r in range(M):
            _load_block(circ, tree, amp_regs[r], m, r)

        # 3. bottom-up CSWAP combine: route each selected branch onto the
        # left spine of its parent
        def spine(level, pos):
            if level == m:
                return list(amp_regs[pos])
            return [node_q(level, pos)] + spine(level + 1, 2 * pos)

        for level in range(m - 1, -1, -1):
            for pos in range(1 << level):
                a = spine(level + 1, 2 * pos)
                b = spine(level + 1, 2 * pos + 1)
                circ.cswap(node_q(level, pos), a, b)

        # 4. orthonormality: copy the primary register
        circ.cnot_layer(primary, copy)

        self.circuit = circ
        self.width = width
        self.primary = primary
        self.leaves = tree.leaves


def load_amplitude(tree):
    return AmplitudeLoader(tree)


def load_boe(tree, s):
    return BoeLoader(tree, s)


def read_series(path):
    """Load a raw series from CSV (one value per row) or a JSON array."""
    text_path = str(path)
    if text_path.endswith(".json"):
        with open(path) as fh:
            data = json.load(fh, parse_int=float)  # an int beyond float64 reads inf
        if not (isinstance(data, list) and all(type(x) is float for x in data)):
            raise ValueError("a JSON series must be a flat array of numbers")
        return validate_raw(data)
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    if any(len(row) != 1 for row in rows):
        raise ValueError("a CSV series must hold one value per row")
    return validate_raw([float(row[0]) for row in rows])
