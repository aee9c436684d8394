"""NumPy gate kernels: the primitives the simulator is built on.

Convention: qubit 0 is the least-significant bit of the basis index, so in
the plain (2,)*n view of the amplitudes qubit q sits on axis n-1-q.

apply_ctrl_1q and apply_cnot reshape the amplitudes to one length-2 axis
per fixed qubit (controls, targets) and one merged axis per run of free
qubits between them, then select the two halves they pair up by basic
indexing; apply_cswap_pair indexes the plain view.  Those are views into
the state (amps must be C-contiguous, so that the reshape is a view too),
so no index arrays are built and nothing is gathered or scattered.

Amplitudes are float64, because every gate the simulator builds is real
(see sim).  apply_ctrl_1q computes every output amplitude as the
elementwise expression u00*a0 + u01*a1 (or u10*a0 + u11*a1), evaluated in
that order, with its coefficients as they come, Python floats or float64
arrays; BLAS routines such as matmul are avoided because they may fuse
multiply-adds and change the rounding, and outputs must be reproducible
bit for bit.  A uniformly controlled gate runs in one call: its control
qubits stay length-2 axes of the same two views, and each coefficient is
an array over the control patterns, broadcast over the free axes.  Every
amplitude still gets that expression with its own pattern's coefficients.
Nothing is summed across amplitudes, so one call per pattern and one call
for all of them differ only in the order in which amplitudes are visited,
and give the same bits.  So does cutting a wide state's halves into blocks
of BLOCK pairs, which keeps each block's temporaries in cache.

The permutations, apply_cnot and apply_cswap_pair, move amplitudes and do
no arithmetic, so each amplitude is moved unchanged.  A CNOT run as the
matrix [[0, 1], [1, 0]] through apply_ctrl_1q gives the same bits, except
that a zero amplitude may differ in sign.
"""

import numbers
from functools import lru_cache
from itertools import product
from math import prod

backend = "numpy"
# Amplitude pairs apply_ctrl_1q updates per step: a step's two halves and
# its three temporaries (40 bytes a pair, 1.25 MiB) stay in a 2 MiB L2, and
# temporaries never grow with the state.
BLOCK = 1 << 15


@lru_cache(maxsize=4096)
def _view_plan(n_qubits, fixed_mask, val0, val1, kept_mask=0):
    """(shape, idx0, idx1, kept_shape) such that amps.reshape(shape)[idx0]
    views the basis states i with i & fixed_mask == val0, and [idx1] those
    with val1, both in increasing order of i.

    Each qubit of kept_mask (disjoint from fixed_mask) keeps a length-2 axis
    of its own in both views instead of being fixed to one value.
    kept_shape is the shape, 2 on those axes and 1 on every merged free
    axis, to which an array of per-pattern entries (pattern bit j the j-th
    lowest kept qubit) reshapes to broadcast against the views.
    """
    shape, idx0, idx1, kept = [], [], [], []
    run = 0
    for q in range(n_qubits - 1, -1, -1):
        bit = 1 << q
        if not (fixed_mask | kept_mask) & bit:
            run += 1
            continue
        if run:
            shape.append(1 << run)
            idx0.append(slice(None))
            idx1.append(slice(None))
            kept.append(1)
            run = 0
        shape.append(2)
        if kept_mask & bit:
            idx0.append(slice(None))
            idx1.append(slice(None))
            kept.append(2)
        else:
            idx0.append(1 if val0 & bit else 0)
            idx1.append(1 if val1 & bit else 0)
    if run:
        shape.append(1 << run)
        kept.append(1)
    # Ellipsis covers the trailing free axis, and keeps the selection a view
    # (not a scalar) when every qubit is fixed.
    return (tuple(shape), tuple(idx0) + (Ellipsis,), tuple(idx1) + (Ellipsis,),
            tuple(kept))


@lru_cache(maxsize=4096)
def _blocks(shape, kept):
    """(halves index, coefficient index) pairs that cut halves of this shape,
    more than BLOCK pairs, into blocks of at most BLOCK: one index on each
    leading axis and slices of the last axis cut.  kept is the coefficient
    arrays' shape, or None for scalar coefficients, which take no index; the
    arrays' length-1 axes are not indexed, and broadcast."""
    inner, lead = prod(shape), 0
    while inner > BLOCK:
        inner //= shape[lead]
        lead += 1
    step = max(1, BLOCK // inner)
    out = []
    for head in product(*map(range, shape[:lead - 1])):
        for j in range(0, shape[lead - 1], step):
            blk = head + (slice(j, j + step),)
            out.append((blk, None if kept is None else
                        tuple(i if n > 1 else slice(None) for i, n in zip(blk, kept))))
    return tuple(out)


def _pair_update(a0, a1, u00, u01, u10, u11):
    """The 2x2 update of the halves a0 and a1, in place."""
    n0 = u00 * a0 + u01 * a1
    a1[...] = u10 * a0 + u11 * a1
    a0[...] = n0


def apply_ctrl_1q(amps, n_qubits, ctrl_mask, ctrl_val, target, u00, u01, u10, u11):
    """Apply a 2x2 matrix to `target` on the subspace where the control
    bits (ctrl_mask) equal ctrl_val.  ctrl_mask == 0 gives a plain
    single-qubit gate.  Operates in place.

    With ctrl_val None the gate is uniformly controlled: u00 ... u11 are
    arrays of 2^c entries, one per control pattern, with pattern bit j the
    value of the j-th lowest control qubit, and every pattern is applied in
    this one call (c = 0 takes scalars as well).  States wider than BLOCK
    pairs are updated block by block, each with the views of its own
    coefficient entries.
    """
    tbit = 1 << target
    if ctrl_val is None and ctrl_mask:
        shape, idx0, idx1, kept = _view_plan(n_qubits, tbit, 0, tbit, ctrl_mask)
    else:  # one pattern, as is a uniformly controlled gate with no controls
        val = ctrl_val or 0
        shape, idx0, idx1, _ = _view_plan(n_qubits, ctrl_mask | tbit, val, val | tbit)
        kept = None
    view = amps.reshape(shape)
    a0 = view[idx0]
    a1 = view[idx1]
    coeffs = (u00, u01, u10, u11)
    if kept is not None:
        coeffs = [u.reshape(kept) for u in coeffs]
    if a0.size <= BLOCK:
        _pair_update(a0, a1, *coeffs)
        return
    for blk, ublk in _blocks(a0.shape, kept):
        _pair_update(a0[blk], a1[blk], *(coeffs if ublk is None else
                                         [u[ublk] for u in coeffs]))


def apply_cnot(amps, n_qubits, control, target):
    """Flip `target` where `control` is 1: swap the target's two halves of
    the control-1 subspace.  Operates in place.
    """
    cbit = 1 << control
    tbit = 1 << target
    shape, idx0, idx1, _ = _view_plan(n_qubits, cbit | tbit, cbit, cbit | tbit)
    view = amps.reshape(shape)
    a0 = view[idx0]
    a1 = view[idx1]
    tmp = a0.copy()
    a0[...] = a1
    a1[...] = tmp


@lru_cache(maxsize=4096)
def _swap_plan(n_qubits, ctrl_mask, ctrl_val, qa, qb):
    """(idx, axes): in the (2,)*n view, [idx] fixes each control axis to its
    value, kept as length 1, and axes exchanges qa[i]'s axis with qb[i]'s."""
    idx = tuple(slice(ctrl_val >> q & 1, (ctrl_val >> q & 1) + 1) if ctrl_mask >> q & 1
                else slice(None) for q in range(n_qubits - 1, -1, -1))
    axes = list(range(n_qubits))
    for a, b in zip(qa, qb):
        axes[n_qubits - 1 - a], axes[n_qubits - 1 - b] = n_qubits - 1 - b, n_qubits - 1 - a
    return idx, tuple(axes)


def apply_cswap_pair(amps, n_qubits, ctrl_mask, ctrl_val, qa, qb):
    """Swap registers qa and qb (equal-length qubit sequences, or single
    qubits) in place where the control bits (ctrl_mask) equal ctrl_val: one
    copy of that subspace, written back with the registers' axes exchanged."""
    qa = (qa,) if isinstance(qa, numbers.Integral) else tuple(qa)
    qb = (qb,) if isinstance(qb, numbers.Integral) else tuple(qb)
    idx, axes = _swap_plan(n_qubits, ctrl_mask, ctrl_val, qa, qb)
    sub = amps.reshape((2,) * n_qubits)[idx]
    sub[...] = sub.copy().transpose(axes)
