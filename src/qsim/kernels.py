"""NumPy gate kernels: the primitives the simulator is built on.

Convention: qubit 0 is the least-significant bit of the basis index, so in
the plain (2,)*n view of the amplitudes qubit q sits on axis n-1-q.

Each kernel reshapes the amplitudes to one length-2 axis per fixed qubit
(controls, targets) and one merged axis per run of free qubits between
them, then selects the two halves it pairs up by basic indexing.  Those are
views into the state (amps must be C-contiguous, so that the reshape is a
view too), so no index arrays are built and nothing is gathered or
scattered.

apply_ctrl_1q computes every output amplitude as the elementwise complex128
expression u00*a0 + u01*a1 (or u10*a0 + u11*a1), evaluated in that order;
BLAS routines such as matmul are avoided because they may fuse multiply-adds
and change the rounding, and outputs must be reproducible bit for bit.
The permutations, apply_cnot and apply_cswap_pair, exchange the two halves
through one swap body and do no arithmetic, so each amplitude is moved
unchanged.  A CNOT run as the matrix [[0, 1], [1, 0]] through apply_ctrl_1q
gives the same bits, except that a zero amplitude may differ in sign.
"""

from functools import lru_cache

backend = "numpy"


@lru_cache(maxsize=4096)
def _view_plan(n_qubits, fixed_mask, val0, val1):
    """(shape, idx0, idx1) such that amps.reshape(shape)[idx0] views the basis
    states i with i & fixed_mask == val0, and [idx1] those with val1, both in
    increasing order of i.
    """
    shape, idx0, idx1 = [], [], []
    run = 0
    for q in range(n_qubits - 1, -1, -1):
        bit = 1 << q
        if not fixed_mask & bit:
            run += 1
            continue
        if run:
            shape.append(1 << run)
            idx0.append(slice(None))
            idx1.append(slice(None))
            run = 0
        shape.append(2)
        idx0.append(1 if val0 & bit else 0)
        idx1.append(1 if val1 & bit else 0)
    if run:
        shape.append(1 << run)
    # Ellipsis covers the trailing free axis, and keeps the selection a view
    # (not a scalar) when every qubit is fixed.
    return tuple(shape), tuple(idx0) + (Ellipsis,), tuple(idx1) + (Ellipsis,)


def apply_ctrl_1q(amps, n_qubits, ctrl_mask, ctrl_val, target, u00, u01, u10, u11):
    """Apply a 2x2 matrix to `target` on the subspace where the control
    bits (ctrl_mask) equal ctrl_val.  ctrl_mask == 0 gives a plain
    single-qubit gate.  Operates in place.
    """
    tbit = 1 << target
    shape, idx0, idx1 = _view_plan(n_qubits, ctrl_mask | tbit, ctrl_val,
                                   ctrl_val | tbit)
    view = amps.reshape(shape)
    a0 = view[idx0]
    a1 = view[idx1]
    n0 = u00 * a0 + u01 * a1
    a1[...] = u10 * a0 + u11 * a1
    a0[...] = n0


def _swap(amps, shape, idx0, idx1):
    """Exchange the halves amps.reshape(shape)[idx0] and [idx1] in place."""
    view = amps.reshape(shape)
    a0 = view[idx0]
    a1 = view[idx1]
    tmp = a0.copy()
    a0[...] = a1
    a1[...] = tmp


def apply_cnot(amps, n_qubits, control, target):
    """Flip `target` where `control` is 1: swap the target's two halves of
    the control-1 subspace.  Operates in place.
    """
    cbit = 1 << control
    tbit = 1 << target
    _swap(amps, *_view_plan(n_qubits, cbit | tbit, cbit, cbit | tbit))


def apply_cswap_pair(amps, n_qubits, ctrl_mask, ctrl_val, qa, qb):
    """Swap qubits qa and qb on the subspace selected by the control bits.

    A controlled register swap is a product of these pairwise swaps.
    """
    abit = 1 << qa
    bbit = 1 << qb
    _swap(amps, *_view_plan(n_qubits, ctrl_mask | abit | bbit,
                            ctrl_val | abit, ctrl_val | bbit))
