"""The interferometer's tail by lift and multiply: the reference from which
the tests' whole-4x4 block fold reads the port-a rows that the library's
fringe fold, written on the detector's start columns alone, is held to, and
whose start columns the tests multiply into the joint state that _evolve
writes out entry by entry.

T = (R(beta) (x) 1)(1 (+) U), with the recombiner R(beta) lifted onto path
(x) detector by an explicit Kronecker product and multiplied by the marking
operator 1 (+) U as a 4x4 matrix product.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)


def kron2(a, b):
    # Entry (2i+k, 2j+l) is the single product a[i,j]*b[k,l], as in np.kron.
    # Leading axes are stack axes and broadcast.
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (4, 4))


def beam_splitters(beta):
    # Rotation by beta about the y axis, for an angle or each of an array of them.
    half = 0.5 * np.asarray(beta, dtype=float)
    cos_h, sin_h = np.cos(half), np.sin(half)
    entries = np.array([cos_h, -sin_h, sin_h, cos_h], dtype=complex)
    return entries.T.reshape(half.shape + (2, 2))


def marking_operators(unitary):
    # 1 (+) U for a (2, 2) marking unitary or each of an (n, 2, 2) stack.
    unitary = np.asarray(unitary)
    m = np.zeros(unitary.shape[:-2] + (4, 4), dtype=complex)
    m[..., :2, :2] = I2
    m[..., 2:, 2:] = unitary
    return m


def lifted_tail(unitary, beta):
    # (R(beta) (x) 1)(1 (+) U) of each point of a 1-D beta: (n, 4, 4).
    return kron2(beam_splitters(beta), I2) @ marking_operators(unitary)
