"""Finite-difference helper shared by the gradient tests."""

import numpy as np


def central_differences(fn, arr, h=1e-6):
    """Central finite differences of scalar fn() w.r.t. every entry of arr.

    arr is perturbed in place, so fn must read it (or a tensor viewing it).
    """
    flat = arr.reshape(-1)
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        hi = fn()
        flat[i] = orig - h
        lo = fn()
        flat[i] = orig
        grad[i] = (hi - lo) / (2 * h)
    return grad.reshape(arr.shape)


def probe_differences(fn, probe, arr, h=1e-6):
    """Central differences of sum(fn().data * probe) w.r.t. every entry of arr.

    ``backward(fn(), probe)`` computes the same gradient analytically.
    """
    return central_differences(lambda: float((fn().data * probe).sum()), arr, h)
