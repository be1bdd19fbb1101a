"""Neighborhood kernels ``h_ci`` for SOM training.

Section III-A defines the kernel as a Gaussian of map distance from
the best matching unit, scaled by the learning rate:

    h_ci(n) = alpha(n) * exp(-||r_c - r_i||^2 / (2 * sigma(n)^2))

:class:`GaussianNeighborhood` implements exactly that;
:class:`BubbleNeighborhood` is the classic hard-radius alternative kept
for ablations.  Kernels are evaluated on *squared* map distances so the
training loop can reuse the grid's precomputed distance table.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SOMError

__all__ = [
    "NeighborhoodKernel",
    "GaussianNeighborhood",
    "BubbleNeighborhood",
    "resolve_neighborhood",
]


class NeighborhoodKernel:
    """Interface: kernel weights from squared map distances and a radius.

    A kernel is elementwise in the squared distance: each output entry
    is a function of its own input entry and ``sigma`` alone, the same
    float whatever array it sits in.  Batch training relies on this: it
    evaluates the kernel once on the ``(U, U)`` distance table and
    gathers rows of the result (:mod:`repro.som.batch`), which is
    bitwise the kernel of the gathered distances.

    ``out``, when given, receives the result in place (no allocation);
    the training hot loop relies on this to reuse one kernel buffer
    across all steps.  The in-place path is bitwise identical to the
    allocating one.
    """

    def __call__(
        self,
        squared_distances: np.ndarray,
        sigma: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        raise NotImplementedError

    @staticmethod
    def _check_sigma(sigma: float) -> None:
        if not sigma > 0.0:
            raise SOMError(f"neighborhood radius must be positive, got {sigma}")


class GaussianNeighborhood(NeighborhoodKernel):
    """The paper's kernel: ``exp(-d^2 / (2 sigma^2))``.

    Every unit receives a non-zero (if tiny) update, with the BMU
    itself getting weight 1.
    """

    def __call__(
        self,
        squared_distances: np.ndarray,
        sigma: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        self._check_sigma(sigma)
        distances = np.asarray(squared_distances, dtype=float)
        if out is None:
            return np.exp(-distances / (2.0 * sigma * sigma))
        # d / -(2s^2) is bitwise equal to -d / (2s^2) (IEEE division is
        # sign-symmetric), and lets the negation ride on the scalar.
        np.divide(distances, -(2.0 * sigma * sigma), out=out)
        np.exp(out, out=out)
        return out


class BubbleNeighborhood(NeighborhoodKernel):
    """Hard-radius kernel: 1 inside ``sigma``, 0 outside."""

    def __call__(
        self,
        squared_distances: np.ndarray,
        sigma: float,
        out: np.ndarray | None = None,
    ) -> np.ndarray:
        self._check_sigma(sigma)
        distances = np.asarray(squared_distances, dtype=float)
        inside = distances <= sigma * sigma
        if out is None:
            return inside.astype(float)
        np.copyto(out, inside)
        return out


_KERNELS = {
    "gaussian": GaussianNeighborhood,
    "bubble": BubbleNeighborhood,
}


def resolve_neighborhood(kernel: str | NeighborhoodKernel) -> NeighborhoodKernel:
    """Kernel instance from a name or an existing instance."""
    if isinstance(kernel, NeighborhoodKernel):
        return kernel
    try:
        return _KERNELS[kernel]()
    except KeyError:
        known = ", ".join(sorted(_KERNELS))
        raise SOMError(
            f"unknown neighborhood kernel {kernel!r}; known kernels: {known}"
        ) from None
