"""numpy, imported on first use.

The modules that compute with arrays write ``from ._numpy import np``.
``np`` imports numpy when one of its attributes is first read, and keeps
each attribute it hands out, so a command that never touches an array
(every command but the solvers and a ``--matrix`` input) never pays for
the import.

``cli.main``, not this module, sets ``OPENBLAS_NUM_THREADS``, so library
callers keep their process's BLAS threads.

A thread that reads ``np.x`` while another is importing numpy waits on
the import lock and sees numpy fully initialised. ``sys.modules`` only
ever holds the real numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING


class _Numpy:
    def __getattr__(self, name: str):
        import numpy

        value = getattr(numpy, name)
        setattr(self, name, value)
        return value


if TYPE_CHECKING:
    import numpy as np
else:
    np = _Numpy()
